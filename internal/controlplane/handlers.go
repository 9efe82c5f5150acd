package controlplane

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"github.com/here-ft/here/internal/orchestrator"
	"github.com/here-ft/here/internal/recovery"
)

// errNoTrace is served when a trace download is requested for a
// protection whose tracing is disabled.
var errNoTrace = errors.New("tracing is disabled for this vm")

// maxBodyBytes bounds request bodies; the API's JSON documents are
// tiny, anything larger is a client error.
const maxBodyBytes = 1 << 20

// decodeBody strictly decodes the JSON request body into v.
func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest("malformed request body: %v", err)
	}
	return nil
}

// workloadSpec converts a ProtectRequest's workload fields into the
// orchestrator's journalable description, validating them eagerly so
// a bad request fails with 400 before anything mutates. The spec —
// not a pre-built closure — goes into the VMSpec, so the write-ahead
// journal can rebuild the same guest activity after a restart.
func workloadSpec(req ProtectRequest) (orchestrator.WorkloadSpec, error) {
	spec := orchestrator.WorkloadSpec{
		Name:        req.Workload,
		LoadPercent: req.LoadPercent,
		Seed:        req.Seed,
	}
	if _, err := spec.Build(); err != nil {
		return spec, badRequest("%v", err)
	}
	return spec, nil
}

// toHostDTO converts an orchestrator host snapshot.
func toHostDTO(h orchestrator.HostInfo) HostDTO {
	return HostDTO{Name: h.Name, Kind: h.Kind, Product: h.Product,
		Health: h.Health, Reason: h.Reason, VMs: h.VMs}
}

// toRecoveryPolicyDTO converts an in-place recovery policy.
func toRecoveryPolicyDTO(p recovery.Policy) RecoveryPolicyDTO {
	return RecoveryPolicyDTO{
		DeadlineMS:  p.Deadline.Milliseconds(),
		MaxAttempts: p.MaxAttempts,
		BackoffMS:   p.Backoff.Milliseconds(),
		Jitter:      p.Jitter,
	}
}

// toVMStatus converts an orchestrator protection snapshot.
func toVMStatus(st orchestrator.Status) VMStatus {
	var out VMStatus
	out.fill(&st)
	return out
}

// fill sets v to st's conversion. It reuses v's slices and secondary
// host, so a list can convert every row into one VMStatus.
func (v *VMStatus) fill(st *orchestrator.Status) {
	secondary, secondaries, legs := v.Secondary, v.Secondaries[:0], v.Legs[:0]
	*v = VMStatus{
		Name:       st.Name,
		Generation: st.Generation,
		Mode:       string(st.Mode),
		Running:    st.Running,
		Epoch:      st.Epoch,
		PeriodMS:   st.Period.Milliseconds(),
		Budget:     st.Budget,
		MaxPeriod:  st.MaxPeriod.Milliseconds(),
		Primary:    toHostDTO(st.Primary),
		Want:       st.Want,
		Quorum:     st.Quorum,
		Placement:  st.Placement,

		Checkpoints: st.Totals.Checkpoints,
		PagesSent:   st.Totals.PagesSent,
		BytesSent:   st.Totals.BytesSent,
		Recovery: RecoveryDTO{
			Retries:         st.Recovery.Retries,
			Rollbacks:       st.Recovery.Rollbacks,
			DegradedEntries: st.Recovery.DegradedEntries,
			Resyncs:         st.Recovery.Resyncs,
			ResyncPages:     st.Recovery.ResyncPages,
			ResyncBytes:     st.Recovery.ResyncBytes,
			ProtectedMS:     st.Recovery.ProtectedTime.Milliseconds(),
			DegradedMS:      st.Recovery.DegradedTime.Milliseconds(),
			ResyncMS:        st.Recovery.ResyncTime.Milliseconds(),
		},
		Wire: WireDTO{
			RawBytes:     st.Totals.Wire.RawBytes,
			EncodedBytes: st.Totals.Wire.EncodedBytes,
			Ratio:        st.Totals.Wire.Ratio(),
		},
	}
	if st.Secondary != nil {
		if secondary == nil {
			secondary = new(HostDTO)
		}
		*secondary = toHostDTO(*st.Secondary)
		v.Secondary = secondary
	}
	for _, s := range st.Secondaries {
		secondaries = append(secondaries, toHostDTO(s))
	}
	v.Secondaries = secondaries
	for _, l := range st.Legs {
		legs = append(legs, LegDTO{
			Index:        l.Index,
			Host:         l.Host,
			Product:      l.Product,
			AckedEpoch:   l.AckedEpoch,
			PendingPages: l.PendingPages,
			NeedsSeed:    l.NeedsSeed,
			Dead:         l.Dead,
			DeadCause:    l.DeadCause,
		})
	}
	v.Legs = legs
	if st.RecoveryPolicy.Enabled() {
		dto := toRecoveryPolicyDTO(st.RecoveryPolicy)
		v.RecoveryPolicy = &dto
	}
}

// handleProtect serves POST /v1/vms: protect a VM from a spec.
func (s *Server) handleProtect(w http.ResponseWriter, r *http.Request) {
	var req ProtectRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if req.Name == "" {
		writeError(w, badRequest("name is required"))
		return
	}
	if req.MemoryBytes == 0 || req.VCPUs <= 0 {
		writeError(w, badRequest("memory_bytes and vcpus must be positive"))
		return
	}
	wspec, err := workloadSpec(req)
	if err != nil {
		writeError(w, err)
		return
	}
	if req.Secondaries < 0 || req.Quorum < 0 {
		writeError(w, badRequest("secondaries and quorum must be >= 0"))
		return
	}
	if req.Quorum > 0 && req.Secondaries > 0 && req.Quorum > req.Secondaries {
		writeError(w, badRequest("quorum %d exceeds requested secondaries %d", req.Quorum, req.Secondaries))
		return
	}
	if _, err := s.m.Protect(orchestrator.VMSpec{
		Name:         req.Name,
		MemoryBytes:  req.MemoryBytes,
		VCPUs:        req.VCPUs,
		Secondaries:  req.Secondaries,
		Quorum:       req.Quorum,
		WorkloadSpec: wspec,
	}); err != nil {
		writeError(w, err)
		return
	}
	st, err := s.m.Status(req.Name)
	if err != nil {
		writeError(w, err)
		return
	}
	writeVMStatus(w, http.StatusCreated, st)
}

// handleList serves GET /v1/vms: the VMList of every protection.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeVMList(w, s.m.StatusAll(), &s.listSize)
}

// handleStatus serves GET /v1/vms/{name}.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.m.Status(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeVMStatus(w, http.StatusOK, st)
}

// handleUnprotect serves DELETE /v1/vms/{name}.
func (s *Server) handleUnprotect(w http.ResponseWriter, r *http.Request) {
	if err := s.m.Unprotect(r.PathValue("name")); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleFailover serves POST /v1/vms/{name}/failover: forced
// activation of the replica (the operator has fenced the primary).
func (s *Server) handleFailover(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	res, err := s.m.Failover(name)
	if err != nil {
		writeError(w, err)
		return
	}
	st, err := s.m.Status(name)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, FailoverResponse{
		Name:           name,
		Generation:     st.Generation,
		ResumeTimeUS:   res.ResumeTime.Microseconds(),
		PacketsDropped: res.PacketsDropped,
		NewPrimary:     st.Primary.Name,
		Reprotected:    st.Secondary != nil,
	})
}

// handlePeriod serves PATCH /v1/vms/{name}/period: live-tune the
// degradation budget D and interval cap T_max.
func (s *Server) handlePeriod(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req PeriodPatch
	if err := decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if req.MaxPeriodMS < 0 {
		writeError(w, badRequest("max_period_ms must be >= 0 (0 = unbounded)"))
		return
	}
	cur, err := s.m.SetPeriod(name, req.Budget, time.Duration(req.MaxPeriodMS)*time.Millisecond)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, PeriodResponse{
		Name:        name,
		Budget:      req.Budget,
		MaxPeriodMS: req.MaxPeriodMS,
		PeriodMS:    cur.Milliseconds(),
	})
}

// handleRecovery serves PATCH /v1/vms/{name}/recovery: live-tune the
// in-place recovery ladder (attempt budget, backoff, hard deadline).
// An all-zero body disables in-place recovery for the protection.
func (s *Server) handleRecovery(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req RecoveryPatch
	if err := decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if req.DeadlineMS < 0 || req.BackoffMS < 0 {
		writeError(w, badRequest("deadline_ms and backoff_ms must be >= 0"))
		return
	}
	pol := recovery.Policy{
		Deadline:    time.Duration(req.DeadlineMS) * time.Millisecond,
		MaxAttempts: req.MaxAttempts,
		Backoff:     time.Duration(req.BackoffMS) * time.Millisecond,
		Jitter:      req.Jitter,
	}
	if err := pol.Validate(); err != nil {
		writeError(w, badRequest("%v", err))
		return
	}
	cur, err := s.m.SetRecovery(name, pol)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, RecoveryResponse{
		Name:    name,
		Enabled: cur.Enabled(),
		Policy:  toRecoveryPolicyDTO(cur),
	})
}

// handleTrace serves GET /v1/vms/{name}/trace: the protection's
// epoch-scoped span log as a JSONL download.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	p, err := s.m.Lookup(name)
	if err != nil {
		writeError(w, err)
		return
	}
	tr := p.Tracer()
	if tr == nil {
		writeError(w, fmt.Errorf("%w: %q", errNoTrace, name))
		return
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%q", name+"-trace.jsonl"))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

// handleEvents serves GET /v1/events?since=N: the fleet event log
// tail with Seq > N, plus the cursor for the next poll.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	var since uint64
	if q := r.URL.Query().Get("since"); q != "" {
		v, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			writeError(w, badRequest("bad since cursor %q: %v", q, err))
			return
		}
		since = v
	}
	events := s.m.EventsSince(since)
	out := EventsResponse{
		Events: make([]EventDTO, 0, len(events)),
		Next:   s.m.LastEventSeq(),
	}
	for _, e := range events {
		out.Events = append(out.Events, EventDTO{
			Seq: e.Seq, Time: e.Time, Kind: string(e.Kind), VM: e.VM, Detail: e.Detail,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleTransport serves GET /v1/transport: the daemon's network
// transport endpoints — replica sessions on the peer listener and the
// protections' streaming clients. An empty list means the fleet
// replicates over the in-process simulated links.
func (s *Server) handleTransport(w http.ResponseWriter, r *http.Request) {
	peers := s.m.TransportStatus()
	out := TransportList{Peers: make([]TransportPeerDTO, 0, len(peers))}
	for _, p := range peers {
		out.Peers = append(out.Peers, TransportPeerDTO{
			Role:        p.Role,
			Protection:  p.Protection,
			State:       p.State,
			RemoteAddr:  p.RemoteAddr,
			Generation:  p.Generation,
			AckedSeq:    p.AckedSeq,
			Acked:       p.Acked,
			Connects:    p.Connects,
			Disconnects: p.Disconnects,
			Checkpoints: p.Checkpoints,
			SeedRounds:  p.SeedRounds,
			Bytes:       p.Bytes,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// handlePlacement serves GET /v1/placement: the fleet's pairwise
// placement score matrix — shared DoS-CVE overlap plus load for every
// ordered (primary, secondary) host pair.
func (s *Server) handlePlacement(w http.ResponseWriter, r *http.Request) {
	entries := s.m.PlacementMatrix()
	out := PlacementMatrix{Pairs: make([]PlacementPairDTO, 0, len(entries))}
	for _, e := range entries {
		out.Pairs = append(out.Pairs, PlacementPairDTO{
			Primary:         e.Primary,
			Secondary:       e.Secondary,
			PrimaryFlavor:   string(e.PrimaryFlavor),
			SecondaryFlavor: string(e.SecondaryFlavor),
			Overlap:         e.Overlap,
			Score:           e.Score,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleHosts serves GET /v1/hosts.
func (s *Server) handleHosts(w http.ResponseWriter, r *http.Request) {
	infos := s.m.HostsStatus()
	out := HostList{Hosts: make([]HostDTO, 0, len(infos))}
	for _, h := range infos {
		out.Hosts = append(out.Hosts, toHostDTO(h))
	}
	writeJSON(w, http.StatusOK, out)
}

// handleMetrics serves GET /metrics: the fleet registry's Prometheus
// text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	reg := s.m.Metrics()
	if reg == nil {
		writeError(w, errors.New("no metrics registry configured"))
		return
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

// handleHealthz serves liveness: 200 as long as the process serves.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:  "ok",
		SimTime: s.m.Clock().Now(),
		Ticks:   s.Ticks(),
	})
}

// handleReadyz serves readiness: 200 while the pump runs, 503 before
// StartPump and while draining during Shutdown.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{
		Status:  "ready",
		SimTime: s.m.Clock().Now(),
		Ticks:   s.Ticks(),
	}
	if !s.Ready() {
		resp.Status = "unavailable"
		writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
