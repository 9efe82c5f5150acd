package controlplane

// White-box tests: same package so admission can be exercised by
// pre-filling the semaphore directly.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/here-ft/here/internal/faults"
	"github.com/here-ft/here/internal/fleet"
	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/kvm"
	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/orchestrator"
	"github.com/here-ft/here/internal/trace"
	"github.com/here-ft/here/internal/vclock"
	"github.com/here-ft/here/internal/xen"
)

// newFleet builds a one-group fleet with a metrics registry and the given host
// layout ("x" for Xen, "k" for KVM), all on clock.
func newFleet(t *testing.T, clock vclock.Clock, kinds string) (*fleet.Scheduler, []*hypervisor.Host) {
	t.Helper()
	m, err := fleet.New(fleet.Config{Orchestrator: orchestrator.Config{
		Clock:   clock,
		Metrics: trace.NewRegistry(),
	}})
	if err != nil {
		t.Fatal(err)
	}
	var hosts []*hypervisor.Host
	for i, c := range kinds {
		var h *hypervisor.Host
		var err error
		name := string(c) + strconv.Itoa(i)
		if c == 'x' {
			h, err = xen.New(name, clock)
		} else {
			h, err = kvm.New(name, clock)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AddHost(h); err != nil {
			t.Fatal(err)
		}
		hosts = append(hosts, h)
	}
	return m, hosts
}

// newTestServer mounts a Server on an httptest listener. The pump is
// NOT started — tests that need rounds drive Scheduler.Tick directly (so
// simulated time is deterministic) or call StartPump themselves.
func newTestServer(t *testing.T, m *fleet.Scheduler, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{Manager: m, PumpInterval: 2 * time.Millisecond}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func protectReq(name string) ProtectRequest {
	return ProtectRequest{
		Name:        name,
		MemoryBytes: 512 * memory.PageSize,
		VCPUs:       2,
	}
}

// counterValue extracts one sample from a Prometheus text exposition.
func counterValue(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				t.Fatalf("bad sample %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in scrape:\n%s", name, text)
	return 0
}

// TestE2EFaultInjectedFailover is the end-to-end API test: protect a
// VM over HTTP, read its status, crash the primary with a fault plan,
// let orchestration rounds fail it over and re-protect it, then assert
// the /metrics scrape and the /v1/events cursor both observed it.
func TestE2EFaultInjectedFailover(t *testing.T) {
	plan := faults.New(vclock.NewSim(), 1)
	// Plan.Clock returns a fresh wrapper per call; AddHost checks clock
	// identity, so capture it exactly once.
	clock := plan.Clock()
	base := clock.Now()
	m, hosts := newFleet(t, clock, "xxkk")
	plan.Instrument(nil, m.Metrics())
	_, ts := newTestServer(t, m, nil)
	c := NewClient(ts.URL)

	st, err := c.Protect(protectReq("svc"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != string(orchestrator.ModeProtected) || st.Secondary == nil {
		t.Fatalf("protect status: mode=%s secondary=%v", st.Mode, st.Secondary)
	}
	if st.Primary.Kind == st.Secondary.Kind {
		t.Fatalf("homogeneous pair: %s -> %s", st.Primary.Kind, st.Secondary.Kind)
	}

	got, err := c.VM("svc")
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "svc" || got.Generation != 0 {
		t.Fatalf("status: %+v", got)
	}
	oldPrimary := got.Primary.Name

	// A few healthy rounds so checkpoint counters move.
	for i := 0; i < 3; i++ {
		if err := m.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	before, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	cpBefore := counterValue(t, string(before), "here_replication_checkpoints_total")
	if cpBefore == 0 {
		t.Fatal("no checkpoints counted before the fault")
	}

	// Crash the current primary just after "now" (plan offsets are
	// measured from its creation instant) and let the pump rounds
	// drive detection, failover and re-protection.
	var crashed *hypervisor.Host
	for _, h := range hosts {
		if h.HostName() == oldPrimary {
			crashed = h
		}
	}
	if crashed == nil {
		t.Fatalf("primary %s not in fleet", oldPrimary)
	}
	plan.HostCrash(clock.Now().Sub(base)+time.Millisecond, crashed, "injected crash")

	deadline := 200
	for got.Generation == 0 && deadline > 0 {
		if err := m.Tick(); err != nil {
			t.Fatal(err)
		}
		if got, err = c.VM("svc"); err != nil {
			t.Fatal(err)
		}
		deadline--
	}
	if got.Generation != 1 {
		t.Fatalf("failover never happened: %+v", got)
	}
	if got.Primary.Name == oldPrimary {
		t.Fatalf("still on crashed primary %s", oldPrimary)
	}
	if got.Secondary == nil || got.Mode != string(orchestrator.ModeProtected) {
		t.Fatalf("not re-protected: mode=%s secondary=%v", got.Mode, got.Secondary)
	}
	if got.Primary.Kind == got.Secondary.Kind {
		t.Fatalf("re-protected homogeneously: %s -> %s", got.Primary.Kind, got.Secondary.Kind)
	}

	// More rounds on the new pair, then assert the scrape moved.
	for i := 0; i < 3; i++ {
		if err := m.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	after, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if cpAfter := counterValue(t, string(after), "here_replication_checkpoints_total"); cpAfter <= cpBefore {
		t.Fatalf("checkpoints_total did not move: %v -> %v", cpBefore, cpAfter)
	}
	if counterValue(t, string(after), "here_faults_injected_total") < 1 {
		t.Fatal("fault injection not counted")
	}

	// The event log saw the whole story, and the cursor pages cleanly.
	evs, err := c.Events(0)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var lastSeq uint64
	for _, e := range evs.Events {
		if e.Seq <= lastSeq {
			t.Fatalf("event seqs not increasing: %d after %d", e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		seen[e.Kind] = true
	}
	for _, want := range []orchestrator.EventKind{
		orchestrator.EventProtected, orchestrator.EventFailureFound,
		orchestrator.EventFailedOver, orchestrator.EventReprotected,
	} {
		if !seen[string(want)] {
			t.Fatalf("event %q missing from log %v", want, seen)
		}
	}
	tail, err := c.Events(evs.Next)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail.Events) != 0 {
		t.Fatalf("cursor %d should exhaust the log, got %d more", evs.Next, len(tail.Events))
	}
}

// TestForcedFailoverOverHTTP covers the operator-driven path: POST
// failover on a healthy pair, then DELETE, then 404.
func TestForcedFailoverOverHTTP(t *testing.T) {
	clock := vclock.NewSim()
	m, _ := newFleet(t, clock, "xk")
	_, ts := newTestServer(t, m, nil)
	c := NewClient(ts.URL)

	if _, err := c.Protect(protectReq("svc")); err != nil {
		t.Fatal(err)
	}
	res, err := c.Failover("svc")
	if err != nil {
		t.Fatal(err)
	}
	if res.Generation != 1 {
		t.Fatalf("generation = %d, want 1", res.Generation)
	}
	// The old primary host stayed healthy (the operator fenced only the
	// VM), so on a two-host fleet re-protection pairs straight back.
	if !res.Reprotected {
		t.Fatal("not reprotected although the old primary host is healthy")
	}
	st, err := c.VM("svc")
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != string(orchestrator.ModeProtected) || st.Primary.Name != res.NewPrimary {
		t.Fatalf("after forced failover: %+v", st)
	}
	if st.Secondary == nil || st.Secondary.Kind == st.Primary.Kind {
		t.Fatalf("re-protected pair not heterogeneous: %+v", st)
	}

	if err := c.Unprotect("svc"); err != nil {
		t.Fatal(err)
	}
	_, err = c.VM("svc")
	if !IsNotFound(err) {
		t.Fatalf("after delete, want 404, got %v", err)
	}
}

// TestPeriodPatchOverHTTP live-tunes the controller and checks the
// interval respects the new cap.
func TestPeriodPatchOverHTTP(t *testing.T) {
	m, _ := newFleet(t, vclock.NewSim(), "xk")
	_, ts := newTestServer(t, m, nil)
	c := NewClient(ts.URL)

	if _, err := c.Protect(protectReq("svc")); err != nil {
		t.Fatal(err)
	}
	res, err := c.SetPeriod("svc", 0.2, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.PeriodMS > 5000 {
		t.Fatalf("period %dms exceeds new cap", res.PeriodMS)
	}
	st, err := c.VM("svc")
	if err != nil {
		t.Fatal(err)
	}
	if st.Budget != 0.2 || st.MaxPeriod != 5000 {
		t.Fatalf("tuning not visible in status: %+v", st)
	}
}

// TestTraceDownload asserts the JSONL export round-trips.
func TestTraceDownload(t *testing.T) {
	m, _ := newFleet(t, vclock.NewSim(), "xk")
	_, ts := newTestServer(t, m, nil)
	c := NewClient(ts.URL)

	if _, err := c.Protect(protectReq("svc")); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/vms/svc/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content-type = %q", ct)
	}
	data, err := c.Trace("svc")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("empty trace: seeding should have recorded events")
	}
	var ev map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("trace line is not JSON: %v (%q)", err, lines[0])
	}
}

// TestErrorEnvelopes is the table-driven check of the typed
// error→status mapping: every failure renders the structured envelope
// with the documented status and stable code.
func TestErrorEnvelopes(t *testing.T) {
	m, _ := newFleet(t, vclock.NewSim(), "xk")
	_, ts := newTestServer(t, m, nil)
	c := NewClient(ts.URL)
	if _, err := c.Protect(protectReq("dup")); err != nil {
		t.Fatal(err)
	}

	dupBody, _ := json.Marshal(protectReq("dup"))
	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"status unknown vm", http.MethodGet, "/v1/vms/nope", "", http.StatusNotFound, "not-found"},
		{"delete unknown vm", http.MethodDelete, "/v1/vms/nope", "", http.StatusNotFound, "not-found"},
		{"failover unknown vm", http.MethodPost, "/v1/vms/nope/failover", "{}", http.StatusNotFound, "not-found"},
		{"trace unknown vm", http.MethodGet, "/v1/vms/nope/trace", "", http.StatusNotFound, "not-found"},
		{"malformed body", http.MethodPost, "/v1/vms", "{", http.StatusBadRequest, "bad-request"},
		{"unknown field", http.MethodPost, "/v1/vms", `{"bogus":1}`, http.StatusBadRequest, "bad-request"},
		{"missing name", http.MethodPost, "/v1/vms", `{"memory_bytes":1048576,"vcpus":2}`, http.StatusBadRequest, "bad-request"},
		{"zero memory", http.MethodPost, "/v1/vms", `{"name":"z","vcpus":2}`, http.StatusBadRequest, "bad-request"},
		{"unknown workload", http.MethodPost, "/v1/vms", `{"name":"w","memory_bytes":1048576,"vcpus":2,"workload":"forkbomb"}`, http.StatusBadRequest, "bad-request"},
		{"duplicate protect", http.MethodPost, "/v1/vms", string(dupBody), http.StatusConflict, "already-exists"},
		{"bad budget", http.MethodPatch, "/v1/vms/dup/period", `{"degradation_budget":1.5,"max_period_ms":1000}`, http.StatusBadRequest, "bad-period-config"},
		{"negative cap", http.MethodPatch, "/v1/vms/dup/period", `{"degradation_budget":0.3,"max_period_ms":-1}`, http.StatusBadRequest, "bad-request"},
		{"bad events cursor", http.MethodGet, "/v1/events?since=banana", "", http.StatusBadRequest, "bad-request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body *strings.Reader
			if tc.body != "" {
				body = strings.NewReader(tc.body)
			} else {
				body = strings.NewReader("")
			}
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, body)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			var envelope ErrorBody
			if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
				t.Fatalf("response is not the error envelope: %v", err)
			}
			if envelope.Error.Code != tc.wantCode {
				t.Fatalf("code = %q, want %q (message %q)",
					envelope.Error.Code, tc.wantCode, envelope.Error.Message)
			}
			if envelope.Error.Message == "" {
				t.Fatal("empty error message")
			}
		})
	}
}

// TestProtectUnplaceable maps a homogeneous fleet onto 409.
func TestProtectUnplaceable(t *testing.T) {
	m, _ := newFleet(t, vclock.NewSim(), "xx")
	_, ts := newTestServer(t, m, nil)
	_, err := NewClient(ts.URL).Protect(protectReq("svc"))
	var api *APIError
	if !asAPIError(err, &api) || api.StatusCode != http.StatusConflict || api.Code != "unplaceable" {
		t.Fatalf("want 409 unplaceable, got %v", err)
	}
}

func asAPIError(err error, out **APIError) bool {
	api, ok := err.(*APIError)
	if ok {
		*out = api
	}
	return ok
}

// TestAdmissionControl fills the mutating-operation semaphore and
// asserts the next protect is rejected with 429 + Retry-After while
// read endpoints stay available, then succeeds once a slot frees.
func TestAdmissionControl(t *testing.T) {
	m, _ := newFleet(t, vclock.NewSim(), "xk")
	s, ts := newTestServer(t, m, func(c *Config) {
		c.MaxInflightProtect = 2
		c.RetryAfter = 3 * time.Second
	})
	c := NewClient(ts.URL)

	// Occupy every admission slot, as two stuck mutating requests would.
	s.admitSem <- struct{}{}
	s.admitSem <- struct{}{}

	_, err := c.Protect(protectReq("svc"))
	if !IsOverloaded(err) {
		t.Fatalf("want 429, got %v", err)
	}
	resp, err := http.Post(ts.URL+"/v1/vms", "application/json",
		strings.NewReader(`{"name":"svc","memory_bytes":1048576,"vcpus":2}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", ra)
	}

	// Reads are not admission-controlled: status still serves.
	if _, err := c.VMs(); err != nil {
		t.Fatalf("read path blocked by admission: %v", err)
	}

	// Free a slot; the same request is now admitted.
	<-s.admitSem
	if _, err := c.Protect(protectReq("svc")); err != nil {
		t.Fatalf("protect after drain: %v", err)
	}
	<-s.admitSem
}

// TestPumpAndShutdown runs the real-time pump and the graceful
// shutdown: readiness flips 503→200→503, ticks advance only while the
// pump runs, and Shutdown quiesces it.
func TestPumpAndShutdown(t *testing.T) {
	m, _ := newFleet(t, vclock.NewSim(), "xk")
	s, ts := newTestServer(t, m, nil)
	c := NewClient(ts.URL)

	if _, err := c.Readyz(); !isStatus(err, http.StatusServiceUnavailable) {
		t.Fatalf("readyz before pump: want 503, got %v", err)
	}

	s.StartPump()
	s.StartPump() // idempotent
	if h, err := c.Readyz(); err != nil || h.Status != "ready" {
		t.Fatalf("readyz with pump running: %v %+v", err, h)
	}
	if _, err := c.Protect(protectReq("svc")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.Ticks() > 0 }, "pump never ticked")

	h, err := c.Healthz()
	if err != nil || h.Status != "ok" {
		t.Fatalf("healthz: %v %+v", err, h)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if s.Ready() {
		t.Fatal("ready after shutdown")
	}
	frozen := s.Ticks()
	time.Sleep(20 * time.Millisecond)
	if got := s.Ticks(); got != frozen {
		t.Fatalf("pump still running after shutdown: %d -> %d ticks", frozen, got)
	}
}

func isStatus(err error, status int) bool {
	var api *APIError
	return asAPIError(err, &api) && api.StatusCode == status
}

func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal(msg)
}

// TestConfigValidation covers New's checks and defaulting.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil manager accepted")
	}
	m, _ := newFleet(t, vclock.NewSim(), "xk")
	s, err := New(Config{Manager: m})
	if err != nil {
		t.Fatal(err)
	}
	if s.cfg.PumpInterval != DefaultPumpInterval ||
		s.cfg.RequestTimeout != DefaultRequestTimeout ||
		s.cfg.MaxInflightProtect != DefaultMaxInflight ||
		s.cfg.RetryAfter != DefaultRetryAfter {
		t.Fatalf("defaults not applied: %+v", s.cfg)
	}
}
