// Package controlplane is hered's HTTP serving layer: a versioned
// JSON REST API over a fleet.Scheduler, the role OpenStack and libvirt
// play for the paper's deployment (§7.7). The server starts and stops
// the scheduler's per-group pump, which advances the virtual clock in
// real time, and adds what serving requires: admission control on the
// expensive protect path, request-scoped timeouts on every route that
// can wait (all but the two lock-free snapshot reads, GET /v1/vms and
// GET /v1/vms/{name}), typed error envelopes, and a graceful shutdown
// that quiesces the pump before closing listeners.
//
// Built entirely on the standard library (net/http); the wire types in
// this file are shared by the server and the Client herectl uses.
package controlplane

import (
	"time"

	"github.com/here-ft/here/internal/placement"
)

// APIVersion is the path prefix of the versioned API.
const APIVersion = "v1"

// ErrorBody is the structured error envelope every non-2xx response
// carries: {"error": {"code": "...", "message": "..."}}.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail is the typed error inside the envelope. Code is a
// stable machine-readable identifier (see envelope.go for the
// error→code→status mapping); Message is human-readable.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ProtectRequest is the body of POST /v1/vms.
type ProtectRequest struct {
	Name        string `json:"name"`
	MemoryBytes uint64 `json:"memory_bytes"`
	VCPUs       int    `json:"vcpus"`
	// Workload optionally attaches simulated guest activity:
	// "" or "idle", or "membench" (tuned by LoadPercent/Seed).
	Workload    string  `json:"workload,omitempty"`
	LoadPercent float64 `json:"load_percent,omitempty"`
	Seed        int64   `json:"seed,omitempty"`
	// Secondaries requests a replication chain of N replica hosts
	// (default 1). Widths above one need the simulated fleet links.
	Secondaries int `json:"secondaries,omitempty"`
	// Quorum is the number of legs that must acknowledge a checkpoint
	// before the epoch commits; 0 means all live legs.
	Quorum int `json:"quorum,omitempty"`
}

// HostDTO describes one fleet host.
type HostDTO struct {
	Name    string `json:"name"`
	Kind    string `json:"kind"`
	Product string `json:"product"`
	Health  string `json:"health"`
	// Reason is the recorded cause of the current failure state; empty
	// while healthy.
	Reason string `json:"reason,omitempty"`
	VMs    int    `json:"vms"`
}

// RecoveryDTO mirrors replication.RecoveryStats on the wire.
type RecoveryDTO struct {
	Retries         int64 `json:"retries"`
	Rollbacks       int64 `json:"rollbacks"`
	DegradedEntries int64 `json:"degraded_entries"`
	Resyncs         int64 `json:"resyncs"`
	ResyncPages     int64 `json:"resync_pages"`
	ResyncBytes     int64 `json:"resync_bytes"`
	ProtectedMS     int64 `json:"protected_ms"`
	DegradedMS      int64 `json:"degraded_ms"`
	ResyncMS        int64 `json:"resync_ms"`
}

// WireDTO mirrors wire.Stats on the wire (raw vs encoded bytes and
// the measured compression ratio).
type WireDTO struct {
	RawBytes     int64   `json:"raw_bytes"`
	EncodedBytes int64   `json:"encoded_bytes"`
	Ratio        float64 `json:"ratio"`
}

// LegDTO mirrors replication.LegStatus on the wire: the live state of
// one replication-chain leg.
type LegDTO struct {
	Index        int    `json:"index"`
	Host         string `json:"host"`
	Product      string `json:"product"`
	AckedEpoch   uint64 `json:"acked_epoch"`
	PendingPages int    `json:"pending_pages"`
	NeedsSeed    bool   `json:"needs_seed,omitempty"`
	Dead         bool   `json:"dead,omitempty"`
	DeadCause    string `json:"dead_cause,omitempty"`
}

// VMStatus is the protection-status resource served by GET /v1/vms
// and GET /v1/vms/{name}.
type VMStatus struct {
	Name       string   `json:"name"`
	Generation int      `json:"generation"`
	Mode       string   `json:"mode"`
	Running    bool     `json:"running"`
	Epoch      uint64   `json:"epoch"`
	PeriodMS   int64    `json:"period_ms"`
	Budget     float64  `json:"degradation_budget"`
	MaxPeriod  int64    `json:"max_period_ms"`
	Primary    HostDTO  `json:"primary"`
	Secondary  *HostDTO `json:"secondary,omitempty"`
	// Secondaries is the full replica chain in leg order; Want and
	// Quorum are the requested width and effective ack quorum.
	Secondaries []HostDTO `json:"secondaries,omitempty"`
	Want        int       `json:"want,omitempty"`
	Quorum      int       `json:"quorum,omitempty"`
	// Legs is the per-leg replication state (acked epochs, backlogs).
	Legs []LegDTO `json:"legs,omitempty"`
	// Placement is the placement engine's rationale for this
	// protection's current chain: chosen hosts with scores, and every
	// rejected candidate with a typed reason (e.g. shared-cve-surface).
	Placement *placement.Decision `json:"placement,omitempty"`
	// RecoveryPolicy is the in-place recovery ladder in force for this
	// protection; omitted while disabled (every failure fails over).
	RecoveryPolicy *RecoveryPolicyDTO `json:"recovery_policy,omitempty"`

	Checkpoints uint64      `json:"checkpoints"`
	PagesSent   int64       `json:"pages_sent"`
	BytesSent   int64       `json:"bytes_sent"`
	Recovery    RecoveryDTO `json:"recovery"`
	Wire        WireDTO     `json:"wire"`
}

// PlacementPairDTO is one (primary, secondary) entry of the fleet
// score matrix served by GET /v1/placement.
type PlacementPairDTO struct {
	Primary         string  `json:"primary"`
	Secondary       string  `json:"secondary"`
	PrimaryFlavor   string  `json:"primary_flavor"`
	SecondaryFlavor string  `json:"secondary_flavor"`
	Overlap         int     `json:"overlap"`
	Score           float64 `json:"score"`
}

// PlacementMatrix is the collection served by GET /v1/placement: the
// pairwise shared-CVE/load score of every ordered host pair, the raw
// material of the planner's decisions.
type PlacementMatrix struct {
	Pairs []PlacementPairDTO `json:"pairs"`
}

// FailoverRequest is the body of POST /v1/vms/{name}/failover. The
// endpoint always forces activation (the operator has fenced the
// primary out-of-band); the body is currently empty but reserved.
type FailoverRequest struct{}

// FailoverResponse reports a completed forced failover.
type FailoverResponse struct {
	Name           string `json:"name"`
	Generation     int    `json:"generation"`
	ResumeTimeUS   int64  `json:"resume_time_us"`
	PacketsDropped int    `json:"packets_dropped"`
	NewPrimary     string `json:"new_primary"`
	Reprotected    bool   `json:"reprotected"`
}

// PeriodPatch is the body of PATCH /v1/vms/{name}/period: live-tunes
// the dynamic period controller's degradation budget D and interval
// cap T_max.
type PeriodPatch struct {
	Budget      float64 `json:"degradation_budget"`
	MaxPeriodMS int64   `json:"max_period_ms"`
}

// PeriodResponse reports the tuning in effect after a PATCH.
type PeriodResponse struct {
	Name        string  `json:"name"`
	Budget      float64 `json:"degradation_budget"`
	MaxPeriodMS int64   `json:"max_period_ms"`
	PeriodMS    int64   `json:"period_ms"`
}

// RecoveryPolicyDTO mirrors recovery.Policy on the wire: one
// protection's in-place recovery ladder. MaxAttempts 0 disables
// in-place recovery (every failure escalates straight to failover).
type RecoveryPolicyDTO struct {
	DeadlineMS  int64   `json:"deadline_ms"`
	MaxAttempts int     `json:"max_attempts"`
	BackoffMS   int64   `json:"backoff_ms"`
	Jitter      float64 `json:"jitter"`
}

// RecoveryPatch is the body of PATCH /v1/vms/{name}/recovery:
// live-tunes the protection's in-place recovery policy. An all-zero
// body disables in-place recovery.
type RecoveryPatch struct {
	DeadlineMS  int64   `json:"deadline_ms"`
	MaxAttempts int     `json:"max_attempts"`
	BackoffMS   int64   `json:"backoff_ms"`
	Jitter      float64 `json:"jitter"`
}

// RecoveryResponse reports the policy in force after a PATCH.
type RecoveryResponse struct {
	Name    string            `json:"name"`
	Enabled bool              `json:"enabled"`
	Policy  RecoveryPolicyDTO `json:"policy"`
}

// EventDTO is one fleet event.
type EventDTO struct {
	Seq    uint64    `json:"seq"`
	Time   time.Time `json:"time"`
	Kind   string    `json:"kind"`
	VM     string    `json:"vm,omitempty"`
	Detail string    `json:"detail,omitempty"`
}

// EventsResponse is the page served by GET /v1/events?since=N: the
// events with Seq > N plus the cursor to pass next time.
type EventsResponse struct {
	Events []EventDTO `json:"events"`
	// Next is the largest sequence number the server has assigned;
	// pass it as ?since= on the next poll.
	Next uint64 `json:"next"`
}

// TransportPeerDTO describes one network-transport endpoint: a
// replica session on the daemon's peer listener (role "server") or a
// protection's streaming client (role "client"). Mirrors
// transport.PeerStatus on the wire.
type TransportPeerDTO struct {
	Role       string `json:"role"`
	Protection string `json:"protection"`
	State      string `json:"state"`
	RemoteAddr string `json:"remote_addr,omitempty"`
	Generation uint64 `json:"generation"`
	AckedSeq   uint64 `json:"acked_seq"`
	Acked      bool   `json:"acked"`

	Connects    int64 `json:"connects"`
	Disconnects int64 `json:"disconnects"`
	Checkpoints int64 `json:"checkpoints"`
	SeedRounds  int64 `json:"seed_rounds"`
	Bytes       int64 `json:"bytes"`
}

// TransportList is the collection served by GET /v1/transport. Peers
// is empty (not an error) when the fleet replicates over the
// in-process simulated links.
type TransportList struct {
	Peers []TransportPeerDTO `json:"peers"`
}

// VMList is the collection served by GET /v1/vms.
type VMList struct {
	VMs []VMStatus `json:"vms"`
}

// HostList is the collection served by GET /v1/hosts.
type HostList struct {
	Hosts []HostDTO `json:"hosts"`
}

// HealthResponse is served by /healthz and /readyz.
type HealthResponse struct {
	Status string `json:"status"`
	// SimTime is the fleet's virtual-clock instant, advanced by the
	// pump; Ticks counts completed pump rounds.
	SimTime time.Time `json:"sim_time"`
	Ticks   uint64    `json:"ticks"`
}
