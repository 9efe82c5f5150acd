// Package orchestrator manages a fleet of hypervisor hosts the way
// the paper envisions HERE deployed in data centers (§7.7): it places
// protected VMs on heterogeneous host pairs, keeps them replicating,
// watches heartbeats, and on a primary failure automatically activates
// the replica and re-protects it onto a new, again-heterogeneous
// secondary — the control-plane role OpenStack/libvirt would play.
//
// Manager is safe for concurrent use: the control-plane daemon drives
// Tick from a pump goroutine while API handlers call
// Protect/Unprotect/Failover/Status/Events concurrently. A single
// manager mutex covers fleet and per-protection state; every Tick runs
// one full orchestration round under it, so status snapshots never
// observe a protection mid-transition.
package orchestrator

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/here-ft/here/internal/arch"
	"github.com/here-ft/here/internal/failover"
	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/journal"
	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/period"
	"github.com/here-ft/here/internal/placement"
	"github.com/here-ft/here/internal/recovery"
	"github.com/here-ft/here/internal/replication"
	"github.com/here-ft/here/internal/simnet"
	"github.com/here-ft/here/internal/trace"
	"github.com/here-ft/here/internal/translate"
	"github.com/here-ft/here/internal/transport"
	"github.com/here-ft/here/internal/vclock"
	"github.com/here-ft/here/internal/workload"
)

// Errors reported by the orchestrator.
var (
	ErrNoHost          = errors.New("orchestrator: no healthy host available")
	ErrNoHeterogeneous = errors.New("orchestrator: no healthy host of a different hypervisor kind")
	ErrUnknownVM       = errors.New("orchestrator: unknown protected vm")
	ErrServiceLost     = errors.New("orchestrator: both hosts failed; service lost")
	ErrNoReplica       = errors.New("orchestrator: vm has no live replica")
	ErrAlreadyExists   = errors.New("orchestrator: vm already protected")
)

// EventKind classifies fleet events.
type EventKind string

// Fleet events.
const (
	EventProtected     EventKind = "protected"
	EventFailureFound  EventKind = "failure-detected"
	EventFailedOver    EventKind = "failed-over"
	EventReprotected   EventKind = "re-protected"
	EventSecondaryLost EventKind = "secondary-failed"
	EventUnprotected   EventKind = "running-unprotected"
	EventServiceLost   EventKind = "service-lost"
	EventRemoved       EventKind = "removed"
	EventRetuned       EventKind = "period-retuned"
	EventRecovered     EventKind = "recovered"
	// EventMicrorebooted: a failed primary hypervisor was recovered in
	// place (microreboot or un-starve) and the protection resumed
	// degraded with a delta resync — no failover, no generation bump.
	EventMicrorebooted EventKind = "microrebooted"
	// EventRecoveryEscalated: the in-place ladder spent its attempt
	// budget or deadline and the failure escalated to fenced failover.
	EventRecoveryEscalated EventKind = "recovery-escalated"
	// EventRecoveryTuned: an operator retuned the in-place recovery
	// policy via SetRecovery.
	EventRecoveryTuned EventKind = "recovery-retuned"
)

// Event is one fleet-level occurrence. Seq is a monotone sequence
// number (starting at 1) so pollers can cursor the log with
// EventsSince instead of re-reading it.
type Event struct {
	Seq    uint64
	Time   time.Time
	Kind   EventKind
	VM     string
	Detail string
}

// Config parameterizes the orchestrator.
type Config struct {
	// Clock drives the fleet; required, and every added host must
	// share it.
	Clock vclock.Clock
	// Link is the replication interconnect configuration used between
	// host pairs (default: Omni-Path 100).
	Link simnet.LinkConfig
	// DialTransport, when set, replaces the simulated link for every
	// protection with a real network transport: it is invoked once per
	// wiring (protect, re-protect, recover) with the protection's name,
	// replica memory size and the fleet's current fencing generation —
	// hered builds a *transport.Client from its -peer flag here. The
	// returned transport is closed (when it implements io.Closer) on
	// unprotect or re-wiring. Nil keeps the in-process simnet links.
	DialTransport func(vmName string, memBytes, generation uint64) (replication.Transport, error)
	// HeartbeatInterval and HeartbeatTimeout tune failure detection.
	HeartbeatInterval, HeartbeatTimeout time.Duration
	// DegradationBudget and MaxPeriod configure each protection's
	// dynamic period controller (defaults 0.3 / 25 s). Per-protection
	// overrides are applied with SetPeriod.
	DegradationBudget float64
	MaxPeriod         time.Duration
	// Recovery is the default in-place recovery policy applied to every
	// protection (per-protection overrides with SetRecovery): on a
	// detected primary failure the orchestrator first tries to
	// microreboot the hypervisor in place (ReHype-style, guest RAM
	// preserved) under this ladder's budget and deadline, and only
	// escalates to fenced failover when it is spent. The zero value
	// disables in-place recovery — every failure fails over immediately,
	// the paper's baseline behavior.
	Recovery recovery.Policy
	// Metrics, when set, is the registry every protection's
	// replicator, wire codec, heartbeat monitor, tracer and link
	// register their here_* instruments into — the fleet-wide scrape
	// target the control plane exposes on /metrics. Nil leaves each
	// replicator on a private registry.
	Metrics *trace.Registry
	// NoTrace disables the per-protection epoch tracer. A tracer's
	// ring holds trace.DefaultCapacity events: at most 1 MiB, grown in
	// 147-event (9.25 KiB) chunks as it records.
	NoTrace bool
	// Journal, when set, makes the control plane crash-recoverable:
	// every mutating operation appends a write-ahead record before
	// acknowledging, and fleet.Scheduler.Recover rebuilds the fleet's
	// protections from the journaled state after a restart. Nil keeps
	// everything in-memory (library use).
	Journal *journal.Store
	// Guard, when set, is a shared fencing gate: the fleet scheduler
	// hands the same guard to every placement group so activation
	// tokens stay globally monotone across groups. Nil gives the
	// manager a private guard.
	Guard *failover.Guard
	// Events, when set, is a shared event sequencer: every recorded
	// event draws its sequence number here, so the merged per-group
	// logs of a sharded fleet stay globally monotone with no
	// duplicates. Nil gives the manager a private counter.
	Events EventSequencer
	// Owns, when set, filters journal recovery (and guards Protect
	// against misrouting) to the protections this manager's placement
	// group is responsible for. Nil owns every name.
	Owns func(name string) bool
}

// EventSequencer hands out fleet-event sequence numbers. Next draws a
// fresh number; Publish marks that number's event as visible in its
// group's published log (merged readers use it to compute a stable
// frontier); Advance raises the counter to at least seq (restart
// recovery adopting the journaled watermark). Implementations must be
// safe for concurrent use.
type EventSequencer interface {
	Next() uint64
	Publish(seq uint64)
	Advance(seq uint64)
}

// localSequencer is the single-manager default: a plain counter whose
// events are visible the instant they are appended, so Publish has
// nothing to track.
type localSequencer struct {
	mu sync.Mutex
	n  uint64
}

func (s *localSequencer) Next() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	return s.n
}

func (s *localSequencer) Publish(uint64) {}

func (s *localSequencer) Advance(seq uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq > s.n {
		s.n = seq
	}
}

// WorkloadSpec is the journalable description of a guest workload —
// what ProtectRequest carries over the API, and what the journal can
// rebuild after a restart (an opaque Workload closure cannot be
// re-created from disk).
type WorkloadSpec struct {
	// Name selects the workload: "" or "idle" for none, "membench"
	// for the memory-write benchmark.
	Name string
	// LoadPercent is membench's write intensity (default 30).
	LoadPercent float64
	// Seed is membench's RNG seed (default 1).
	Seed int64
}

// Build materializes the described workload.
func (w WorkloadSpec) Build() (workload.Workload, error) {
	switch w.Name {
	case "", "idle":
		return nil, nil
	case "membench":
		load := w.LoadPercent
		if load == 0 {
			load = 30
		}
		seed := w.Seed
		if seed == 0 {
			seed = 1
		}
		return workload.NewMemoryBench(load, 100_000, seed)
	default:
		return nil, fmt.Errorf("orchestrator: unknown workload %q (want idle or membench)", w.Name)
	}
}

// VMSpec describes a VM to protect.
type VMSpec struct {
	Name        string
	MemoryBytes uint64
	VCPUs       int
	// Secondaries is the requested replication chain width: the number
	// of replica hosts the VM checkpoints to (paper §8.2 generalized to
	// 1-primary + N-secondary). Zero means one. Widths above one require
	// the in-process simulated links (a dialed network transport
	// replicates pairwise).
	Secondaries int
	// Quorum is the number of chain legs that must acknowledge a
	// checkpoint before the epoch commits (guest outputs release). Zero
	// means all live legs — the strictest, zero-data-loss-on-any-single
	// failure setting. Lower values trade failover freshness on the slow
	// legs for checkpoint latency.
	Quorum int
	// Workload is an opaque in-process workload; it takes precedence
	// over WorkloadSpec but cannot be journaled — after a crash-restart
	// the VM recreates as an idle guest. Prefer WorkloadSpec where
	// restart-resume matters.
	Workload workload.Workload
	// WorkloadSpec is the journalable workload description; used when
	// Workload is nil, and recorded in the write-ahead journal so a
	// restarted daemon rebuilds the same guest activity.
	WorkloadSpec WorkloadSpec
}

// Protection is one VM under orchestration. Exported accessors take
// the owning manager's lock; the Generation field is only written
// while that lock is held (read it via Status under concurrency).
type Protection struct {
	Name       string
	Generation int // bumped at every failover

	m       *Manager
	vm      *hypervisor.VM
	rep     *replication.Replicator
	mon     *failover.Monitor
	pm      *period.Manager
	tr      *trace.Tracer
	primary hypervisor.Hypervisor
	// secondaries is the replica chain in leg order (empty while
	// unprotected); leg 0 is "the secondary" of a pairwise protection.
	secondaries []*hypervisor.Host
	// want is the requested chain width; the orchestrator re-plans
	// toward it after leg losses. quorum is the configured ack quorum.
	want   int
	quorum int
	// decision is the placement rationale of the most recent plan for
	// this protection (zero before any planner involvement).
	decision placement.Decision
	wl       workload.Workload
	wlSpec   WorkloadSpec
	budget   float64
	tmax     time.Duration
	// recoveryPol is the in-place recovery ladder in force for this
	// protection (zero = disabled: every failure escalates to failover).
	recoveryPol recovery.Policy
	lost        bool
	acked       uint64 // last checkpoint epoch journaled + deposited
	// transport carries this protection's checkpoints: the shared
	// simnet link, or a dedicated real network client when the manager
	// was configured with DialTransport.
	transport replication.Transport
}

// VM returns the currently active VM of the protection.
func (p *Protection) VM() *hypervisor.VM {
	p.m.mu.Lock()
	defer p.m.mu.Unlock()
	return p.vm
}

// Primary returns the host currently running the VM.
func (p *Protection) Primary() hypervisor.Hypervisor {
	p.m.mu.Lock()
	defer p.m.mu.Unlock()
	return p.primary
}

// Secondary returns the host holding the leg-0 replica (nil while
// running unprotected).
func (p *Protection) Secondary() hypervisor.Hypervisor {
	p.m.mu.Lock()
	defer p.m.mu.Unlock()
	if len(p.secondaries) == 0 {
		return nil
	}
	return p.secondaries[0]
}

// Secondaries returns every replica host of the chain in leg order
// (empty while running unprotected).
func (p *Protection) Secondaries() []hypervisor.Hypervisor {
	p.m.mu.Lock()
	defer p.m.mu.Unlock()
	out := make([]hypervisor.Hypervisor, len(p.secondaries))
	for i, h := range p.secondaries {
		out[i] = h
	}
	return out
}

// Lost reports whether the service was lost (no host left to run it).
func (p *Protection) Lost() bool {
	p.m.mu.Lock()
	defer p.m.mu.Unlock()
	return p.lost
}

// Tracer returns the protection's epoch tracer (nil with
// Config.NoTrace). The tracer survives failovers, so one trace covers
// every generation of the protection.
func (p *Protection) Tracer() *trace.Tracer {
	p.m.mu.Lock()
	defer p.m.mu.Unlock()
	return p.tr
}

// newTracer builds one protection's epoch tracer, counted into the
// manager's registry; nil with Config.NoTrace.
func (m *Manager) newTracer() *trace.Tracer {
	if m.cfg.NoTrace {
		return nil
	}
	tr := trace.New(m.cfg.Clock, 0)
	tr.Instrument(m.cfg.Metrics)
	return tr
}

// Mode names the externally visible protection mode of a VM.
type Mode string

// Protection modes surfaced by Status.
const (
	// ModeProtected: checkpoints flow to a live heterogeneous replica.
	ModeProtected Mode = "protected"
	// ModeDegraded: the replication path is riding out an outage.
	ModeDegraded Mode = "degraded"
	// ModeResyncing: a delta resync is restoring protection.
	ModeResyncing Mode = "resyncing"
	// ModeUnprotected: the VM runs with no replica (no heterogeneous
	// host available); the orchestrator keeps trying to re-pair.
	ModeUnprotected Mode = "unprotected"
	// ModeLost: both hosts failed; the service is gone.
	ModeLost Mode = "lost"
)

// HostInfo is a point-in-time description of one fleet host.
type HostInfo struct {
	Name    string
	Kind    string
	Product string
	Health  string
	// Reason is the operator-facing cause of the current failure state
	// ("" while healthy) — what Host.Fail recorded.
	Reason string
	VMs    int
}

// Status is a consistent point-in-time snapshot of one protection,
// taken under the manager lock — the unit the control-plane API
// serves.
type Status struct {
	Name       string
	Generation int
	Mode       Mode
	Running    bool
	Primary    HostInfo
	Secondary  *HostInfo // nil while unprotected; leg 0 of the chain
	// Secondaries lists every replica host of the chain in leg order.
	Secondaries []HostInfo
	// Want and Quorum are the protection's requested chain width and
	// effective acknowledgement quorum.
	Want   int
	Quorum int
	// Legs is the live per-leg replication state (acked epochs, dirty
	// backlogs, seeding/dead flags).
	Legs []replication.LegStatus
	// Placement is the rationale of the most recent placement plan for
	// this protection — what was chosen and which candidates were
	// rejected, with typed reasons. Nil when no plan was computed (e.g.
	// restored unprotected from the journal).
	Placement *placement.Decision
	// Epoch is the replication checkpoint count of the current
	// generation (the acknowledged-epoch cursor).
	Epoch uint64
	// Period is the current checkpoint interval; Budget/MaxPeriod are
	// the dynamic controller's live tuning.
	Period    time.Duration
	Budget    float64
	MaxPeriod time.Duration
	Recovery  replication.RecoveryStats
	// RecoveryPolicy is the in-place recovery ladder in force for this
	// protection (zero = disabled; see Config.Recovery / SetRecovery).
	RecoveryPolicy recovery.Policy
	Totals         replication.Totals
}

// Manager orchestrates a host fleet. It is safe for concurrent use.
type Manager struct {
	cfg Config

	// guard is the daemon-wide fencing gate every activation goes
	// through; recovery advances it past the journaled fence so tokens
	// minted before a crash can never activate after the restart.
	guard *failover.Guard

	// crashHook, when set (tests only), is called at every boundary of
	// a journal append or host side effect; a non-nil return aborts the
	// operation there, simulating the process dying at that step.
	crashHook func(boundary) error

	// planner scores replica placements by shared-CVE overlap and host
	// load (internal/placement); built at construction.
	planner *placement.Engine

	// here_recovery_* instruments of the in-place recovery subsystem;
	// nil without a metrics registry (trace.Counter increments are
	// nil-safe, so the ladder needs no guards).
	recAttempts  *trace.Counter
	recInPlace   *trace.Counter
	recEscalated *trace.Counter

	// here_reprotect_*: re-protect seeds by kind (warmCopy), the pages of
	// their first pass and those of their later rounds.
	seedsWarm, seedsCold, seedPages, seedLater *trace.Counter

	mu      sync.Mutex
	hosts   []*hypervisor.Host
	links   map[string]*simnet.Link // "hostA->hostB"
	prots   map[string]*Protection
	peerSrv *transport.Server // secondary-side listener, when attached
	events  []Event

	// seq issues event sequence numbers (shared across groups in a
	// sharded fleet); lastSeq is the newest number this manager drew —
	// the watermark journal records are stamped with.
	seq     EventSequencer
	lastSeq atomic.Uint64

	// eventsPub is the lock-free published view of the event log: a
	// copy of the slice header stored after every append. Appends only
	// ever write indices at or beyond a published header's length, so
	// readers iterate their header without taking m.mu — even while a
	// Tick round holds the lock through a checkpoint.
	eventsPub atomic.Pointer[[]Event]

	// statusPub is the RCU-style copy-on-write fleet snapshot: every
	// mutating operation republishes it before releasing m.mu, and
	// Status/StatusAll/HostsStatus serve reads from it lock-free.
	statusPub atomic.Pointer[statusSnap]
}

// New returns an empty fleet manager.
func New(cfg Config) (*Manager, error) {
	if cfg.Clock == nil {
		return nil, errors.New("orchestrator: nil clock")
	}
	if cfg.Link.BytesPerSec == 0 {
		cfg.Link = simnet.OmniPath100()
	}
	if cfg.DegradationBudget == 0 {
		cfg.DegradationBudget = 0.3
	}
	if cfg.MaxPeriod == 0 {
		cfg.MaxPeriod = 25 * time.Second
	}
	if err := cfg.Recovery.Validate(); err != nil {
		return nil, err
	}
	if err := (period.Config{D: cfg.DegradationBudget}).Validate(); err != nil {
		return nil, fmt.Errorf("orchestrator: degradation budget: %w", err)
	}
	guard := cfg.Guard
	if guard == nil {
		guard = failover.NewGuard(0)
	}
	seq := cfg.Events
	if seq == nil {
		seq = &localSequencer{}
	}
	m := &Manager{
		cfg:     cfg,
		guard:   guard,
		seq:     seq,
		planner: placement.New(placement.Config{Metrics: cfg.Metrics}),
		links:   make(map[string]*simnet.Link),
		prots:   make(map[string]*Protection),
	}
	if cfg.Metrics != nil {
		m.recAttempts = cfg.Metrics.Counter("here_recovery_attempts_total",
			"in-place recovery attempts (microreboot or un-starve)")
		m.recInPlace = cfg.Metrics.Counter("here_recovery_inplace_total",
			"primary failures recovered in place without a failover")
		m.recEscalated = cfg.Metrics.Counter("here_recovery_escalations_total",
			"in-place recovery ladders that escalated to fenced failover")
		const seedsHelp = "re-protect seeds, by kind: warm converged a fenced primary's copy, cold filled an empty replica"
		m.seedsWarm = cfg.Metrics.Counter(trace.Labeled("here_reprotect_seeds_total", "seed", "warm"), seedsHelp)
		m.seedsCold = cfg.Metrics.Counter(trace.Labeled("here_reprotect_seeds_total", "seed", "cold"), seedsHelp)
		m.seedPages = cfg.Metrics.Counter("here_reprotect_seed_pages_total",
			"distinct pages re-protect seeds shipped in their first pass")
		m.seedLater = cfg.Metrics.Counter("here_reprotect_seed_later_pages_total",
			"pages re-protect seeds shipped again, or first, in later pre-copy rounds and the stop-and-copy")
	}
	m.publishAll()
	return m, nil
}

// owns reports whether this manager's placement group is responsible
// for the named protection.
func (m *Manager) owns(name string) bool {
	return m.cfg.Owns == nil || m.cfg.Owns(name)
}

// PlacementMatrix snapshots the pairwise placement scores of the
// current fleet — every (primary, secondary) host pair with its CVE
// overlap, load and combined score. It reads the published host list,
// so it never blocks behind a ticking group.
func (m *Manager) PlacementMatrix() []placement.MatrixEntry {
	snap := m.statusPub.Load()
	return m.planner.ScoreMatrix(snap.hosts)
}

// Guard exposes the fencing gate (for tests asserting fencing
// invariants; activation paths use it internally).
func (m *Manager) Guard() *failover.Guard { return m.guard }

// boundary is one place the test-only crash hook can stop a mutating
// operation: before or after a journal write or a host side effect.
type boundary struct {
	// op is "append" (durable), "write" (not waited for), "sync",
	// "activate", "microreboot", "destroy", "deposit" or "drop".
	op    string
	kind  journal.RecordKind // the record an append or write logs
	after bool
}

// step runs do, one journal write or host side effect, between its two
// crash-hook boundaries. Caller holds m.mu.
func (m *Manager) step(op string, kind journal.RecordKind, do func() error) error {
	if m.crashHook != nil {
		if err := m.crashHook(boundary{op: op, kind: kind}); err != nil {
			return err
		}
	}
	if err := do(); err != nil {
		return err
	}
	if m.crashHook != nil {
		return m.crashHook(boundary{op: op, kind: kind, after: true})
	}
	return nil
}

// journalAppend durably logs one control-plane mutation, stamped with
// the current event sequence. A nil journal makes it a no-op. Caller
// holds m.mu.
func (m *Manager) journalAppend(rec journal.Record) error {
	return m.journalWrite(rec, true)
}

// journalWrite is journalAppend that, with wait false, returns once the
// record is written, before it is durable: a later append or a sync
// covers it. Caller holds m.mu.
func (m *Manager) journalWrite(rec journal.Record, wait bool) error {
	j := m.cfg.Journal
	if j == nil {
		return nil
	}
	rec.EventSeq = m.lastSeq.Load()
	op, write := "append", j.Append
	if !wait {
		op, write = "write", j.AppendNoWait
	}
	return m.step(op, rec.Kind, func() error { return write(rec) })
}

// journalSync writes recs un-waited, then syncs once: a durable point of
// the failure path, which holds m.mu and so has no batch to wait for.
func (m *Manager) journalSync(recs ...journal.Record) error {
	for _, rec := range recs {
		if err := m.journalWrite(rec, false); err != nil {
			return err
		}
	}
	if j := m.cfg.Journal; j != nil {
		return m.step("sync", "", j.Sync)
	}
	return nil
}

// chainRecord records secs, leg order, as the replica chain of the
// protection name.
func chainRecord(name string, secs []*hypervisor.Host) journal.Record {
	return journal.Record{Kind: journal.RecReprotect, VM: name, Secondaries: secondaryNames(secs)}
}

// destroyVM destroys a VM copy on h. Caller holds m.mu.
func (m *Manager) destroyVM(h *hypervisor.Host, name string) error {
	return m.step("destroy", "", func() error { return h.DestroyVM(name) })
}

// dropReplica drops the replica deposit h holds for name. A crash here
// surfaces at the caller's next journal write. Caller holds m.mu.
func (m *Manager) dropReplica(h *hypervisor.Host, name string) {
	_ = m.step("drop", "", func() error {
		h.DropReplica(name)
		return nil
	})
}

// hostByName finds a registered host. Caller holds m.mu.
func (m *Manager) hostByName(name string) *hypervisor.Host {
	for _, h := range m.hosts {
		if h.HostName() == name {
			return h
		}
	}
	return nil
}

// AddHost registers a host with the fleet.
func (m *Manager) AddHost(h *hypervisor.Host) error {
	if h == nil {
		return errors.New("orchestrator: nil host")
	}
	if h.Clock() != m.cfg.Clock {
		return fmt.Errorf("orchestrator: host %q runs on a different clock", h.HostName())
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, existing := range m.hosts {
		if existing.HostName() == h.HostName() {
			return fmt.Errorf("orchestrator: host %q already registered", h.HostName())
		}
	}
	m.hosts = append(m.hosts, h)
	m.publishAll()
	return nil
}

// Hosts lists registered host names, sorted.
func (m *Manager) Hosts() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.hosts))
	for _, h := range m.hosts {
		names = append(names, h.HostName())
	}
	sort.Strings(names)
	return names
}

// HostsStatus snapshots every registered host, sorted by name.
// Lock-free: the host list comes from the published snapshot and each
// host's health/VM count is read live through the host's own (short)
// mutex — never the manager lock.
func (m *Manager) HostsStatus() []HostInfo {
	snap := m.statusPub.Load()
	infos := make([]HostInfo, 0, len(snap.hosts))
	for _, h := range snap.hosts {
		infos = append(infos, hostInfo(h))
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

func hostInfo(h hypervisor.Hypervisor) HostInfo {
	info := HostInfo{
		Name:    h.HostName(),
		Kind:    string(h.Kind()),
		Product: h.Product(),
		Health:  h.Health().String(),
		Reason:  h.FailureReason(),
	}
	if host, ok := h.(*hypervisor.Host); ok {
		info.VMs = host.VMCount()
	}
	return info
}

// mapPlanErr translates the placement engine's typed errors into the
// orchestrator's public ones, preserving the engine detail.
func mapPlanErr(err error) error {
	switch {
	case errors.Is(err, placement.ErrNoPrimary):
		return fmt.Errorf("%w (%v)", ErrNoHost, err)
	case errors.Is(err, placement.ErrNoSecondary):
		return fmt.Errorf("%w (%v)", ErrNoHeterogeneous, err)
	}
	return err
}

// secondaryNames flattens a chain's hosts to their names, leg order.
func secondaryNames(secs []*hypervisor.Host) []string {
	out := make([]string, len(secs))
	for i, h := range secs {
		out[i] = h.HostName()
	}
	return out
}

// chainDetail renders a chain for event logs: "k1 (QEMU-KVM 7.2)" or
// "k1 (QEMU-KVM 7.2) + c2 (cloud-hypervisor 34)".
func chainDetail(secs []*hypervisor.Host) string {
	parts := make([]string, len(secs))
	for i, s := range secs {
		parts[i] = fmt.Sprintf("%s (%s)", s.HostName(), s.Product())
	}
	return strings.Join(parts, " + ")
}

// linkBetween returns (creating on first use) the replication link for
// a host pair. Caller holds m.mu.
func (m *Manager) linkBetween(a, b hypervisor.Hypervisor) (*simnet.Link, error) {
	key := a.HostName() + "->" + b.HostName()
	if l, ok := m.links[key]; ok {
		return l, nil
	}
	l, err := simnet.NewLink(m.cfg.Link, m.cfg.Clock)
	if err != nil {
		return nil, err
	}
	if m.cfg.Metrics != nil {
		l.Instrument(m.cfg.Metrics)
	}
	m.links[key] = l
	return l, nil
}

// record appends an event: draw a sequence number, append under the
// lock, atomically publish the new slice header, then tell the
// sequencer the number is visible. Caller holds m.mu.
func (m *Manager) record(kind EventKind, vm, detail string) {
	seq := m.seq.Next()
	m.lastSeq.Store(seq)
	m.events = append(m.events, Event{
		Seq: seq, Time: m.cfg.Clock.Now(), Kind: kind, VM: vm, Detail: detail,
	})
	view := m.events
	m.eventsPub.Store(&view)
	m.seq.Publish(seq)
}

// eventsView loads the published event log. Readers may iterate it
// freely: appends never write below a published header's length.
func (m *Manager) eventsView() []Event {
	if v := m.eventsPub.Load(); v != nil {
		return *v
	}
	return nil
}

// Events returns a copy of the fleet event log. Lock-free.
func (m *Manager) Events() []Event {
	return append([]Event(nil), m.eventsView()...)
}

// EventsSince returns the events with Seq > seq — the polling cursor:
// pass the largest Seq already seen (0 for everything) and only the
// new tail is copied. Lock-free: the tail is found by binary search
// over the published log (per-manager seqs are strictly increasing
// even when a shared sequencer interleaves groups).
func (m *Manager) EventsSince(seq uint64) []Event {
	evs := m.eventsView()
	i := sort.Search(len(evs), func(i int) bool { return evs[i].Seq > seq })
	if i == len(evs) {
		return nil
	}
	return append([]Event(nil), evs[i:]...)
}

// Protect boots spec on the planner's primary, pairs it with
// Secondaries replica hosts chosen to minimize shared-CVE exposure
// (heterogeneity is a hard gate: a replica never lands on the
// primary's hypervisor flavor), seeds replication and registers the
// protection.
func (m *Manager) Protect(spec VMSpec) (*Protection, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if spec.Name == "" {
		return nil, errors.New("orchestrator: empty vm name")
	}
	if _, ok := m.prots[spec.Name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrAlreadyExists, spec.Name)
	}
	if !m.owns(spec.Name) {
		return nil, fmt.Errorf("orchestrator: vm %q is not owned by this placement group", spec.Name)
	}
	want := spec.Secondaries
	if want <= 0 {
		want = 1
	}
	if m.cfg.DialTransport != nil && want > 1 {
		return nil, fmt.Errorf("orchestrator: a dialed network transport replicates to a single secondary (requested %d)", want)
	}
	wl := spec.Workload
	if wl == nil {
		built, err := spec.WorkloadSpec.Build()
		if err != nil {
			return nil, err
		}
		wl = built
	}
	asn, err := m.planner.Plan(placement.Spec{
		Name: spec.Name, Secondaries: want,
	}, m.hosts)
	if err != nil {
		return nil, mapPlanErr(err)
	}
	primary := asn.Primary
	vm, err := createVM(spec.Name, spec.MemoryBytes, spec.VCPUs, primary, asn.Secondaries)
	if err != nil {
		return nil, err
	}
	prot := &Protection{
		Name:        spec.Name,
		m:           m,
		vm:          vm,
		wl:          wl,
		wlSpec:      spec.WorkloadSpec,
		want:        want,
		quorum:      spec.Quorum,
		decision:    asn.Decision,
		budget:      m.cfg.DegradationBudget,
		tmax:        m.cfg.MaxPeriod,
		recoveryPol: m.cfg.Recovery,
	}
	prot.tr = m.newTracer()
	if _, err := m.wire(prot, primary, asn.Secondaries, nil, nil); err != nil {
		_ = m.destroyVM(primary, spec.Name)
		return nil, err
	}
	m.prots[spec.Name] = prot
	m.publishUpsert(prot)
	m.record(EventProtected, spec.Name,
		fmt.Sprintf("%s (%s) -> %s", primary.HostName(), primary.Product(),
			chainDetail(asn.Secondaries)))
	if err := m.journalAppend(journal.Record{
		Kind: journal.RecProtect, VM: spec.Name,
		Spec: &journal.ProtectionSpec{
			Name:        spec.Name,
			MemoryBytes: spec.MemoryBytes,
			VCPUs:       spec.VCPUs,
			Workload:    spec.WorkloadSpec.Name,
			LoadPercent: spec.WorkloadSpec.LoadPercent,
			Seed:        spec.WorkloadSpec.Seed,
			Secondaries: want,
			Quorum:      spec.Quorum,
		},
		Primary:     primary.HostName(),
		Secondaries: secondaryNames(asn.Secondaries),
		VMName:      spec.Name,
		Budget:      prot.budget,
		MaxPeriodMS: prot.tmax.Milliseconds(),
	}); err != nil {
		return nil, err
	}
	return prot, nil
}

// createVM boots a protection's guest on primary with the CPU features
// every host of its chain supports, so it can resume on any replica.
func createVM(name string, memBytes uint64, vcpus int, primary *hypervisor.Host, secondaries []*hypervisor.Host) (*hypervisor.VM, error) {
	chain := []hypervisor.Hypervisor{primary}
	for _, s := range secondaries {
		chain = append(chain, s)
	}
	return primary.CreateVM(hypervisor.VMConfig{
		Name:     name,
		MemBytes: memBytes,
		VCPUs:    vcpus,
		Features: translate.CompatibleFeaturesAll(chain...),
		Devices: []hypervisor.DeviceSpec{
			{Class: arch.DeviceNet, ID: "net0", MAC: "52:54:00:48:45:52"},
			{Class: arch.DeviceConsole, ID: "con0"},
		},
	})
}

// wire builds the replication chain and monitor for prot onto the
// given secondaries (leg order). With resume nil every replica is
// seeded by a full migration — except a leg on warm's host, whose
// replica memory is warm's copy and whose seed ships only what that copy
// lacks; with a resume state (replica memory + last acked image
// surviving on a secondary) the replicator re-attaches that single leg
// in degraded mode and the first healthy cycle ships only a delta
// resync. Returns the pages the seed shipped after its first pass.
// Caller holds m.mu.
func (m *Manager) wire(prot *Protection, primary *hypervisor.Host, secondaries []*hypervisor.Host, resume *replication.ResumeState, warm *warmCopy) (later int64, err error) {
	if len(secondaries) == 0 {
		return 0, fmt.Errorf("%w: nothing to wire", ErrNoHeterogeneous)
	}
	legs := make([]replication.Secondary, 0, len(secondaries))
	var dialed replication.Transport
	defer func() {
		// A wiring error releases a freshly dialed transport.
		if c, ok := dialed.(io.Closer); ok && err != nil {
			_ = c.Close()
		}
	}()
	if m.cfg.DialTransport != nil {
		if len(secondaries) > 1 {
			return 0, fmt.Errorf("orchestrator: a dialed network transport replicates to a single secondary, got %d", len(secondaries))
		}
		// A re-wiring replaces the protection's dedicated client; close
		// the old one so its reconnect loop stops.
		closeTransport(prot)
		t, err := m.cfg.DialTransport(prot.Name, prot.vm.Memory().SizeBytes(), m.guard.Generation())
		if err != nil {
			return 0, fmt.Errorf("orchestrator: dial transport: %w", err)
		}
		dialed = t
		legs = append(legs, replication.Secondary{Host: secondaries[0], Transport: t})
	} else {
		for _, s := range secondaries {
			link, err := m.linkBetween(primary, s)
			if err != nil {
				return 0, err
			}
			legs = append(legs, replication.Secondary{Host: s, Transport: link})
		}
	}
	for i, s := range secondaries {
		if warm != nil && s == warm.host {
			legs[i].Warm, legs[i].Drift = warm.mem, warm.drift
		}
	}
	pm, err := period.New(period.Config{D: prot.budget, Tmax: prot.tmax})
	if err != nil {
		return 0, err
	}
	rep, err := replication.NewChain(prot.vm, legs, replication.Config{
		Engine:        replication.EngineHERE,
		PeriodManager: pm,
		Workload:      prot.wl,
		Tracer:        prot.tr,
		Metrics:       m.cfg.Metrics,
		Resume:        resume,
		Quorum:        prot.quorum,
		// A dialed network path can drop and come back; ride outages
		// out in degraded mode and let the reconnect-resync ladder
		// restore protection. In-process links keep strict semantics.
		DegradedMode: m.cfg.DialTransport != nil,
	})
	if err != nil {
		return 0, err
	}
	if resume == nil {
		res, err := rep.Seed()
		if err != nil {
			return 0, err
		}
		later = res.LaterPages
	}
	mon, err := failover.NewMonitorConfig(primary, failover.Config{
		Interval: m.cfg.HeartbeatInterval,
		Timeout:  m.cfg.HeartbeatTimeout,
		Tracer:   prot.tr,
		Metrics:  m.cfg.Metrics,
	})
	if err != nil {
		return 0, err
	}
	prot.rep = rep
	prot.mon = mon
	prot.pm = pm
	prot.primary = primary
	prot.secondaries = append([]*hypervisor.Host(nil), secondaries...)
	prot.transport = dialed
	prot.acked = rep.Totals().Checkpoints
	// Park the replica-side session state on every secondary host so a
	// restarted control plane can resume with a delta resync instead of
	// a full re-seed; refreshed after every acknowledged checkpoint.
	m.depositReplica(prot)
	return later, nil
}

// closeTransport tears down a protection's dedicated network client,
// if it has one. Shared simnet links are never closed (they carry
// other protections too — and implement no Closer anyway).
func closeTransport(p *Protection) {
	if c, ok := p.transport.(io.Closer); ok {
		_ = c.Close()
	}
	p.transport = nil
}

// AttachPeerServer registers the daemon's secondary-side transport
// listener (hered -peer-listen) so its replica sessions appear in
// TransportStatus alongside the protections' clients.
func (m *Manager) AttachPeerServer(s *transport.Server) {
	m.mu.Lock()
	m.peerSrv = s
	m.mu.Unlock()
}

// statusReporter is satisfied by *transport.Client.
type statusReporter interface {
	Status() transport.PeerStatus
}

// TransportStatus snapshots every network-transport endpoint this
// daemon owns: the peer server's replica sessions (secondary side)
// plus each protection's client (primary side). Empty when the fleet
// replicates over the in-process simulated links.
func (m *Manager) TransportStatus() []transport.PeerStatus {
	m.mu.Lock()
	srv := m.peerSrv
	clients := make([]statusReporter, 0, len(m.prots))
	for _, name := range slices.Sorted(maps.Keys(m.prots)) {
		if r, ok := m.prots[name].transport.(statusReporter); ok {
			clients = append(clients, r)
		}
	}
	m.mu.Unlock()

	var out []transport.PeerStatus
	if srv != nil {
		out = append(out, srv.Status()...)
	}
	for _, c := range clients {
		out = append(out, c.Status())
	}
	return out
}

// depositReplica parks prot's per-leg replica handoff state on each
// replica host. Legs still waiting for their in-checkpoint seed are
// skipped (they have no consistent state to park yet). Caller holds
// m.mu.
func (m *Manager) depositReplica(p *Protection) {
	if p.rep == nil {
		return
	}
	for i := 0; i < p.rep.NumLegs(); i++ {
		lh, err := p.rep.LegHost(i)
		if err != nil {
			continue
		}
		host, ok := lh.(*hypervisor.Host)
		if !ok {
			continue
		}
		h, err := p.rep.HandoffAt(i)
		if err != nil {
			continue
		}
		_ = m.step("deposit", "", func() error {
			return host.DepositReplica(p.Name, hypervisor.ReplicaDeposit{
				Mem: h.Mem, Image: h.Image, Epoch: h.Seq,
			})
		})
	}
}

// Lookup returns a protection by VM name.
func (m *Manager) Lookup(name string) (*Protection, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lookupLocked(name)
}

func (m *Manager) lookupLocked(name string) (*Protection, error) {
	p, ok := m.prots[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownVM, name)
	}
	return p, nil
}

// Protections lists protected VM names, sorted.
func (m *Manager) Protections() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return slices.Sorted(maps.Keys(m.prots))
}

// protSnap is one protection's entry in the published fleet snapshot:
// the Status fields materialized at publication time, plus the live
// handles (VM, hosts) whose health is resolved at read time — a host
// can crash while a group's tick holds the lock, and reads must see it
// immediately, not the health at last publication.
type protSnap struct {
	st          Status // host info and Running left unfilled
	vm          *hypervisor.VM
	primary     hypervisor.Hypervisor
	secondaries []hypervisor.Hypervisor
	transport   statusReporter // nil unless a dialed network client
}

// statusSnap is the RCU-published fleet view: mutators build a new one
// (sharing unchanged protSnap entries) and store it atomically before
// releasing m.mu; readers load and walk it without any lock.
type statusSnap struct {
	prots []*protSnap        // sorted by name
	hosts []*hypervisor.Host // registration order
}

// find binary-searches the sorted snapshot (no map: keeping the
// structure a plain slice makes single-entry republication a memcpy).
func (s *statusSnap) find(name string) *protSnap {
	i := sort.Search(len(s.prots), func(i int) bool { return s.prots[i].st.Name >= name })
	if i < len(s.prots) && s.prots[i].st.Name == name {
		return s.prots[i]
	}
	return nil
}

// materialize completes a snapshot row with the live host and VM
// views. Host handles use their own short mutexes; the manager lock is
// never touched.
func (ps *protSnap) materialize() Status {
	st := ps.st
	if ps.vm != nil {
		st.Running = ps.vm.Running()
	}
	if ps.primary != nil {
		st.Primary = hostInfo(ps.primary)
	}
	for _, s := range ps.secondaries {
		st.Secondaries = append(st.Secondaries, hostInfo(s))
	}
	if len(st.Secondaries) > 0 {
		leg0 := st.Secondaries[0]
		st.Secondary = &leg0
	}
	return st
}

// snapLocked captures one protection's snapshot entry. Caller holds
// m.mu.
func (m *Manager) snapLocked(p *Protection) *protSnap {
	ps := &protSnap{vm: p.vm, primary: p.primary}
	for _, s := range p.secondaries {
		ps.secondaries = append(ps.secondaries, s)
	}
	if r, ok := p.transport.(statusReporter); ok {
		ps.transport = r
	}
	st := Status{
		Name:           p.Name,
		Generation:     p.Generation,
		Budget:         p.budget,
		MaxPeriod:      p.tmax,
		RecoveryPolicy: p.recoveryPol,
	}
	st.Want = p.want
	if p.rep != nil {
		st.Legs = p.rep.Legs()
		st.Quorum = p.rep.Quorum()
	}
	if p.decision.Primary.Host != "" {
		d := p.decision
		st.Placement = &d
	}
	switch {
	case p.lost:
		st.Mode = ModeLost
	case p.rep == nil:
		st.Mode = ModeUnprotected
	default:
		switch p.rep.State() {
		case replication.StateDegraded:
			st.Mode = ModeDegraded
		case replication.StateResyncing:
			st.Mode = ModeResyncing
		default:
			st.Mode = ModeProtected
		}
	}
	if p.rep != nil {
		st.Period = p.rep.Period()
		st.Recovery = p.rep.Recovery()
		st.Totals = p.rep.Totals()
		st.Epoch = st.Totals.Checkpoints
	} else if p.pm != nil {
		st.Period = p.pm.Period()
	}
	ps.st = st
	return ps
}

// publishAll rebuilds and publishes the whole fleet snapshot. Caller
// holds m.mu. O(protections) — used by whole-fleet mutators (Tick,
// AddHost, recovery); single-protection mutators use publishUpsert /
// publishRemove, which share every unchanged entry.
func (m *Manager) publishAll() {
	names := slices.Sorted(maps.Keys(m.prots))
	snap := &statusSnap{
		prots: make([]*protSnap, 0, len(names)),
		hosts: append([]*hypervisor.Host(nil), m.hosts...),
	}
	for _, n := range names {
		snap.prots = append(snap.prots, m.snapLocked(m.prots[n]))
	}
	m.statusPub.Store(snap)
}

// publishUpsert republishes the snapshot with p's entry refreshed
// (inserted if new), sharing every other entry. Caller holds m.mu.
func (m *Manager) publishUpsert(p *Protection) {
	old := m.statusPub.Load()
	ps := m.snapLocked(p)
	i := sort.Search(len(old.prots), func(i int) bool { return old.prots[i].st.Name >= p.Name })
	snap := &statusSnap{hosts: old.hosts}
	if i < len(old.prots) && old.prots[i].st.Name == p.Name {
		snap.prots = make([]*protSnap, len(old.prots))
		copy(snap.prots, old.prots)
		snap.prots[i] = ps
	} else {
		snap.prots = make([]*protSnap, 0, len(old.prots)+1)
		snap.prots = append(snap.prots, old.prots[:i]...)
		snap.prots = append(snap.prots, ps)
		snap.prots = append(snap.prots, old.prots[i:]...)
	}
	m.statusPub.Store(snap)
}

// publishRemove republishes the snapshot without name. Caller holds
// m.mu.
func (m *Manager) publishRemove(name string) {
	old := m.statusPub.Load()
	i := sort.Search(len(old.prots), func(i int) bool { return old.prots[i].st.Name >= name })
	if i == len(old.prots) || old.prots[i].st.Name != name {
		return
	}
	snap := &statusSnap{hosts: old.hosts}
	snap.prots = make([]*protSnap, 0, len(old.prots)-1)
	snap.prots = append(snap.prots, old.prots[:i]...)
	snap.prots = append(snap.prots, old.prots[i+1:]...)
	m.statusPub.Store(snap)
}

// Status snapshots one protection. Lock-free: served from the
// published fleet snapshot, with host health resolved live.
func (m *Manager) Status(name string) (Status, error) {
	snap := m.statusPub.Load()
	ps := snap.find(name)
	if ps == nil {
		return Status{}, fmt.Errorf("%w: %q", ErrUnknownVM, name)
	}
	return ps.materialize(), nil
}

// StatusAll snapshots every protection, sorted by name. Lock-free.
func (m *Manager) StatusAll() []Status {
	snap := m.statusPub.Load()
	out := make([]Status, 0, len(snap.prots))
	for _, ps := range snap.prots {
		out = append(out, ps.materialize())
	}
	return out
}

// ProtectionCount reports the number of protections in the published
// snapshot. Lock-free.
func (m *Manager) ProtectionCount() int {
	return len(m.statusPub.Load().prots)
}

// Unprotect tears a protection down: the replication session is
// dropped, the VM is destroyed on its (healthy) primary host, and the
// protection is removed from the fleet. The teardown path DELETE
// /v1/vms/{name} needs — without it protections can only ever be
// added.
func (m *Manager) Unprotect(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, err := m.lookupLocked(name)
	if err != nil {
		return err
	}
	delete(m.prots, name)
	m.publishRemove(name)
	detail := "torn down"
	if !p.lost && p.vm != nil {
		if host, ok := p.primary.(*hypervisor.Host); ok && host.Health() == hypervisor.Healthy {
			if derr := m.destroyVM(host, p.vm.Name()); derr == nil {
				detail = fmt.Sprintf("destroyed %s on %s", p.vm.Name(), host.HostName())
			}
		}
	}
	m.retireChain(p)
	p.pm = nil
	m.record(EventRemoved, name, detail)
	return m.journalAppend(journal.Record{Kind: journal.RecUnprotect, VM: name})
}

// Failover forces an immediate failover of a protection: the replica
// is activated on the secondary even though the primary may still be
// healthy (the operator has fenced it out-of-band), the old primary
// copy is destroyed, and the survivor is re-protected when a
// heterogeneous spare exists — warm, onto the old primary's host, when
// its destroyed copy is fit to keep (warmCopy). Returns the result.
func (m *Manager) Failover(name string) (failover.Result, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, err := m.lookupLocked(name)
	if err != nil {
		return failover.Result{}, err
	}
	// Republish on every exit: the activation mutates the protection
	// across several steps, some of which can fail after state changed.
	defer m.publishUpsert(p)
	if p.lost {
		return failover.Result{}, ErrServiceLost
	}
	src, err := freshestLeg(p)
	if err != nil {
		return failover.Result{}, err
	}
	return m.failoverTo(p, src, failoverDetail{
		resumed: "forced: resumed on %[2]s in %[3]v", seed: true,
	})
}

// SetPeriod live-tunes a protection's dynamic period controller: the
// degradation budget D and interval cap Tmax take effect on the next
// checkpoint, and survive re-wiring after failovers. It returns the
// controller's current interval under the new tuning.
func (m *Manager) SetPeriod(name string, d float64, tmax time.Duration) (time.Duration, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, err := m.lookupLocked(name)
	if err != nil {
		return 0, err
	}
	defer m.publishUpsert(p)
	if err := (period.Config{D: d, Tmax: tmax}).Validate(); err != nil {
		return 0, err
	}
	if p.pm != nil {
		if err := p.pm.Retune(d, tmax); err != nil {
			return 0, err
		}
	}
	p.budget, p.tmax = d, tmax
	m.record(EventRetuned, name, fmt.Sprintf("D=%.3g Tmax=%v", d, tmax))
	if err := m.journalAppend(journal.Record{
		Kind: journal.RecRetune, VM: name,
		Budget: d, MaxPeriodMS: tmax.Milliseconds(),
	}); err != nil {
		return 0, err
	}
	if p.pm != nil {
		return p.pm.Period(), nil
	}
	return 0, nil
}

// SetRecovery live-tunes a protection's in-place recovery policy: the
// microreboot attempt budget, backoff shape, and the hard deadline
// past which a failure escalates to fenced failover. A zero-value
// policy disables in-place recovery for the protection. The tuning is
// journaled, so it survives a daemon restart. Returns the policy now
// in force.
func (m *Manager) SetRecovery(name string, pol recovery.Policy) (recovery.Policy, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, err := m.lookupLocked(name)
	if err != nil {
		return recovery.Policy{}, err
	}
	defer m.publishUpsert(p)
	if err := pol.Validate(); err != nil {
		return recovery.Policy{}, err
	}
	p.recoveryPol = pol
	m.record(EventRecoveryTuned, name, pol.String())
	if err := m.journalAppend(journal.Record{
		Kind: journal.RecRecovery, VM: name,
		Recovery: &journal.RecoveryTuning{
			DeadlineMS:  pol.Deadline.Milliseconds(),
			MaxAttempts: pol.MaxAttempts,
			BackoffMS:   pol.Backoff.Milliseconds(),
			Jitter:      pol.Jitter,
		},
	}); err != nil {
		return recovery.Policy{}, err
	}
	return p.recoveryPol, nil
}

// Tick advances the fleet by one orchestration round: every healthy
// protection runs one replication cycle; failed primaries are detected
// and failed over, and survivors are re-protected onto a new
// heterogeneous secondary when one exists. The whole round runs under
// the manager lock, so concurrent API calls always observe protections
// between rounds, never mid-transition.
func (m *Manager) Tick() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	defer m.publishAll()
	// Every protection gets its round even when an earlier one fails;
	// the errors are aggregated so one failing protection can't mask
	// the others (errors.Is still matches each joined error).
	var errs []error
	for _, name := range slices.Sorted(maps.Keys(m.prots)) {
		if err := m.tickOne(m.prots[name]); err != nil &&
			!errors.Is(err, ErrServiceLost) && !errors.Is(err, ErrNoHeterogeneous) {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// tickOne runs one protection's round. Caller holds m.mu.
func (m *Manager) tickOne(p *Protection) error {
	if p.lost {
		return nil
	}
	if p.primary.Health() != hypervisor.Healthy {
		return m.handleFailure(p)
	}
	// Retire chain legs whose replica host died or whose transport
	// fenced itself; losing the last leg drops the whole session.
	if p.rep != nil {
		if err := m.pruneLegs(p); err != nil {
			return err
		}
	}
	if p.rep == nil {
		// Running unprotected (no secondary was available); try to
		// find replicas now.
		return m.tryReprotect(p, nil, true)
	}
	// Restore the chain to its requested width when a replacement host
	// is available; the new leg seeds inside the next checkpoint pause.
	if err := m.topUpLegs(p); err != nil {
		return err
	}
	if _, err := p.rep.RunCycle(); err != nil {
		switch {
		case errors.Is(err, replication.ErrPrimaryDown):
			return m.handleFailure(p)
		case errors.Is(err, replication.ErrSecondaryDown),
			errors.Is(err, replication.ErrReplicaDiverged):
			// No replica left that a delta could build on: re-pair and
			// re-seed from scratch.
			m.dropSecondaries(p)
			return m.tryReprotect(p, nil, true)
		default:
			return fmt.Errorf("orchestrator: vm %q: %w", p.Name, err)
		}
	}
	return m.ackCheckpoint(p)
}

// pruneLegs drops chain legs whose replica host died or whose
// transport failed permanently (the replicator marked them dead).
// Surviving legs keep their acknowledged epochs; when no leg survives
// the whole session is dropped and the caller re-plans from scratch.
// Caller holds m.mu.
func (m *Manager) pruneLegs(p *Protection) error {
	statuses := p.rep.Legs()
	// High to low so earlier indices stay valid across DropLeg calls.
	for i := len(statuses) - 1; i >= 0; i-- {
		st := statuses[i]
		host := m.hostByName(st.Host)
		if !st.Dead && host != nil && host.Health() == hypervisor.Healthy {
			continue
		}
		if p.rep.NumLegs() == 1 {
			m.dropSecondaries(p)
			return nil
		}
		if err := p.rep.DropLeg(st.Index); err != nil {
			return fmt.Errorf("orchestrator: vm %q: %w", p.Name, err)
		}
		if host != nil && host.Health() == hypervisor.Healthy {
			m.dropReplica(host, p.Name)
		}
		p.secondaries = slices.DeleteFunc(p.secondaries, func(h *hypervisor.Host) bool { return h.HostName() == st.Host })
		detail := st.Host
		if st.Dead {
			detail = fmt.Sprintf("%s (%s)", st.Host, st.DeadCause)
		}
		m.record(EventSecondaryLost, p.Name, detail)
		if err := m.journalAppend(chainRecord(p.Name, p.secondaries)); err != nil {
			return err
		}
	}
	return nil
}

// warmDeposit returns the replica memory h still holds for p from an
// earlier chain — a restart resumes one leg and leaves the others'
// deposits behind — when it fits the guest, else nil.
func warmDeposit(p *Protection, h *hypervisor.Host) *memory.GuestMemory {
	dep, ok := h.Replica(p.Name)
	if !ok || dep.Mem == nil || dep.Mem.SizeBytes() != p.vm.Memory().SizeBytes() {
		return nil
	}
	return dep.Mem
}

// topUpLegs adds replica legs until the chain is back at its requested
// width, planning replacements through the placement engine against
// the hosts not already in the chain, a host that holds a warmDeposit
// preferred: its leg seeds from that copy. Once the chain is at width no
// host outside it keeps a deposit. Only simulated-link fleets fan out; a
// dialed network transport stays pairwise. Caller holds m.mu.
func (m *Manager) topUpLegs(p *Protection) error {
	if m.cfg.DialTransport != nil {
		return nil
	}
	primary, ok := p.primary.(*hypervisor.Host)
	if !ok {
		return nil
	}
	live := 0
	inChain := make(map[string]bool)
	for _, st := range p.rep.Legs() {
		inChain[st.Host] = true
		if !st.Dead {
			live++
		}
	}
	missing := p.want - live
	if missing <= 0 {
		return nil
	}
	spec := placement.Spec{Name: p.Name, Secondaries: missing, Primary: primary.HostName(),
		Features: p.vm.MachineState().Features}
	pool := make([]*hypervisor.Host, 0, len(m.hosts))
	for _, h := range m.hosts {
		if inChain[h.HostName()] {
			continue
		}
		pool = append(pool, h)
		if spec.Warm == "" && warmDeposit(p, h) != nil {
			spec.Warm = h.HostName()
		}
	}
	asn, err := m.planner.PlanSecondaries(spec, primary, pool)
	if err != nil {
		// No eligible replacement right now; keep running at reduced
		// width and retry next round.
		return nil
	}
	p.decision = asn.Decision
	for _, h := range asn.Secondaries {
		link, err := m.linkBetween(primary, h)
		if err != nil {
			return err
		}
		if err := p.rep.AddLeg(replication.Secondary{Host: h, Transport: link, Warm: warmDeposit(p, h)}); err != nil {
			return fmt.Errorf("orchestrator: vm %q: %w", p.Name, err)
		}
		// The deposit's memory is the leg's now, and about to change under
		// its stale image: parked again, with a matching one, at the first ack.
		m.dropReplica(h, p.Name)
		p.secondaries = append(p.secondaries, h)
		m.record(EventReprotected, p.Name,
			fmt.Sprintf("%s (%s) joins the chain", h.HostName(), h.Product()))
	}
	if asn.Decision.Shortfall == 0 {
		// Back at width: what a host outside the chain still holds is
		// nobody's replica (a no-op for the ones that just joined).
		for _, h := range pool {
			m.dropReplica(h, p.Name)
		}
	}
	return m.journalAppend(chainRecord(p.Name, p.secondaries))
}

// ackCheckpoint records checkpoint progress after a successful cycle:
// the replica handoff deposit on the secondary host is refreshed and
// the acked epoch journaled, giving a restarted control plane its
// delta-resync cursor. Cycles that acknowledged nothing (degraded
// intervals) are skipped. Caller holds m.mu.
func (m *Manager) ackCheckpoint(p *Protection) error {
	if p.rep == nil {
		return nil
	}
	epoch := p.rep.Totals().Checkpoints
	if epoch <= p.acked {
		return nil
	}
	p.acked = epoch
	m.depositReplica(p)
	return m.journalAppend(journal.Record{
		Kind: journal.RecAck, VM: p.Name,
		Generation: p.Generation, Epoch: epoch,
	})
}

// dropSecondaries abandons a replication session with no usable leg
// left; the VM keeps running on the primary, unprotected until
// re-pairing succeeds. Caller holds m.mu.
func (m *Manager) dropSecondaries(p *Protection) {
	detail := "all replica hosts"
	if names := secondaryNames(p.secondaries); len(names) == 1 {
		detail = names[0]
	} else if len(names) > 1 {
		detail = strings.Join(names, ", ")
	}
	m.record(EventSecondaryLost, p.Name, detail)
	closeTransport(p)
	p.secondaries = nil
	p.rep = nil
	p.mon = nil
	p.acked = 0
	_ = m.journalSync(journal.Record{Kind: journal.RecSecondaryLost, VM: p.Name})
}

// handleFailure answers a failed primary. The failure is detected via
// the heartbeat monitor and classified: a transient failure on a
// microreboot-capable backend (or plain starvation) first runs the
// in-place recovery ladder, which brings the hypervisor back under the
// guest — no failover, no generation bump, delta resync instead of
// re-seed. Everything else — and any ladder that spends its budget or
// deadline — escalates to fenced failover onto the freshest surviving
// chain leg. Caller holds m.mu.
func (m *Manager) handleFailure(p *Protection) error {
	src, noTarget := freshestLeg(p)
	dec := recovery.Failover
	primaryHost, _ := p.primary.(*hypervisor.Host)
	if primaryHost != nil {
		dec = recovery.Classify(primaryHost.Health(), primaryHost.Capabilities(), p.recoveryPol)
	}
	if dec == recovery.Failover && noTarget != nil {
		p.lost = true
		m.record(EventServiceLost, p.Name, "no healthy replica host")
		_ = m.journalSync(journal.Record{Kind: journal.RecLost, VM: p.Name})
		return ErrServiceLost
	}
	var detect time.Duration
	if p.mon != nil {
		d, err := p.mon.WaitForFailure(0)
		if err != nil {
			return fmt.Errorf("orchestrator: vm %q: %w", p.Name, err)
		}
		detect = d
	}
	m.record(EventFailureFound, p.Name,
		fmt.Sprintf("%s %s (detected in %v)", p.primary.HostName(),
			p.primary.Health(), detect))

	if dec != recovery.Failover {
		ok, err := m.recoverInPlace(p, primaryHost, dec)
		if err != nil {
			return err
		}
		if ok {
			return nil
		}
		// The ladder is spent; without a surviving leg there is nothing
		// to escalate onto either.
		if noTarget != nil {
			p.lost = true
			m.record(EventServiceLost, p.Name,
				"in-place recovery exhausted and no healthy replica host")
			_ = m.journalSync(journal.Record{Kind: journal.RecLost, VM: p.Name})
			return ErrServiceLost
		}
	}

	_, err := m.failoverTo(p, src, failoverDetail{
		resumed: "resumed on %[2]s in %[3]v",
	})
	return err
}
