// Package replication is the core of HERE: continuous asynchronous
// state replication (ASR) of a protected VM onto one or more secondary
// hosts running possibly different hypervisors (paper §3–§5).
//
// Two engines are provided:
//
//   - EngineRemus — the baseline: fixed checkpoint period, one
//     transfer thread, whole-bitmap scans (Xen's Remus, §3.2).
//   - EngineHERE — the paper's system: multithreaded checkpoint
//     transfer over 2 MiB regions assigned round-robin to migrator
//     threads (§7.2), cross-hypervisor state translation on every
//     checkpoint (§7.4), and optional dynamic period control (§5.4).
//
// The replication cycle follows Fig 3: pause → copy dirtied memory →
// send vCPU/device state → wait for the replica's acknowledgement →
// resume → release the checkpoint's buffered network output.
//
// A replicator drives a chain of one or more legs (see chain.go): each
// checkpoint fans out to every leg, and the epoch commits — releasing
// the buffered output — once a configurable quorum of legs
// acknowledges. With a single leg the behavior is exactly the paper's
// pairwise protocol.
package replication

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/here-ft/here/internal/arch"
	"github.com/here-ft/here/internal/blockdev"
	"github.com/here-ft/here/internal/devices"
	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/metrics"
	"github.com/here-ft/here/internal/migration"
	"github.com/here-ft/here/internal/period"
	"github.com/here-ft/here/internal/trace"
	"github.com/here-ft/here/internal/translate"
	"github.com/here-ft/here/internal/wire"
	"github.com/here-ft/here/internal/workload"
)

// Engine selects the replication algorithm.
type Engine int

// Replication engines.
const (
	// EngineRemus is the single-threaded fixed-period baseline.
	EngineRemus Engine = iota + 1
	// EngineHERE is the multithreaded, translation-aware engine.
	EngineHERE
)

// String names the engine.
func (e Engine) String() string {
	switch e {
	case EngineRemus:
		return "remus"
	case EngineHERE:
		return "here"
	default:
		return fmt.Sprintf("engine(%d)", int(e))
	}
}

// DefaultThreads is HERE's default checkpoint transfer thread count.
const DefaultThreads = 4

// State is the protection mode of a replicated VM.
type State int

// Protection states.
const (
	// StateProtected is normal operation: checkpoints flow and are
	// acknowledged; the replica trails the primary by one epoch.
	StateProtected State = iota + 1
	// StateDegraded is unprotected execution after a transfer outlived
	// its retry budget: the guest keeps running while the dirty bitmap
	// accumulates the delta for the eventual resync.
	StateDegraded
	// StateResyncing is the delta resync that ends a degraded
	// interval: only pages dirtied during the outage are shipped.
	StateResyncing
	// StateFailedOver means the replica VM was activated on the
	// secondary host; this replicator is finished.
	StateFailedOver
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateProtected:
		return "protected"
	case StateDegraded:
		return "degraded"
	case StateResyncing:
		return "resyncing"
	case StateFailedOver:
		return "failed-over"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Retry defaults. The worst-case in-checkpoint stall (the "retry
// budget") is the sum of the backoffs: ~350 ms with the defaults —
// long enough to ride out a link flap, short enough that a real
// outage drops into degraded mode quickly.
const (
	DefaultMaxAttempts    = 4
	DefaultInitialBackoff = 50 * time.Millisecond
	DefaultMaxBackoff     = 2 * time.Second
	DefaultMultiplier     = 2.0
	DefaultJitter         = 0.2
)

// RetryPolicy governs how a failed checkpoint transfer is retried:
// exponential backoff with jitter, up to MaxAttempts total attempts.
// Zero fields take the package defaults, so the zero value is a sane
// policy. Jitter draws from a seeded RNG, keeping runs deterministic.
type RetryPolicy struct {
	// MaxAttempts is the total number of transfer attempts (1 = no
	// retries).
	MaxAttempts int
	// InitialBackoff is the delay before the first retry.
	InitialBackoff time.Duration
	// MaxBackoff caps the exponential growth.
	MaxBackoff time.Duration
	// Multiplier scales the backoff between attempts (≥ 1).
	Multiplier float64
	// Jitter randomizes each backoff by ±Jitter (fraction in [0, 1));
	// 0 takes the default, negative disables jitter entirely.
	Jitter float64
	// Seed seeds the jitter RNG.
	Seed int64
}

// withDefaults fills zero fields with the package defaults.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = DefaultMaxAttempts
	}
	if p.InitialBackoff <= 0 {
		p.InitialBackoff = DefaultInitialBackoff
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = DefaultMaxBackoff
	}
	if p.Multiplier < 1 {
		p.Multiplier = DefaultMultiplier
	}
	switch {
	case p.Jitter == 0 || p.Jitter >= 1:
		p.Jitter = DefaultJitter
	case p.Jitter < 0:
		p.Jitter = 0
	}
	return p
}

// Budget reports the worst-case cumulative backoff delay of the
// policy — an outage longer than this cannot be ridden out by retries
// within one checkpoint.
func (p RetryPolicy) Budget() time.Duration {
	p = p.withDefaults()
	var total time.Duration
	b := p.InitialBackoff
	for i := 1; i < p.MaxAttempts; i++ {
		d := time.Duration(float64(b) * (1 + p.Jitter))
		total += d
		b = time.Duration(float64(b) * p.Multiplier)
		if b > p.MaxBackoff {
			b = p.MaxBackoff
		}
	}
	return total
}

// RecoveryStats aggregates the recovery machinery's activity: retries,
// abandoned checkpoints, degraded intervals and delta resyncs, plus
// cumulative time per protection mode.
type RecoveryStats struct {
	// Retries counts transfer attempts beyond the first.
	Retries int64
	// Rollbacks counts checkpoints abandoned after the retry budget:
	// the replica stayed on the last acknowledged epoch and the dirty
	// pages were re-marked for the next attempt.
	Rollbacks int64
	// DegradedEntries counts transitions into degraded mode.
	DegradedEntries int64
	// Resyncs counts successful delta resyncs.
	Resyncs int64
	// ResyncPages and ResyncBytes are the delta shipped by resyncs —
	// compare against the full memory size to see what a re-seed
	// would have cost.
	ResyncPages int64
	ResyncBytes int64
	// ProtectedTime, DegradedTime and ResyncTime are cumulative time
	// per protection mode.
	ProtectedTime time.Duration
	DegradedTime  time.Duration
	ResyncTime    time.Duration
}

// ackBytes is the size of the replica's checkpoint acknowledgement.
const ackBytes = 64

// Transport carries checkpoint traffic to the secondary host. Two
// implementations exist: *simnet.Link — the deterministic in-process
// simulation the experiments run on — and *transport.Client, a real
// TCP connection to a peer daemon. Structural typing keeps the
// packages decoupled; the replicator only sees this face.
type Transport interface {
	// Transfer moves (or models moving) bytes split across streams,
	// reporting the time it took. Errors are transient path failures
	// (link down, disconnected) unless they satisfy
	// interface{ Permanent() bool }.
	Transfer(bytes int64, streams int) (time.Duration, error)
	// Down reports whether the path is currently unusable; the
	// degraded-mode probe polls it before attempting a resync.
	Down() bool
	// PropagationDelay is the one-way latency estimate the failure
	// detector compares against its heartbeat interval.
	PropagationDelay() time.Duration
}

// CheckpointSender is the optional Transport extension a real network
// transport implements: the encoded stream itself crosses the wire,
// the remote replica decodes and applies it, and the acknowledgement
// is the replica's — not a simulated round trip. When the configured
// Transport implements it, the replicator ships streams through it and
// reconciles acknowledged epochs with the peer after reconnects (the
// delta-resync-from-last-acked-epoch ladder).
type CheckpointSender interface {
	Transport
	// SendCheckpoint ships one checkpoint stream and blocks until the
	// peer acknowledges epoch seq.
	SendCheckpoint(seq uint64, stream []byte) error
	// SendSeed ships one seeding-round stream (acknowledged, but it
	// resets rather than advances the peer's acked checkpoint epoch).
	SendSeed(round uint64, stream []byte) error
	// PeerAcked reports the last checkpoint epoch the peer
	// acknowledged, refreshed by every re-handshake; ok is false when
	// the peer holds none.
	PeerAcked() (seq uint64, ok bool)
}

// remoteStageSource is the optional CheckpointSender extension a
// transport implements when its acks carry the secondary-side stage
// timings (transport.Client does). Structural, so replication stays
// decoupled from the transport package.
type remoteStageSource interface {
	LastRemoteStages() (recv, decode, apply, ack time.Duration, ok bool)
}

// recordRemoteStages merges the secondary-side stage timings reported
// in the last acknowledgement into the epoch's trace as remote-* spans,
// giving EpochBreakdown its cross-node view: wire transit falls out as
// the transfer span minus these stages.
func (r *Replicator) recordRemoteStages(sender CheckpointSender, epochID int64, start time.Time) {
	src, ok := sender.(remoteStageSource)
	if !ok || !r.tr.Enabled() {
		return
	}
	recv, dec, app, ack, ok := src.LastRemoteStages()
	if !ok {
		return
	}
	kinds := [...]trace.Kind{trace.SpanRemoteRecv, trace.SpanRemoteDecode, trace.SpanRemoteApply, trace.SpanRemoteAck}
	for i, dur := range [...]time.Duration{recv, dec, app, ack} {
		r.tr.Record(trace.Event{Kind: kinds[i], Epoch: epochID, Start: start, Dur: dur, Engine: r.engine()})
	}
}

// isPermanentErr reports whether err declares itself unrecoverable
// (e.g. the transport was fenced): retries, reconnects and degraded
// mode cannot help.
func isPermanentErr(err error) bool {
	var p interface{ Permanent() bool }
	return errors.As(err, &p) && p.Permanent()
}

// PeriodPolicy decides the checkpoint interval. period.Manager
// (HERE's Algorithm 1) and period.AdaptiveRemus implement it.
type PeriodPolicy interface {
	// Period reports the interval for the next cycle.
	Period() time.Duration
	// Observe feeds the measured pause of the checkpoint that just
	// completed and returns its degradation and the next interval.
	Observe(pause time.Duration) (degradation float64, next time.Duration)
}

// ioAware is implemented by policies that react to the VM's outgoing
// I/O volume (Adaptive Remus switches to its low period on traffic).
type ioAware interface {
	RecordIO(packets int)
}

var _ PeriodPolicy = (*period.Manager)(nil)

// Errors reported by the replicator.
var (
	ErrNotSeeded   = errors.New("replication: not seeded yet")
	ErrPrimaryDown = errors.New("replication: primary host is down")
	// ErrSecondaryDown means no live leg's host is healthy — with one
	// leg, exactly "the secondary host is down".
	ErrSecondaryDown = errors.New("replication: secondary host is down")
	ErrFailedOver    = errors.New("replication: replica already activated")
	// ErrDegraded wraps a checkpoint failure that exhausted the retry
	// budget while degraded mode is off: the cycle rolled back and the
	// VM keeps running unprotected. errors.Is also matches the
	// underlying transfer error (e.g. simnet.ErrLinkDown).
	ErrDegraded = errors.New("replication: path unavailable, VM unprotected")
	// ErrReplicaDiverged is returned by a resync attempt when the peer
	// replica no longer holds an epoch a delta (or overwrite) resync
	// can build on — it restarted empty, or regressed behind the last
	// epoch this side believes acknowledged. Only a full re-seed can
	// restore protection; the replicator stays degraded.
	ErrReplicaDiverged = errors.New("replication: replica diverged beyond delta resync; full re-seed required")
)

// Config parameterizes a Replicator.
type Config struct {
	// Engine selects Remus or HERE.
	Engine Engine
	// Threads is the number of transfer threads (EngineHERE only,
	// DefaultThreads if 0). Remus always uses one.
	Threads int
	// Compression enables the wire codec's content-aware page
	// encodings — zero-page elision and XOR-delta against the last
	// acked epoch with raw fallback — trading classification CPU for
	// link bytes: worthwhile on constrained links, a loss on fast
	// interconnects (see experiments.CompressionAblation). The
	// resulting ratio is measured per checkpoint and surfaced in
	// CheckpointStats.Wire, not assumed.
	Compression bool
	// Period is the fixed checkpoint interval, used when
	// PeriodManager is nil (Remus's static configuration).
	Period time.Duration
	// PeriodManager enables dynamic period control: HERE's Algorithm 1
	// controller (period.Manager), the two-level Adaptive Remus policy
	// (period.AdaptiveRemus), or any custom PeriodPolicy.
	PeriodManager PeriodPolicy
	// Quorum is the number of legs whose acknowledgement commits an
	// epoch and releases the guest's buffered output. 0 (the default)
	// means all live legs: every replica can then serve a failover
	// with no released output lost. Lower values bound the pause by
	// the fastest Quorum acknowledgements instead, at the cost of the
	// lagging legs trailing the released output. Clamped to the live
	// leg count; irrelevant for single-leg chains.
	Quorum int
	// Workload is the guest activity executed between checkpoints
	// (nil = idle guest). It may be replaced with SetWorkload.
	Workload workload.Workload
	// Sink receives the buffered network output released after each
	// acknowledged checkpoint (nil discards it silently).
	Sink func([]devices.Packet)
	// Seeding overrides the seeding migration parameters (Link and
	// Mode are filled in by the replicator).
	Seeding migration.Config
	// Retry governs transfer retries (zero fields take the package
	// defaults).
	Retry RetryPolicy
	// DegradedMode allows the replicator to drop into degraded
	// (unprotected) execution when a transfer outlives the retry
	// budget, instead of failing the cycle. The guest keeps running,
	// dirty pages accumulate, and a delta resync restores protection
	// once the link recovers.
	DegradedMode bool
	// Tracer receives epoch-scoped spans (pause, scan, encode,
	// transfer, ack, release) and discrete events (retries, rollbacks,
	// mode changes) for every checkpoint cycle. Nil disables tracing;
	// the hot path then pays only nil checks.
	Tracer *trace.Tracer
	// Metrics is the registry the replicator's counters and histograms
	// (here_replication_*) register into, shared with the wire codec
	// and the tracer's self-observation counters. Nil creates a
	// private registry — Recovery and Totals still work, nothing is
	// exported.
	Metrics *trace.Registry
	// Resume re-attaches to replica-side state that survived from a
	// previous replicator (a control-plane restart): the replicator
	// starts seeded with the given replica memory, last acked state
	// image and checkpoint sequence, in degraded mode, so the first
	// healthy cycle ships a delta resync of the pages dirtied since —
	// no full re-seed. The resumed memory becomes the leg's replica, so
	// that resync already deltas against it. Nil starts unseeded as
	// usual (Seed required). Resume re-attaches exactly one leg; widen
	// with AddLeg after.
	Resume *ResumeState
}

// ResumeState is the replica-side state a Replicator hands off for a
// successor to resume from: the replicated guest memory, the
// dst-native machine-state image of the last acknowledged checkpoint,
// and that checkpoint's sequence number.
type ResumeState struct {
	Mem   *memory.GuestMemory
	Image []byte
	Seq   uint64
}

// CheckpointStats describes one completed checkpoint.
type CheckpointStats struct {
	// Seq is the checkpoint number (0-based).
	Seq uint64
	// Epoch is the I/O buffering epoch this checkpoint released.
	Epoch devices.Epoch
	// DirtyPages is the number of pages the primary dirtied this
	// epoch (per-leg backlogs may be larger after missed epochs).
	DirtyPages int
	// Bytes is the traffic placed on the replication links by the
	// acknowledged legs.
	Bytes int64
	// Pause is the measured pause duration t (Fig 3).
	Pause time.Duration
	// RunPeriod is the execution interval T preceding this checkpoint.
	RunPeriod time.Duration
	// Degradation is D_T = Pause/(Pause+RunPeriod) (Eq. 1).
	Degradation float64
	// NextPeriod is the interval chosen for the next cycle.
	NextPeriod time.Duration
	// PacketsReleased is the buffered output released on ack.
	PacketsReleased int
	// Mode is the protection state when the cycle ended. A cycle that
	// checkpointed successfully reports StateProtected; a cycle spent
	// riding out an outage reports StateDegraded.
	Mode State
	// Resync marks the delta-resync checkpoint that ended a degraded
	// interval: DirtyPages/Bytes cover only what was dirtied during
	// the outage, not the full memory.
	Resync bool
	// Wire is the checkpoint's measured wire-codec statistics: raw vs
	// encoded bytes, the per-encoding frame mix, and encode time
	// (leg 0's stream, which also carries the disk journal).
	Wire wire.Stats
}

// Totals aggregates a replication run, including the resource
// overheads evaluated in §8.7.
type Totals struct {
	Checkpoints   uint64
	PagesSent     int64
	BytesSent     int64
	TotalPause    time.Duration
	TotalRun      time.Duration
	WorkloadStats workload.StepStats
	// CPUWork is the processor time consumed by the replication
	// engine itself across all threads (dirty scanning, mapping,
	// copying, state records).
	CPUWork time.Duration
	// RSSBytes models the engine's resident memory: transfer buffers,
	// dirty bitmap and staging state.
	RSSBytes int64
	// Wire aggregates the wire codec's measured statistics across the
	// run (seeding plus every checkpoint); Wire.Ratio() is the
	// observed compression ratio.
	Wire wire.Stats
}

// CPUPercent reports engine CPU usage relative to elapsed time, where
// 100 means one fully-loaded core (§8.7's metric).
func (t Totals) CPUPercent(elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return 100 * float64(t.CPUWork) / float64(elapsed)
}

// MeanDegradation reports pause time as a fraction of total time.
func (t Totals) MeanDegradation() float64 {
	total := t.TotalPause + t.TotalRun
	if total <= 0 {
		return 0
	}
	return float64(t.TotalPause) / float64(total)
}

// Replicator continuously replicates one protected VM onto a chain of
// one or more secondary hypervisors. It is safe for concurrent use.
type Replicator struct {
	cfg     Config
	primary *hypervisor.VM
	src     hypervisor.Hypervisor
	threads int
	retry   RetryPolicy
	reg     *trace.Registry

	tr *trace.Tracer

	// Recovery counters and the per-mode timeline (see RecoveryStats).
	// The counters live in the metrics registry (here_replication_*)
	// so the same instruments double as exported telemetry.
	retries         *trace.Counter
	rollbacks       *trace.Counter
	degradedEntries *trace.Counter
	resyncs         *trace.Counter
	resyncPages     *trace.Counter
	resyncBytes     *trace.Counter
	checkpoints     *trace.Counter
	pagesSent       *trace.Counter
	bytesSent       *trace.Counter
	quorumMisses    *trace.Counter
	deadLegs        *trace.Counter
	pauseHist       *trace.Histogram
	periodHist      *trace.Histogram
	timeline        *metrics.Timeline

	mu     sync.Mutex
	rng    *rand.Rand // jitter source for retry backoff
	state  State
	seeded bool
	seq    uint64
	// cycles counts checkpoint attempts (committed or not); each leg
	// stamps it on acknowledgement, giving failover a total freshness
	// order even across partially acknowledged epochs.
	cycles  uint64
	legs    []*leg
	disk    *blockdev.ReplicatedDisk
	iob     *devices.IOBuffer
	totals  Totals
	history []CheckpointStats // ring of the last historyCap cycles
	oldest  int               // index of the oldest entry once the ring is full
}

// NewChain prepares replication of vm onto a chain of secondaries
// (paper §8.2 generalized: 1 primary + N replicas on distinct
// hypervisor flavors); the paper's pairwise setup is a one-leg chain.
// The protected VM must have been booted with the CPUID feature
// intersection of the whole chain (translate.CompatibleFeaturesAll).
// Chains of more than one leg require simulated transports: a
// CheckpointSender (real TCP peer) reconciles acked epochs pairwise and
// cannot fan out.
func NewChain(vm *hypervisor.VM, secondaries []Secondary, cfg Config) (*Replicator, error) {
	if vm == nil {
		return nil, errors.New("replication: nil vm")
	}
	if len(secondaries) == 0 {
		return nil, errors.New("replication: chain needs at least one secondary")
	}
	for i, sec := range secondaries {
		if sec.Host == nil || sec.Transport == nil {
			return nil, fmt.Errorf("replication: chain leg %d: nil host or transport", i)
		}
		if feats := vm.MachineState().Features; !feats.IsSubsetOf(sec.Host.Features()) {
			return nil, fmt.Errorf("%w on %s: boot the VM with translate.CompatibleFeaturesAll",
				translate.ErrFeatureMismatch, sec.Host.Product())
		}
		if _, isSender := sec.Transport.(CheckpointSender); isSender && len(secondaries) > 1 {
			return nil, errors.New("replication: multi-leg chains require simulated transports (CheckpointSender fan-out unsupported)")
		}
		if err := checkWarm(sec, vm); err != nil {
			return nil, err
		}
	}
	if cfg.Resume != nil && len(secondaries) > 1 {
		return nil, errors.New("replication: resume re-attaches a single leg; add further legs with AddLeg")
	}
	if cfg.Engine != EngineRemus && cfg.Engine != EngineHERE {
		return nil, fmt.Errorf("replication: unknown engine %d", int(cfg.Engine))
	}
	if cfg.PeriodManager == nil && cfg.Period <= 0 {
		return nil, errors.New("replication: need a fixed Period or a PeriodManager")
	}
	threads := 1
	if cfg.Engine == EngineHERE {
		threads = cfg.Threads
		if threads <= 0 {
			threads = DefaultThreads
		}
	}
	retry := cfg.Retry.withDefaults()
	reg := cfg.Metrics
	if reg == nil {
		reg = trace.NewRegistry()
	}
	legs := make([]*leg, 0, len(secondaries))
	for _, sec := range secondaries {
		l := newLeg(sec, vm.Memory().SizeBytes(), cfg.Compression)
		l.enc.Instrument(reg)
		l.drift = sec.Drift
		legs = append(legs, l)
	}
	cfg.Tracer.Instrument(reg)
	if cfg.Resume != nil {
		if cfg.Resume.Mem == nil || len(cfg.Resume.Image) == 0 {
			return nil, errors.New("replication: resume without replica memory or state image")
		}
		if cfg.Resume.Mem.SizeBytes() != vm.Memory().SizeBytes() {
			return nil, fmt.Errorf("replication: resume memory is %d bytes, vm has %d",
				cfg.Resume.Mem.SizeBytes(), vm.Memory().SizeBytes())
		}
	}
	r := &Replicator{
		cfg:     cfg,
		primary: vm,
		src:     vm.Hypervisor(),
		threads: threads,
		retry:   retry,
		reg:     reg,
		tr:      cfg.Tracer,
		retries: reg.Counter("here_replication_retries_total",
			"transfer attempts beyond the first"),
		rollbacks: reg.Counter("here_replication_rollbacks_total",
			"checkpoints abandoned after the retry budget"),
		degradedEntries: reg.Counter("here_replication_degraded_entries_total",
			"transitions into degraded (unprotected) mode"),
		resyncs: reg.Counter("here_replication_resyncs_total",
			"delta resyncs that restored protection"),
		resyncPages: reg.Counter("here_replication_resync_pages_total",
			"pages shipped by delta resyncs"),
		resyncBytes: reg.Counter("here_replication_resync_bytes_total",
			"bytes shipped by delta resyncs"),
		checkpoints: reg.Counter("here_replication_checkpoints_total",
			"acknowledged checkpoints"),
		pagesSent: reg.Counter("here_replication_pages_total",
			"dirty pages shipped in checkpoints"),
		bytesSent: reg.Counter("here_replication_bytes_total",
			"bytes placed on the replication link by checkpoints"),
		quorumMisses: reg.Counter("here_chain_quorum_misses_total",
			"checkpoints rolled back because the ack quorum was missed"),
		deadLegs: reg.Counter("here_chain_dead_legs_total",
			"chain legs removed after a permanent transport failure"),
		pauseHist: reg.Histogram("here_replication_pause_seconds",
			"checkpoint pause t (Fig 3)", trace.DurationBuckets()),
		periodHist: reg.Histogram("here_replication_period_seconds",
			"execution interval T preceding each checkpoint", trace.DurationBuckets()),
		rng:      rand.New(rand.NewSource(retry.Seed)),
		state:    StateProtected,
		timeline: metrics.NewTimeline(vm.Hypervisor().Clock().Now(), StateProtected.String()),
		legs:     legs,
		iob:      devices.NewIOBuffer(vm.Hypervisor().Clock()),
	}
	if res := cfg.Resume; res != nil {
		// Re-attach to the surviving replica state: already seeded, in
		// degraded mode, so the first healthy cycle is a delta resync
		// of whatever was dirtied while unattached.
		r.seeded = true
		r.legs[0].bindReplica(res.Mem)
		r.legs[0].lastImage = append([]byte(nil), res.Image...)
		r.legs[0].ackedSeq = res.Seq
		r.seq = res.Seq
		r.totals.Checkpoints = res.Seq
		r.state = StateDegraded
		r.timeline = metrics.NewTimeline(vm.Hypervisor().Clock().Now(), StateDegraded.String())
	}
	return r, nil
}

// State reports the current protection mode.
func (r *Replicator) State() State {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

// setState transitions the protection mode and the mode timeline.
func (r *Replicator) setState(s State) {
	now := r.src.Clock().Now()
	r.mu.Lock()
	changed := r.state != s
	seq := r.seq
	if changed {
		r.state = s
		r.timeline.Transition(now, s.String())
	}
	r.mu.Unlock()
	if changed {
		r.tr.Event(trace.EventModeChange, int64(seq), trace.Event{
			Engine: r.cfg.Engine.String(), Note: s.String(),
		})
	}
}

// MarkFailedOver records that the replica was activated on the
// secondary; further checkpoints and activations are refused. Called
// by failover.ActivateOpts.
func (r *Replicator) MarkFailedOver() { r.setState(StateFailedOver) }

// Tracer returns the tracer the replicator records into (nil when
// tracing is disabled). Failover activation records its phases here.
func (r *Replicator) Tracer() *trace.Tracer { return r.tr }

// Recovery reports the recovery machinery's statistics so far.
func (r *Replicator) Recovery() RecoveryStats {
	now := r.src.Clock().Now()
	totals := r.timeline.Totals(now)
	return RecoveryStats{
		Retries:         r.retries.Value(),
		Rollbacks:       r.rollbacks.Value(),
		DegradedEntries: r.degradedEntries.Value(),
		Resyncs:         r.resyncs.Value(),
		ResyncPages:     r.resyncPages.Value(),
		ResyncBytes:     r.resyncBytes.Value(),
		ProtectedTime:   totals[StateProtected.String()],
		DegradedTime:    totals[StateDegraded.String()],
		ResyncTime:      totals[StateResyncing.String()],
	}
}

// SetWorkload replaces the guest workload (e.g. to attach an
// I/O workload that needs the replicator's buffer).
func (r *Replicator) SetWorkload(w workload.Workload) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cfg.Workload = w
}

// SetSink replaces the released-output sink, e.g. to start collecting
// latency samples only after a warm-up window.
func (r *Replicator) SetSink(sink func([]devices.Packet)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cfg.Sink = sink
}

// IOBuffer returns the outgoing-traffic buffer of the protected VM.
func (r *Replicator) IOBuffer() *devices.IOBuffer { return r.iob }

// AttachDisk gives the protected VM a replicated PV block device of
// the given capacity. Guest disk writes go through the returned
// handle; they are journaled per checkpoint epoch, shipped with leg
// 0's checkpoint stream, and applied to the replica's disk on
// acknowledgement, keeping it crash-consistent with the replicated
// memory.
func (r *Replicator) AttachDisk(capacityBytes uint64) *blockdev.ReplicatedDisk {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.disk == nil {
		r.disk = blockdev.NewReplicated(capacityBytes)
	}
	return r.disk
}

// Disk returns the attached replicated disk, or nil.
func (r *Replicator) Disk() *blockdev.ReplicatedDisk {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.disk
}

// Primary returns the protected VM.
func (r *Replicator) Primary() *hypervisor.VM { return r.primary }

// Period reports the interval the next cycle will run for.
func (r *Replicator) Period() time.Duration {
	if r.cfg.PeriodManager != nil {
		return r.cfg.PeriodManager.Period()
	}
	return r.cfg.Period
}

// Seed performs the initial live migration of the protected VM's
// memory to leg 0 (Fig 3 "Migration"), full-copies the snapshot onto
// every further leg while the VM is still paused, and resumes the VM
// into the continuous replication phase. A leg built on a warm copy
// (Secondary.Warm) is sent only the pages where it and the guest may
// differ (stale).
func (r *Replicator) Seed() (migration.Result, error) {
	mode := migration.ModeXen
	if r.cfg.Engine == EngineHERE {
		mode = migration.ModeHERE
	}
	r.mu.Lock()
	legs := append([]*leg(nil), r.legs...)
	r.mu.Unlock()
	first := legs[0]
	mcfg := r.cfg.Seeding
	mcfg.Transport = first.tp
	mcfg.Mode = mode
	// Seed through the leg's own codec: every round diffs against what
	// the earlier rounds left in the leg's replica memory.
	mcfg.Codec = first.enc
	mcfg.Drift = r.stale(first, nil)
	for _, l := range legs[1:] {
		if l.drift != nil && mcfg.Logged == nil { // good with what the guest logs up to the pause
			mcfg.Logged = memory.NewDirtyBitmap(first.mem.NumPages())
		}
	}
	if mcfg.Tracer == nil {
		mcfg.Tracer = r.tr
	}
	if mcfg.Workload == nil {
		mcfg.Workload = r.cfg.Workload
	}
	// The migration's stop-and-copy round leaves the guest paused, also
	// when it fails; whatever happens from here on, Seed returns with
	// the guest running.
	defer r.primary.Resume()
	res, err := migration.Migrate(r.primary, first.mem, mcfg)
	if err != nil {
		return res, fmt.Errorf("replication: seeding: %w", err)
	}
	image, err := r.translateState(res.FinalState, first.dst)
	if err != nil {
		return res, err
	}
	r.mu.Lock()
	first.lastImage = image
	r.totals.PagesSent += res.PagesSent
	r.totals.BytesSent += res.BytesSent
	r.totals.Wire.Add(res.Wire)
	r.mu.Unlock()
	// Every further leg full-copies the same consistent snapshot before
	// the VM resumes, so the chain starts at full width from one state.
	// A failed extra seed fails the whole Seed.
	for _, l := range legs[1:] {
		if err := r.seedLeg(l, res.FinalState, mcfg.Logged); err != nil {
			return res, err
		}
	}
	r.mu.Lock()
	r.seeded = true
	r.mu.Unlock()
	return res, nil
}

// stale returns, as a dirty log, the pages where l's warm copy may differ
// from the guest; nil for a leg with no copy to build on. With a known
// drift that is the drift plus what the guest logged since its tracker
// started — logged, or for leg 0 still in the tracker, where Migrate
// finds it — and no content is read. With no log to vouch for the copy
// (a deposit found after a restart: the backlog sets died with the
// daemon) the contents are compared.
func (r *Replicator) stale(l *leg, logged *memory.DirtyBitmap) *memory.DirtyBitmap {
	bm, owed := l.drift, []memory.PageNum(nil)
	l.drift = nil
	switch {
	case bm != nil && logged != nil:
		owed = logged.Peek()
	case bm == nil && l.mem.PopulatedPages() == 0:
		return nil
	case bm == nil:
		bm = memory.NewDirtyBitmap(l.mem.NumPages())
		owed = memory.Diff(l.mem, r.primary.Memory())
	}
	for _, p := range owed {
		bm.Set(p)
	}
	return bm
}

// seedLeg ships a snapshot of the paused primary onto one leg: account
// the transfer, copy the pages into the leg's replica memory, and store
// the translated machine-state image. An empty replica memory takes
// every populated page, a warm copy the stale ones (logged: the dirty
// log Seed's migration consumed). The primary must be paused.
func (r *Replicator) seedLeg(l *leg, state arch.MachineState, logged *memory.DirtyBitmap) error {
	image, err := r.translateState(state, l.dst)
	if err != nil {
		return err
	}
	mem := r.primary.Memory()
	var pages []memory.PageNum
	if bm := r.stale(l, logged); bm != nil {
		pages = bm.Peek()
	} else {
		pages = mem.PopulatedList()
	}
	bytes := int64(len(pages)) * memory.PageSize
	if _, err := l.tp.Transfer(bytes, r.threads); err != nil {
		return fmt.Errorf("replication: seeding %s: %w", l.dst.HostName(), err)
	}
	if err := mem.CopyPagesTo(pages, l.mem); err != nil {
		return fmt.Errorf("replication: seeding %s: %w", l.dst.HostName(), err)
	}
	r.mu.Lock()
	l.lastImage = image
	l.needsSeed = false
	l.pending.Snapshot() // read and reset: the backlog is settled
	r.totals.PagesSent += int64(len(pages))
	r.totals.BytesSent += bytes
	r.mu.Unlock()
	return nil
}

// translateState converts captured primary state into the given
// destination's native image, crossing hypervisor boundaries when the
// pair is heterogeneous.
func (r *Replicator) translateState(st arch.MachineState, dst hypervisor.Hypervisor) ([]byte, error) {
	translated, err := translate.Translate(st, r.src, dst, translate.Options{})
	if err != nil {
		return nil, fmt.Errorf("replication: translate: %w", err)
	}
	image, err := dst.EncodeState(translated)
	if err != nil {
		return nil, fmt.Errorf("replication: encode: %w", err)
	}
	return image, nil
}

// legsDown reports whether every live leg's host is unhealthy, with
// the first such host's health as detail.
func (r *Replicator) legsDown() (bool, string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	detail := "no live legs"
	for _, l := range r.legs {
		if l.dead {
			continue
		}
		h := l.dst.Health()
		if h == hypervisor.Healthy {
			return false, ""
		}
		if detail == "no live legs" {
			detail = h.String()
		}
	}
	return true, detail
}

// pathsDown reports whether every live leg's transport is down — the
// degraded-mode probe.
func (r *Replicator) pathsDown() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, l := range r.legs {
		if !l.dead && !l.tp.Down() {
			return false
		}
	}
	return true
}

// RunCycle executes one full replication cycle: run the guest for the
// current period T, then checkpoint. It returns the checkpoint's
// statistics.
func (r *Replicator) RunCycle() (CheckpointStats, error) {
	r.mu.Lock()
	if !r.seeded {
		r.mu.Unlock()
		return CheckpointStats{}, ErrNotSeeded
	}
	if r.state == StateFailedOver {
		r.mu.Unlock()
		return CheckpointStats{}, ErrFailedOver
	}
	w := r.cfg.Workload
	r.mu.Unlock()

	if r.src.Health() != hypervisor.Healthy {
		return CheckpointStats{}, fmt.Errorf("%w: %s", ErrPrimaryDown, r.src.Health())
	}
	if down, detail := r.legsDown(); down {
		return CheckpointStats{}, fmt.Errorf("%w: %s", ErrSecondaryDown, detail)
	}

	T := r.Period()
	clock := r.src.Clock()
	// Cache/TLB warmup after the previous resume: wall time passes
	// but the guest makes no progress. The shorter the interval, the
	// bigger the share this costs — which is why very high
	// degradation targets are overshot in practice (§8.6).
	warmup := r.src.Costs().ResumeWarmup
	if warmup > T {
		warmup = T
	}
	clock.Sleep(warmup)
	budget := T - warmup
	// The guest executes for the rest of T. Interleave clock
	// advancement with workload execution in sub-slices so guest
	// activity (stores, outgoing packets) is spread across the
	// interval rather than bunched at its end — the I/O buffering
	// delay of Fig 17 depends on packets arriving throughout the
	// epoch.
	const runSlices = 8
	slice := budget / runSlices
	for i := 0; i < runSlices; i++ {
		d := slice
		if i == runSlices-1 {
			d = budget - slice*(runSlices-1) // absorb rounding
		}
		clock.Sleep(d)
		if w == nil {
			continue
		}
		stats, err := w.Step(r.primary, d)
		if err != nil {
			return CheckpointStats{}, fmt.Errorf("replication: workload: %w", err)
		}
		r.mu.Lock()
		r.totals.WorkloadStats.Add(stats)
		r.mu.Unlock()
	}
	r.mu.Lock()
	r.totals.TotalRun += T
	r.mu.Unlock()

	if r.State() == StateDegraded {
		// Probe the paths before attempting the resync; while the
		// outage lasts the guest just keeps running unprotected, the
		// dirty bitmap accumulating the delta for the eventual resync.
		if r.pathsDown() {
			r.mu.Lock()
			seq := r.seq // the seq the eventual resync checkpoint will take
			r.mu.Unlock()
			st := CheckpointStats{
				Seq: seq, DirtyPages: r.primary.Tracker().Bitmap().Count(),
				RunPeriod: T, NextPeriod: r.Period(), Mode: StateDegraded,
			}
			r.remember(st)
			return st, nil
		}
		return r.checkpoint(T, true)
	}
	return r.checkpoint(T, false)
}

// RunFor executes replication cycles until at least d of simulated
// time has elapsed, returning the per-checkpoint statistics.
func (r *Replicator) RunFor(d time.Duration) ([]CheckpointStats, error) {
	clock := r.src.Clock()
	deadline := clock.Now().Add(d)
	var out []CheckpointStats
	for clock.Now().Before(deadline) {
		st, err := r.RunCycle()
		if err != nil {
			return out, err
		}
		out = append(out, st)
	}
	return out, nil
}

// ReplicaImage returns leg 0's destination-native machine state image
// and memory of the last acknowledged checkpoint. The memory must be
// treated as read-only by callers other than failover.
func (r *Replicator) ReplicaImage() (image []byte, mem *memory.GuestMemory, err error) {
	return r.ReplicaImageAt(0)
}

// historyCap bounds the per-cycle statistics a replicator retains: a
// daemon runs for months, and the full record is the tracer's job.
const historyCap = 128

// remember appends one cycle's statistics to the history ring.
func (r *Replicator) remember(st CheckpointStats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.history) < historyCap {
		r.history = append(r.history, st)
		return
	}
	r.history[r.oldest] = st
	r.oldest = (r.oldest + 1) % historyCap
}

// History returns a copy of the most recent cycles' statistics, oldest
// first — at most the last historyCap (128) cycles.
func (r *Replicator) History() []CheckpointStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]CheckpointStats, 0, len(r.history))
	out = append(out, r.history[r.oldest:]...)
	return append(out, r.history[:r.oldest]...)
}

// Totals returns aggregate statistics. The modeled resident set (§8.7)
// covers per-thread staging (a 2 MiB transfer region plus socket and
// compression buffers), the dirty bitmap, each leg's last state
// image, and the toolstack baseline (libxc/libxl/kvmtool working
// memory). The wire codec adds nothing: its delta baseline is the
// replica memory on the secondary.
func (r *Replicator) Totals() Totals {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.totals
	var legBytes int64
	for _, l := range r.legs {
		legBytes += int64(len(l.lastImage))
	}
	t.RSSBytes = int64(r.threads)*48<<20 +
		int64(r.primary.Memory().NumPages()/8) +
		legBytes +
		96<<20
	return t
}
