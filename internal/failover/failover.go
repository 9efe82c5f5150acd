// Package failover detects primary-host failures via heartbeats and
// activates the replica VM on the secondary hypervisor (paper §8.2:
// "we rely on a periodic heartbeat between the primary and replica
// hosts"; §8.4: replica resumption).
package failover

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/here-ft/here/internal/blockdev"
	"github.com/here-ft/here/internal/devices"
	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/replication"
	"github.com/here-ft/here/internal/trace"
	"github.com/here-ft/here/internal/vclock"
)

// Heartbeat defaults.
const (
	DefaultInterval = 100 * time.Millisecond
	DefaultTimeout  = 300 * time.Millisecond
)

// Errors reported by detection and activation.
var (
	// ErrNoFailure is returned by WaitForFailure when the primary
	// stayed healthy for the whole observation window.
	ErrNoFailure = errors.New("failover: primary stayed healthy")
	// ErrSplitBrain is returned by activation when the split-brain
	// guard's out-of-band probe still sees the primary healthy: the
	// heartbeat path failed, not the host, and activating the replica
	// would leave two live copies of the VM.
	ErrSplitBrain = errors.New("failover: primary still observably healthy; refusing split-brain activation")
	// ErrAlreadyActivated is returned by activation when the replica
	// was already activated from this replicator.
	ErrAlreadyActivated = errors.New("failover: replica already activated")
	// ErrFenced is returned by activation when the presented fencing
	// token does not exceed the guard's current generation: the token
	// was minted before a newer activation (or a control-plane restart)
	// advanced the generation, so its holder is a stale primary-era
	// actor that must not bring a second copy of the VM to life.
	ErrFenced = errors.New("failover: fencing token superseded; refusing stale activation")
)

// Guard is a monotone fencing-generation gate shared by every
// activation path of a control plane. Tokens are minted by reserving
// generation+1, durably journaled, and then presented to Admit: a
// token at or below the current generation — because a concurrent
// activation won, or because a restart bumped the generation past
// every pre-crash token — is refused with ErrFenced. This is what
// makes a pre-crash primary that raced a failover impossible to
// re-activate after the control plane comes back.
type Guard struct {
	mu   sync.Mutex
	gen  uint64
	next uint64 // highest token handed out by Mint (>= gen)
}

// NewGuard returns a guard at the given generation (typically the
// journaled fence value).
func NewGuard(gen uint64) *Guard {
	return &Guard{gen: gen}
}

// Generation reports the current fencing generation.
func (g *Guard) Generation() uint64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.gen
}

// Advance raises the generation to at least gen (monotone; lower
// values are ignored). Called on restart with the journaled fence so
// generations strictly increase across control-plane lifetimes.
func (g *Guard) Advance(gen uint64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if gen > g.gen {
		g.gen = gen
	}
}

// Mint reserves a fresh fencing token strictly above both the current
// generation and every previously minted token. Concurrent minters
// (sharded placement groups failing over in parallel) therefore never
// collide; an earlier-minted token admitted after a later one is still
// refused by Admit — that activation simply retries on the next round.
func (g *Guard) Mint() uint64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.next < g.gen {
		g.next = g.gen
	}
	g.next++
	return g.next
}

// Admit consumes a fencing token: the token must strictly exceed the
// current generation, which then advances to it. A superseded token is
// refused with ErrFenced. Nil guards admit everything (fencing not
// configured).
func (g *Guard) Admit(token uint64) error {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if token <= g.gen {
		return fmt.Errorf("%w (token %d, generation %d)", ErrFenced, token, g.gen)
	}
	g.gen = token
	return nil
}

// Path is the heartbeat route a Monitor observes: *simnet.Link and the
// real TCP transport's client both satisfy it. Structural typing keeps
// the packages decoupled.
type Path interface {
	// Down reports whether the path is currently unusable.
	Down() bool
	// PropagationDelay is the one-way latency estimate; a round trip
	// exceeding the heartbeat interval counts as a missed beat.
	PropagationDelay() time.Duration
}

// Config tunes a heartbeat monitor. The zero value uses the defaults.
type Config struct {
	// Interval is the heartbeat period; Timeout is the detection
	// budget the consecutive-miss threshold is derived from.
	Interval, Timeout time.Duration
	// Misses is the number of consecutive missed heartbeats required
	// to declare the primary dead; 0 derives ceil(Timeout/Interval).
	// Requiring several misses keeps transient latency spikes on the
	// heartbeat path from triggering spurious failovers.
	Misses int
	// Via routes heartbeats over a monitored path: a down path, or a
	// propagation delay pushing the round-trip past the heartbeat
	// interval, counts as a missed beat. Nil observes the host
	// directly (a dedicated management path).
	Via Path
	// Tracer records each missed heartbeat as a discrete event. Nil
	// disables tracing.
	Tracer *trace.Tracer
	// Metrics, when set, registers here_failover_heartbeat_misses_total.
	Metrics *trace.Registry
}

// Monitor watches the primary host with a periodic heartbeat.
type Monitor struct {
	primary  hypervisor.Hypervisor
	clock    vclock.Clock
	interval time.Duration
	timeout  time.Duration
	misses   int
	via      Path
	tracer   *trace.Tracer
	missedC  *trace.Counter
}

// NewMonitorConfig returns a heartbeat monitor for the primary host
// under cfg; its zero fields use the defaults.
func NewMonitorConfig(primary hypervisor.Hypervisor, cfg Config) (*Monitor, error) {
	if primary == nil {
		return nil, errors.New("failover: nil primary")
	}
	if cfg.Interval < 0 || cfg.Timeout < 0 {
		return nil, fmt.Errorf("failover: negative interval %v or timeout %v", cfg.Interval, cfg.Timeout)
	}
	if cfg.Misses < 0 {
		return nil, fmt.Errorf("failover: negative miss threshold %d", cfg.Misses)
	}
	if cfg.Interval == 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = DefaultTimeout
	}
	misses := cfg.Misses
	if misses == 0 {
		misses = int((cfg.Timeout + cfg.Interval - 1) / cfg.Interval)
		if misses < 1 {
			misses = 1
		}
	}
	m := &Monitor{
		primary:  primary,
		clock:    primary.Clock(),
		interval: cfg.Interval,
		timeout:  cfg.Timeout,
		misses:   misses,
		via:      cfg.Via,
		tracer:   cfg.Tracer,
	}
	if cfg.Metrics != nil {
		m.missedC = cfg.Metrics.Counter("here_failover_heartbeat_misses_total",
			"heartbeats that failed to arrive on schedule")
	}
	return m, nil
}

// Misses reports the consecutive-miss threshold in effect.
func (m *Monitor) Misses() int { return m.misses }

// Healthy is the split-brain guard's out-of-band probe: it checks the
// primary host directly, bypassing the (possibly faulty) heartbeat
// path. A monitor that declared the primary dead because the link
// died will still report Healthy here.
func (m *Monitor) Healthy() bool {
	return m.primary.Health() == hypervisor.Healthy
}

// beatMissed reports whether one heartbeat failed to arrive on
// schedule: the primary is down, or the heartbeat path is down or so
// slow the beat overshoots its deadline.
func (m *Monitor) beatMissed() bool {
	if m.primary.Health() != hypervisor.Healthy {
		return true
	}
	if m.via != nil {
		if m.via.Down() {
			return true
		}
		if rtt := 2 * m.via.PropagationDelay(); rtt > m.interval {
			return true
		}
	}
	return false
}

// WaitForFailure polls heartbeats until the consecutive-miss threshold
// declares the primary dead or maxWait elapses, returning the
// detection latency from the start of the call. Each beat's verdict
// costs one heartbeat interval — a beat is only known missed when it
// fails to arrive on schedule — so detection takes Misses() intervals
// past the failure, plus the phase of the interval the failure fell
// into. A single missed beat (latency spike, one lost heartbeat) does
// not trigger detection; the counter resets on the next healthy beat.
func (m *Monitor) WaitForFailure(maxWait time.Duration) (time.Duration, error) {
	start := m.clock.Now()
	deadline := start.Add(maxWait)
	misses := 0
	for {
		m.clock.Sleep(m.interval)
		if m.beatMissed() {
			misses++
			m.missedC.Inc()
			m.tracer.Event(trace.EventHeartbeatMiss, trace.NoEpoch, trace.Event{
				Note: fmt.Sprintf("miss %d/%d", misses, m.misses),
			})
			if misses >= m.misses {
				return m.clock.Since(start), nil
			}
			continue
		}
		misses = 0
		if !m.clock.Now().Before(deadline) {
			return 0, ErrNoFailure
		}
	}
}

// Result describes a completed failover.
type Result struct {
	// ResumeTime is Fig 7's metric: from the secondary host learning
	// of the failure to the replica VM running.
	ResumeTime time.Duration
	// PacketsDropped is the buffered output discarded because its
	// checkpoints were never acknowledged — output from execution
	// that logically never happened.
	PacketsDropped int
	// DiskWritesDropped is the number of journaled sector writes
	// discarded for the same reason (the replica disk stays at the
	// last acknowledged checkpoint).
	DiskWritesDropped int
	// Disk is the replica-side disk the activated VM should use, if a
	// replicated disk was attached.
	Disk *blockdev.Disk
	// VM is the activated replica.
	VM *hypervisor.VM
}

// AutoLeg selects the freshest healthy chain leg automatically (see
// Options.Leg).
const AutoLeg = -1

// Options tunes replica activation.
type Options struct {
	// Agent performs the guest-visible device replug, if any.
	Agent devices.GuestAgent
	// Leg selects which chain leg's replica to activate. The zero value
	// is leg 0 — the paper's pairwise failover. AutoLeg activates the
	// leg with the freshest acknowledged epoch (Replicator.FreshestLeg),
	// the right policy for 1+N chains where a lagging or stale secondary
	// must not win over a fresher one.
	Leg int
	// Monitor, when set, arms the split-brain guard: activation is
	// refused with ErrSplitBrain while the monitor's out-of-band probe
	// still sees the primary healthy.
	Monitor *Monitor
	// Force overrides the split-brain guard (operator says the primary
	// really is gone, e.g. it is fenced off at the power strip).
	Force bool
	// Guard, when set, arms fencing: Token is presented to the guard
	// before any side effect, and a superseded token is refused with
	// ErrFenced. The control plane journals the token before minting
	// it, so the fence survives a crash-restart.
	Guard *Guard
	// Token is the fencing token presented to Guard.
	Token uint64
	// Tracer records activation-phase spans for activations that do
	// not go through a Replicator (ActivateFromImage); ActivateOpts
	// uses the replicator's tracer instead. Nil disables tracing.
	Tracer *trace.Tracer
}

// ActivateOpts builds and resumes the replica VM from the replicator's
// last acknowledged checkpoint: decode the translated state image,
// restore it with the replicated memory, perform the guest-visible
// device replug, and resume (paper §7.3, §8.4). It refuses double
// activation (ErrAlreadyActivated), refuses split-brain activation
// while opts.Monitor still sees the primary healthy unless opts.Force
// (ErrSplitBrain), and marks the replicator failed-over on success so
// further checkpoint cycles stop.
func ActivateOpts(r *replication.Replicator, replicaName string, opts Options) (Result, error) {
	var res Result
	if r == nil {
		return res, errors.New("failover: nil replicator")
	}
	if r.State() == replication.StateFailedOver {
		return res, ErrAlreadyActivated
	}
	if opts.Monitor != nil && !opts.Force && opts.Monitor.Healthy() {
		return res, ErrSplitBrain
	}
	if err := opts.Guard.Admit(opts.Token); err != nil {
		return res, err
	}
	// Fencing admitted (or not configured): disarm the guard so the
	// shared activation core does not consume the token twice.
	opts.Guard, opts.Token = nil, 0
	leg := opts.Leg
	if leg == AutoLeg {
		var err error
		if leg, err = r.FreshestLeg(); err != nil {
			return res, fmt.Errorf("failover: %w", err)
		}
	}
	dst, err := r.LegHost(leg)
	if err != nil {
		return res, fmt.Errorf("failover: %w", err)
	}
	if dst.Health() != hypervisor.Healthy {
		return res, fmt.Errorf("failover: secondary host is %s", dst.Health())
	}
	image, mem, err := r.ReplicaImageAt(leg)
	if err != nil {
		return res, fmt.Errorf("failover: %w", err)
	}

	clock := dst.Clock()
	start := clock.Now()
	opts.Tracer = r.Tracer()
	phase := func(name string, begin time.Time) {
		opts.Tracer.Span(trace.SpanFailover, trace.NoEpoch, begin, trace.Event{Note: name})
	}

	// Un-acknowledged buffered output must never reach clients, and
	// un-acknowledged disk writes never reach the replica disk.
	phaseStart := clock.Now()
	res.PacketsDropped = r.IOBuffer().DiscardUnreleased()
	if d := r.Disk(); d != nil {
		res.DiskWritesDropped = d.DiscardUnacked()
		res.Disk = d.Replica()
	}
	phase("discard", phaseStart)

	res2, err := ActivateFromImage(dst, replicaName, image, mem, opts)
	res2.ResumeTime = clock.Since(start)
	res2.PacketsDropped = res.PacketsDropped
	res2.DiskWritesDropped = res.DiskWritesDropped
	res2.Disk = res.Disk
	if err != nil {
		return res2, err
	}
	r.MarkFailedOver()
	return res2, nil
}

// ActivateFromImage builds and resumes a replica VM directly from a
// checkpoint image and replicated memory, without a live Replicator.
// This is the restart-recovery path: after a control-plane crash the
// replicator object is gone, but the secondary host still holds the
// last acknowledged image + memory, and if the primary died while the
// control plane was down the replica must be activated from exactly
// that. The same fencing and split-brain policies in opts apply.
func ActivateFromImage(dst hypervisor.Hypervisor, replicaName string, image []byte, mem *memory.GuestMemory, opts Options) (Result, error) {
	var res Result
	if dst == nil {
		return res, errors.New("failover: nil destination host")
	}
	if opts.Monitor != nil && !opts.Force && opts.Monitor.Healthy() {
		return res, ErrSplitBrain
	}
	if err := opts.Guard.Admit(opts.Token); err != nil {
		return res, err
	}
	if dst.Health() != hypervisor.Healthy {
		return res, fmt.Errorf("failover: secondary host is %s", dst.Health())
	}
	if len(image) == 0 || mem == nil {
		return res, errors.New("failover: no checkpoint image to activate from")
	}

	clock := dst.Clock()
	start := clock.Now()
	// Each activation phase is recorded as a "failover" span whose Note
	// names the phase (§8.4's resumption breakdown).
	phase := func(name string, begin time.Time) {
		opts.Tracer.Span(trace.SpanFailover, trace.NoEpoch, begin, trace.Event{Note: name})
	}

	phaseStart := clock.Now()
	state, err := dst.DecodeState(image)
	if err != nil {
		return res, fmt.Errorf("failover: decode checkpoint: %w", err)
	}
	phase("decode", phaseStart)
	cfg := hypervisor.VMConfig{
		Name:     replicaName,
		MemBytes: mem.SizeBytes(),
		VCPUs:    len(state.VCPUs),
		Features: state.Features,
	}
	phaseStart = clock.Now()
	vm, err := dst.RestoreVM(cfg, state, mem)
	if err != nil {
		return res, fmt.Errorf("failover: restore: %w", err)
	}
	phase("restore", phaseStart)
	phaseStart = clock.Now()
	mgr := devices.NewManager(opts.Agent)
	if err := mgr.FailoverReplug(vm, dst); err != nil {
		return res, fmt.Errorf("failover: %w", err)
	}
	phase("replug", phaseStart)
	phaseStart = clock.Now()
	vm.Resume()
	phase("resume", phaseStart)

	res.ResumeTime = clock.Since(start)
	res.VM = vm
	return res, nil
}
