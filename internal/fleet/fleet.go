// Package fleet shards an orchestrated fleet into placement groups so
// protection-loop work scales across cores instead of serializing on
// one manager mutex. Each group is a full orchestrator.Manager owning
// a consistent-hash slice of the protections, its own lock, and (under
// the control-plane daemon) its own pump goroutine with a jittered
// phase so groups don't checkpoint or fsync in lockstep. The groups
// share the host fleet, the fencing guard, the journal (whose
// group-commit batcher folds their concurrent appends into one fsync)
// and a global event sequencer whose frontier keeps the merged event
// log monotone, gapless and duplicate-free.
//
// Scheduler is the one fleet the control-plane daemon runs; one group
// is the unsharded case. It routes the Manager surface to the groups,
// and every read it serves
// (Status, StatusAll, HostsStatus, events) comes from the groups'
// RCU-published snapshots, so API handlers never wait behind a group's
// in-flight checkpoint.
package fleet

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/here-ft/here/internal/failover"
	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/orchestrator"
	"github.com/here-ft/here/internal/placement"
	"github.com/here-ft/here/internal/recovery"
	"github.com/here-ft/here/internal/trace"
	"github.com/here-ft/here/internal/transport"
	"github.com/here-ft/here/internal/vclock"
)

// Config parameterizes a Scheduler.
type Config struct {
	// Groups is the placement-group count (default 1). Group count is
	// a deployment knob, not journaled state: a fleet recovered under
	// a different count re-routes every protection consistently.
	Groups int
	// Orchestrator is the per-group manager configuration. Guard,
	// Events and Owns are overridden — every group shares the
	// scheduler's guard and sequencer, and owns its ring slice.
	Orchestrator orchestrator.Config
}

// group is one placement group: a manager plus its pump bookkeeping.
type group struct {
	id  int
	mgr *orchestrator.Manager

	ticks  atomic.Uint64 // rounds this group has run
	tickNS atomic.Int64  // last round's duration
}

func (g *group) tick() error {
	start := time.Now()
	err := g.mgr.Tick()
	g.tickNS.Store(time.Since(start).Nanoseconds())
	g.ticks.Add(1)
	if err != nil {
		return fmt.Errorf("group %d: %w", g.id, err)
	}
	return nil
}

// GroupStatus is one placement group's rollup row.
type GroupStatus struct {
	// Group is the group id (0-based, stable for a given group count).
	Group int
	// Protections is the group's current protection count.
	Protections int
	// Ticks is how many rounds the group has run.
	Ticks uint64
	// LastTick is the duration of the group's most recent round.
	LastTick time.Duration
}

// Scheduler shards protections across placement groups and routes the
// Manager surface to them. It is safe for concurrent use.
type Scheduler struct {
	ring   *ring
	seq    *Sequencer
	guard  *failover.Guard
	groups []*group
	ocfg   orchestrator.Config

	pumpMu   sync.Mutex
	pumpStop chan struct{}
	pumpDone sync.WaitGroup
	rounds   atomic.Uint64
}

// New builds a scheduler with cfg.Groups placement groups sharing the
// fleet's clock, metrics, journal, hosts and fencing guard.
func New(cfg Config) (*Scheduler, error) {
	if cfg.Groups <= 0 {
		cfg.Groups = 1
	}
	guard := cfg.Orchestrator.Guard
	if guard == nil {
		guard = failover.NewGuard(0)
	}
	s := &Scheduler{
		ring:  newRing(cfg.Groups),
		seq:   NewSequencer(),
		guard: guard,
		ocfg:  cfg.Orchestrator,
	}
	for i := 0; i < cfg.Groups; i++ {
		gid := i
		ocfg := cfg.Orchestrator
		ocfg.Guard = guard
		ocfg.Events = s.seq
		ocfg.Owns = func(name string) bool { return s.ring.owner(name) == gid }
		mgr, err := orchestrator.New(ocfg)
		if err != nil {
			return nil, err
		}
		s.groups = append(s.groups, &group{id: gid, mgr: mgr})
	}
	return s, nil
}

// Groups reports the placement-group count.
func (s *Scheduler) Groups() int { return len(s.groups) }

// Owner reports which group a protection name routes to.
func (s *Scheduler) Owner(name string) int { return s.ring.owner(name) }

// Group exposes one group's manager (tests, examples).
func (s *Scheduler) Group(i int) *orchestrator.Manager { return s.groups[i].mgr }

// groupFor routes a protection name to its owning group's manager.
func (s *Scheduler) groupFor(name string) *orchestrator.Manager {
	return s.groups[s.ring.owner(name)].mgr
}

// Guard exposes the shared fencing gate.
func (s *Scheduler) Guard() *failover.Guard { return s.guard }

// Clock returns the clock driving the fleet.
func (s *Scheduler) Clock() vclock.Clock { return s.ocfg.Clock }

// Metrics returns the fleet-wide metrics registry (nil unless
// configured).
func (s *Scheduler) Metrics() *trace.Registry { return s.ocfg.Metrics }

// AddHost registers a host with every placement group: the groups
// schedule onto one shared fleet (a *hypervisor.Host is itself
// concurrency-safe).
func (s *Scheduler) AddHost(h *hypervisor.Host) error {
	for _, g := range s.groups {
		if err := g.mgr.AddHost(h); err != nil {
			return err
		}
	}
	return nil
}

// Hosts lists registered host names, sorted.
func (s *Scheduler) Hosts() []string { return s.groups[0].mgr.Hosts() }

// HostsStatus snapshots every registered host, sorted by name.
// Lock-free (every group publishes the same shared host list; group
// 0's snapshot serves).
func (s *Scheduler) HostsStatus() []orchestrator.HostInfo {
	return s.groups[0].mgr.HostsStatus()
}

// AttachPeerServer registers the daemon's secondary-side transport
// listener with group 0 (TransportStatus merges all groups, so one
// registration suffices).
func (s *Scheduler) AttachPeerServer(srv *transport.Server) {
	s.groups[0].mgr.AttachPeerServer(srv)
}

// TransportStatus merges every group's transport endpoints.
func (s *Scheduler) TransportStatus() []transport.PeerStatus {
	var out []transport.PeerStatus
	for _, g := range s.groups {
		out = append(out, g.mgr.TransportStatus()...)
	}
	return out
}

// PlacementMatrix snapshots the pairwise placement scores of the
// shared host fleet.
func (s *Scheduler) PlacementMatrix() []placement.MatrixEntry {
	return s.groups[0].mgr.PlacementMatrix()
}

// Protect routes the protection to its ring group.
func (s *Scheduler) Protect(spec orchestrator.VMSpec) (*orchestrator.Protection, error) {
	return s.groupFor(spec.Name).Protect(spec)
}

// Unprotect routes to the owning group.
func (s *Scheduler) Unprotect(name string) error {
	return s.groupFor(name).Unprotect(name)
}

// Failover routes to the owning group.
func (s *Scheduler) Failover(name string) (failover.Result, error) {
	return s.groupFor(name).Failover(name)
}

// SetPeriod routes to the owning group.
func (s *Scheduler) SetPeriod(name string, d float64, tmax time.Duration) (time.Duration, error) {
	return s.groupFor(name).SetPeriod(name, d, tmax)
}

// SetRecovery routes to the owning group.
func (s *Scheduler) SetRecovery(name string, pol recovery.Policy) (recovery.Policy, error) {
	return s.groupFor(name).SetRecovery(name, pol)
}

// Status routes to the owning group. Lock-free.
func (s *Scheduler) Status(name string) (orchestrator.Status, error) {
	return s.groupFor(name).Status(name)
}

// Lookup routes to the owning group.
func (s *Scheduler) Lookup(name string) (*orchestrator.Protection, error) {
	return s.groupFor(name).Lookup(name)
}

// StatusAll merges every group's published snapshot, sorted by name.
// Lock-free. Each group's snapshot is already sorted, so a k-way merge
// copies every row once instead of sorting the concatenation.
func (s *Scheduler) StatusAll() []orchestrator.Status {
	if len(s.groups) == 1 {
		return s.groups[0].mgr.StatusAll()
	}
	parts := make([][]orchestrator.Status, len(s.groups))
	n := 0
	for i, g := range s.groups {
		parts[i] = g.mgr.StatusAll()
		n += len(parts[i])
	}
	out := make([]orchestrator.Status, n)
	for i := range out {
		next := -1
		for j, p := range parts {
			if len(p) > 0 && (next < 0 || p[0].Name < parts[next][0].Name) {
				next = j
			}
		}
		out[i] = parts[next][0]
		parts[next] = parts[next][1:]
	}
	return out
}

// Protections lists protected VM names across all groups, sorted.
func (s *Scheduler) Protections() []string {
	var out []string
	for _, g := range s.groups {
		out = append(out, g.mgr.Protections()...)
	}
	sort.Strings(out)
	return out
}

// ProtectionCount sums the groups' published protection counts.
// Lock-free.
func (s *Scheduler) ProtectionCount() int {
	n := 0
	for _, g := range s.groups {
		n += g.mgr.ProtectionCount()
	}
	return n
}

// EventsSince merges the per-group event logs into the global cursor
// stream: events with Seq > since, ascending, truncated at the
// sequencer frontier so the merged stream never shows a later number
// before an earlier one is visible (no gaps, no duplicates — today's
// single-manager EventsSince semantics, preserved across shards).
// Lock-free.
func (s *Scheduler) EventsSince(since uint64) []orchestrator.Event {
	frontier := s.seq.Frontier()
	if frontier <= since {
		return nil
	}
	var out []orchestrator.Event
	for _, g := range s.groups {
		for _, ev := range g.mgr.EventsSince(since) {
			if ev.Seq <= frontier {
				out = append(out, ev)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Events returns the merged fleet event log.
func (s *Scheduler) Events() []orchestrator.Event { return s.EventsSince(0) }

// LastEventSeq reports the newest globally visible sequence number —
// the frontier, so a poller's cursor never runs ahead of what
// EventsSince can serve.
func (s *Scheduler) LastEventSeq() uint64 { return s.seq.Frontier() }

// Tick runs one synchronized round: every group ticks concurrently
// (each under its own lock), and the groups' errors are aggregated.
// The daemon normally uses StartPump's per-group goroutines instead;
// Tick is for tests and library use.
func (s *Scheduler) Tick() error {
	errs := make([]error, len(s.groups))
	var wg sync.WaitGroup
	for i, g := range s.groups {
		wg.Add(1)
		go func(i int, g *group) {
			defer wg.Done()
			errs[i] = g.tick()
		}(i, g)
	}
	wg.Wait()
	s.rounds.Add(1)
	return errors.Join(errs...)
}

// Ticks reports how many rounds the scheduler has run (one per Tick
// call; under StartPump, one per individual group round — the pump
// health signal /readyz was already using).
func (s *Scheduler) Ticks() uint64 { return s.rounds.Load() }

// StartPump launches one pump goroutine per group, phase-shifted by
// i/G of the interval so the groups' rounds — and therefore their
// journal appends — spread across the interval instead of arriving in
// lockstep. The offset keeps the group-commit batcher's flush window
// absorbing genuine concurrency (appends from groups mid-round)
// rather than synchronized bursts. interval must be positive
// (controlplane.DefaultPumpInterval is the daemon's). logf, when
// non-nil, receives per-group round errors. Idempotent until StopPump.
func (s *Scheduler) StartPump(interval time.Duration, logf func(string, ...any)) {
	s.pumpMu.Lock()
	defer s.pumpMu.Unlock()
	if s.pumpStop != nil {
		return
	}
	stop := make(chan struct{})
	s.pumpStop = stop
	for i, g := range s.groups {
		phase := interval * time.Duration(i) / time.Duration(len(s.groups))
		s.pumpDone.Add(1)
		go s.pump(g, interval, phase, stop, logf)
	}
}

func (s *Scheduler) pump(g *group, interval, phase time.Duration, stop <-chan struct{}, logf func(string, ...any)) {
	defer s.pumpDone.Done()
	delay := time.NewTimer(phase)
	select {
	case <-stop:
		delay.Stop()
		return
	case <-delay.C:
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			if err := g.tick(); err != nil && logf != nil {
				logf("fleet pump: %v", err)
			}
			s.rounds.Add(1)
		}
	}
}

// StopPump stops the per-group pumps and waits for in-flight rounds.
func (s *Scheduler) StopPump() {
	s.pumpMu.Lock()
	stop := s.pumpStop
	s.pumpStop = nil
	s.pumpMu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	s.pumpDone.Wait()
}

// GroupStatus reports one rollup row per placement group, ordered by
// group id. Lock-free.
func (s *Scheduler) GroupStatus() []GroupStatus {
	out := make([]GroupStatus, 0, len(s.groups))
	for _, g := range s.groups {
		out = append(out, GroupStatus{
			Group:       g.id,
			Protections: g.mgr.ProtectionCount(),
			Ticks:       g.ticks.Load(),
			LastTick:    time.Duration(g.tickNS.Load()),
		})
	}
	return out
}

// Recover rebuilds the fleet's protections from the journaled state —
// the counterpart of the write-ahead records every mutating operation
// appends — and is the one recovery entry point. It must run on a
// freshly built Scheduler (hosts added, no protections) whose
// Config.Orchestrator.Journal replayed the previous lifetime's
// snapshot + log.
//
// Recovery establishes a new fencing generation strictly above
// everything the previous lifetime minted — so a pre-crash primary
// that raced a failover can never be re-activated — then brings each
// journaled protection back by the cheapest safe path:
//
//   - an unresolved activation intent is resolved by probing the
//     target host for the activated replica (completed → commit it,
//     never started → void under the new fence);
//   - a live VM on the journaled primary with a replica deposit on the
//     journaled secondary resumes replication in degraded mode — the
//     next cycle ships a delta resync from the acked epoch, not a full
//     re-seed;
//   - a live VM without a usable deposit re-seeds;
//   - a missing VM (the hosts restarted too) is recreated from the
//     journaled spec, preserving its generation;
//   - a dead primary with a surviving deposit is failed over from the
//     deposit, exactly as if the failure had been detected live;
//   - anything else is service-lost.
//
// The journal is shared, so the phases are coordinated across groups:
// the state is captured ONCE; (1) every group resolves its pending
// activation intents against that same capture; (2) exactly one group
// appends the fence record establishing the new generation (the guard
// is shared, so it covers all groups); (3) each group recovers its
// owned protections. Running phases 1–2 per-group instead would lose
// resolutions — the fence record voids every pending intent on replay,
// including other groups'. Phase 3 fans out the way Tick does: the
// capture is read-only by then, groups own disjoint names under their
// own locks, and hosts, guard, sequencer and journal already serve
// concurrent ticks — so the groups' transport dials overlap and their
// journal appends share group commits. Every group runs to its own
// end; the report sums what came back and the error joins the groups
// that failed.
func (s *Scheduler) Recover() (orchestrator.RecoverReport, error) {
	var total orchestrator.RecoverReport
	j := s.ocfg.Journal
	if j == nil {
		return total, errors.New("fleet: recover without a journal")
	}
	st := j.State()
	for _, g := range s.groups {
		if err := g.mgr.ResolveIntents(&st); err != nil {
			return total, fmt.Errorf("group %d: %w", g.id, err)
		}
	}
	fence, err := s.groups[0].mgr.FenceRecovery(&st)
	if err != nil {
		return total, err
	}
	total.Fence = fence
	reps := make([]orchestrator.RecoverReport, len(s.groups))
	errs := make([]error, len(s.groups))
	var wg sync.WaitGroup
	for i, g := range s.groups {
		wg.Add(1)
		go func(i int, g *group) {
			defer wg.Done()
			rep, err := g.mgr.RecoverProtections(&st)
			reps[i] = rep
			if err != nil {
				errs[i] = fmt.Errorf("group %d: %w", g.id, err)
			}
		}(i, g)
	}
	wg.Wait()
	for _, rep := range reps {
		total.Resumed += rep.Resumed
		total.Reseeded += rep.Reseeded
		total.Recreated += rep.Recreated
		total.FailedOver += rep.FailedOver
		total.Unprotected += rep.Unprotected
		total.Lost += rep.Lost
	}
	return total, errors.Join(errs...)
}
