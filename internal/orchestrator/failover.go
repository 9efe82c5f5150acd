package orchestrator

import (
	"errors"
	"fmt"

	"github.com/here-ft/here/internal/failover"
	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/journal"
	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/placement"
)

// failoverSource is the replica a failover activates: leg of the live
// session p.rep, or — after a restart, with no session — dep, the
// deposit parked on host. stale lists the journaled chain hosts whose
// deposits the activation leaves a generation behind (a live session's
// are p.secondaries).
type failoverSource struct {
	host  *hypervisor.Host
	leg   int
	dep   *hypervisor.ReplicaDeposit
	stale []*hypervisor.Host
}

// freshestLeg is the replica a failover of p activates: the live,
// seeded leg that acknowledged a checkpoint most recently — so no
// committed epoch regresses even when one secondary was lagging behind
// the quorum — on a healthy host. Caller holds m.mu.
func freshestLeg(p *Protection) (failoverSource, error) {
	if p.rep == nil || len(p.secondaries) == 0 {
		return failoverSource{}, fmt.Errorf("%w: %q runs unprotected", ErrNoReplica, p.Name)
	}
	legIdx, err := p.rep.FreshestLeg()
	if err != nil {
		return failoverSource{}, fmt.Errorf("%w: %v", ErrNoReplica, err)
	}
	targetH, err := p.rep.LegHost(legIdx)
	if err != nil {
		return failoverSource{}, fmt.Errorf("%w: %v", ErrNoReplica, err)
	}
	target, ok := targetH.(*hypervisor.Host)
	if !ok || target.Health() != hypervisor.Healthy {
		return failoverSource{}, fmt.Errorf("%w: secondary %s is %s",
			ErrNoReplica, targetH.HostName(), targetH.Health())
	}
	return failoverSource{host: target, leg: legIdx}, nil
}

// failoverDetail is how one caller's failover reads in the event log.
type failoverDetail struct {
	// resumed formats the failed-over event from the replica's name, its
	// host's name and the resume time.
	resumed string
	// seed names the re-protect's seed, warm or cold, in its event.
	seed bool
}

// failoverTo is the one failover sequence — of Failover, of a failure
// the tick detects and of a primary restart recovery finds dead:
// activate src on another hypervisor under a fresh fencing token, fence
// the old primary's copy and re-protect the survivor.
//
// It syncs twice (journalSync): the intent before any side effect, then
// RecFailover and the re-protect's chain, if a spare was found, before
// it returns. Recovery commits an intent whose RecFailover a machine
// crash lost by probing the target (resolveIntent). A token the guard
// refuses was overtaken by another placement group's activation, so it
// is re-minted. The old primary's copy is destroyed where its host still
// runs, and kept for a warm re-protect when the retired leg was settled.
// The result's VM is nil when nothing was activated. Caller holds m.mu.
func (m *Manager) failoverTo(p *Protection, src failoverSource, detail failoverDetail) (failover.Result, error) {
	gen := p.Generation + 1
	replicaName := fmt.Sprintf("%s-g%d", p.Name, gen)
	settled := src.dep == nil && p.rep.Settled(src.leg) // asked before the activation retires the session
	var (
		token uint64
		res   failover.Result
		err   error
	)
	for {
		token = m.guard.Mint()
		if err := m.journalSync(journal.Record{
			Kind: journal.RecFenceIntent, VM: p.Name,
			Generation: gen, Target: src.host.HostName(), Fence: token,
		}); err != nil {
			return failover.Result{}, err
		}
		err = m.step("activate", "", func() (err error) {
			opts := failover.Options{Guard: m.guard, Token: token, Leg: src.leg, Tracer: p.tr}
			if src.dep != nil {
				res, err = failover.ActivateFromImage(src.host, replicaName, src.dep.Image, src.dep.Mem, opts)
			} else {
				res, err = failover.ActivateOpts(p.rep, replicaName, opts)
			}
			return err
		})
		if !errors.Is(err, failover.ErrFenced) {
			break
		}
	}
	if res.VM == nil {
		return failover.Result{}, fmt.Errorf("orchestrator: vm %q failover: %w", p.Name, err)
	}
	if err != nil {
		return res, err
	}
	p.Generation = gen
	// Fence: the old primary copy must not keep executing beside the
	// activated replica; only one provably stopped may be kept as the next.
	var warm *warmCopy
	if host, ok := p.primary.(*hypervisor.Host); ok && host.Health() == hypervisor.Healthy {
		if err := m.destroyVM(host, p.vm.Name()); err == nil && settled {
			// Stopped for good, so its dirty log is final: the drift.
			warm = &warmCopy{host: host, mem: p.vm.Memory(), drift: p.vm.Tracker().Bitmap()}
		}
	}
	if warm == nil && detail.seed {
		warm = &warmCopy{} // nothing kept: the re-protect names its cold seed
	}
	m.record(EventFailedOver, p.Name, fmt.Sprintf(detail.resumed, replicaName, src.host.HostName(), res.ResumeTime))
	p.vm = res.VM
	p.primary = src.host
	m.retireChain(p)
	for _, h := range src.stale {
		m.dropReplica(h, p.Name)
	}
	if err := m.journalWrite(journal.Record{
		Kind: journal.RecFailover, VM: p.Name,
		Generation: gen, Primary: src.host.HostName(), VMName: replicaName, Fence: token,
	}, false); err != nil {
		return res, err
	}
	err = m.tryReprotect(p, warm, false)
	if serr := m.journalSync(); serr != nil {
		return res, serr
	}
	if err != nil && !errors.Is(err, ErrNoHeterogeneous) {
		return res, err
	}
	return res, nil
}

// retireChain clears a protection's replication chain after its
// replica was activated by a failover: every former secondary's
// deposit is dropped (the activated copy is the live VM, the rest are
// stale generations) and the session state is reset. Caller holds
// m.mu.
func (m *Manager) retireChain(p *Protection) {
	for _, h := range p.secondaries {
		m.dropReplica(h, p.Name)
	}
	closeTransport(p)
	p.secondaries = nil
	p.rep = nil
	p.mon = nil
	p.acked = 0
}

// warmCopy is what a forced failover keeps for the re-protect that
// follows it: the destroyed primary's memory, still on its host, and its
// dirty log, which — the session was settled — names every page where
// that memory differs from the activated replica: what a seed that
// converges it ships, with what the new primary dirtied since. All nil
// when nothing was kept: the old host was unhealthy, DestroyVM failed
// (the copy may still run), or the retiring session was not settled. A
// nil *warmCopy is any other re-protect.
type warmCopy struct {
	host  *hypervisor.Host
	mem   *memory.GuestMemory
	drift *memory.DirtyBitmap
}

// tryReprotect pairs an unprotected VM with a freshly planned chain of
// heterogeneous secondaries and seeds replication again; a leg that
// lands on warm's host is seeded warm. Until its seed returns that leg
// is unseeded like any other and nothing is journaled: a crash mid-seed
// recovers unprotected, then cold, as ever (DESIGN §11). The chain's
// record is waited for if wait (the failure path syncs it). Holds m.mu.
func (m *Manager) tryReprotect(p *Protection, warm *warmCopy, wait bool) error {
	primary, ok := p.primary.(*hypervisor.Host)
	if !ok {
		return fmt.Errorf("orchestrator: vm %q: unexpected host type", p.Name)
	}
	spec := placement.Spec{Name: p.Name, Secondaries: p.want, Primary: primary.HostName(),
		Features: p.vm.MachineState().Features}
	if warm != nil && warm.host != nil {
		spec.Warm = warm.host.HostName()
	}
	asn, err := m.planner.PlanSecondaries(spec, primary, m.hosts)
	if err != nil {
		err = mapPlanErr(err)
		if p.rep == nil {
			m.record(EventUnprotected, p.Name, err.Error())
		}
		return err
	}
	p.decision = asn.Decision
	later, err := m.wire(p, primary, asn.Secondaries, nil, warm)
	if err != nil {
		return err
	}
	detail := fmt.Sprintf("%s (%s) -> %s", primary.HostName(), primary.Product(),
		chainDetail(asn.Secondaries))
	// Distinct pages, at most the guest's per leg; what a busy guest made
	// the later rounds carry is counted apart.
	first := p.rep.Totals().PagesSent - later
	seed, seeds := "cold seed", m.seedsCold
	for _, ch := range asn.Decision.Secondaries {
		if ch.Warm {
			seed = fmt.Sprintf("warm seed: %d of %d pages", first,
				len(asn.Secondaries)*int(p.vm.Memory().NumPages()))
			if later > 0 {
				seed += fmt.Sprintf(", %d more in later rounds", later)
			}
			seeds = m.seedsWarm
		}
	}
	seeds.Inc()
	m.seedPages.Add(first)
	m.seedLater.Add(later)
	if warm != nil { // a forced failover: the only re-protect with a choice to report
		detail += "; " + seed
	}
	m.record(EventReprotected, p.Name, detail)
	return m.journalWrite(chainRecord(p.Name, asn.Secondaries), wait)
}
