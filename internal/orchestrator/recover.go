package orchestrator

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/journal"
	"github.com/here-ft/here/internal/placement"
	"github.com/here-ft/here/internal/recovery"
	"github.com/here-ft/here/internal/replication"
)

// RecoverReport summarizes a restart-recovery: how each journaled
// protection was brought back.
type RecoverReport struct {
	// Fence is the fencing generation established by this recovery —
	// strictly greater than any generation (or minted token) of the
	// previous control-plane lifetime.
	Fence uint64
	// Resumed protections re-attached to surviving replica state and
	// will delta-resync on their next cycle (no full re-seed).
	Resumed int
	// Reseeded protections found their VM alive but no usable replica
	// deposit (e.g. the secondary rebooted) and ran a full re-seed.
	Reseeded int
	// Recreated protections found no VM on the journaled primary (the
	// simulated hosts restarted with the daemon) and were rebuilt from
	// the journaled spec.
	Recreated int
	// FailedOver protections lost their primary while the control
	// plane was down and were activated from the replica deposit.
	FailedOver int
	// Unprotected protections came back without a live secondary and
	// wait for re-pairing on the next ticks.
	Unprotected int
	// Lost protections had no host left to run them.
	Lost int
}

// adoptWatermarks raises the event sequencer and fencing guard to the
// journaled watermarks. Idempotent, so each recovery phase can call it
// (fleet.Scheduler.Recover runs the phases on different groups).
// Caller holds m.mu.
func (m *Manager) adoptWatermarks(st *journal.State) {
	m.seq.Advance(st.EventSeq)
	if st.EventSeq > m.lastSeq.Load() {
		m.lastSeq.Store(st.EventSeq)
	}
	m.guard.Advance(st.Fence)
}

// ownedNames lists the journaled protections this manager's placement
// group owns, sorted. Caller holds m.mu.
func (m *Manager) ownedNames(st *journal.State) []string {
	names := make([]string, 0, len(st.Protections))
	for name := range st.Protections {
		if m.owns(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// ResolveIntents is recovery phase 1: every owned protection's pending
// activation intent is resolved against reality (did the activation
// complete before the crash?), mutating st in place so phase 3 sees
// the resolution. With a sharded fleet every group runs this phase —
// against the SAME captured journal state — before any group appends
// the phase-2 fence record, because that record voids all pendings on
// replay.
func (m *Manager) ResolveIntents(st *journal.State) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	// Adopt the journaled fence before resolving intents (so their
	// tokens compare against the right base); phase 2 bumps it.
	m.adoptWatermarks(st)
	for _, name := range m.ownedNames(st) {
		jp := st.Protections[name]
		if jp.Pending == nil || jp.Lost {
			continue
		}
		if err := m.resolveIntent(name, jp); err != nil {
			return err
		}
	}
	return nil
}

// FenceRecovery is recovery phase 2: append the RecFence record
// establishing the new fencing generation (st.Fence + 1) and advance
// the guard past it. Every token the previous lifetime minted is
// ≤ st.Fence, so none can activate anything from here on. With a
// sharded fleet exactly ONE group runs this phase on behalf of all
// (the guard is shared); st.Fence is updated in place.
func (m *Manager) FenceRecovery(st *journal.State) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.adoptWatermarks(st)
	fence := st.Fence + 1
	if err := m.journalSync(journal.Record{Kind: journal.RecFence, Fence: fence}); err != nil {
		return 0, err
	}
	m.guard.Advance(fence)
	st.Fence = fence
	return fence, nil
}

// RecoverProtections is recovery phase 3: bring each owned journaled
// protection back by the cheapest safe path. Must run on a manager
// with hosts added and no protections.
func (m *Manager) RecoverProtections(st *journal.State) (RecoverReport, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	defer m.publishAll()
	var rep RecoverReport
	if len(m.prots) > 0 {
		return rep, errors.New("orchestrator: recover on a manager that already has protections")
	}
	m.adoptWatermarks(st)
	rep.Fence = st.Fence
	for _, name := range m.ownedNames(st) {
		if err := m.recoverOne(name, st.Protections[name], &rep); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// resolveIntent decides the fate of a crash-interrupted activation:
// if the replica VM exists on the intent's target host the activation
// completed before the crash, so commit it into the journaled state;
// otherwise the intent died un-acted-on and is void. Caller holds
// m.mu; jp is mutated in place (it feeds recoverOne).
func (m *Manager) resolveIntent(name string, jp *journal.Protection) error {
	pending := jp.Pending
	jp.Pending = nil
	target := m.hostByName(pending.Target)
	if target == nil || target.Health() != hypervisor.Healthy {
		return nil // target gone: the activation cannot have survived
	}
	replicaName := fmt.Sprintf("%s-g%d", name, pending.Generation)
	if _, err := target.LookupVM(replicaName); err != nil {
		return nil // never activated: void under the new fence
	}
	// The activation completed. Destroy the stale pre-failover copy if
	// its host still runs it — the replica is the one true VM now.
	if old := m.hostByName(jp.Primary); old != nil &&
		old.Health() == hypervisor.Healthy && jp.Primary != pending.Target {
		_ = m.destroyVM(old, jp.VMName)
	}
	jp.Generation = pending.Generation
	jp.Primary = pending.Target
	jp.Secondary = ""
	jp.Secondaries = nil
	jp.VMName = replicaName
	jp.AckedEpoch = 0
	m.dropReplica(target, name)
	m.record(EventRecovered, name,
		fmt.Sprintf("crash-interrupted failover committed: %s runs on %s", replicaName, pending.Target))
	return m.journalSync(journal.Record{
		Kind: journal.RecFailover, VM: name,
		Generation: pending.Generation, Primary: pending.Target,
		VMName: replicaName, Fence: pending.Fence,
	})
}

// recoverOne rebuilds one journaled protection. Caller holds m.mu.
func (m *Manager) recoverOne(name string, jp *journal.Protection, rep *RecoverReport) error {
	prot := &Protection{
		Name:       name,
		Generation: jp.Generation,
		m:          m,
		budget:     jp.Budget,
		tmax:       time.Duration(jp.MaxPeriodMS) * time.Millisecond,
		want:       jp.Spec.Secondaries,
		quorum:     jp.Spec.Quorum,
		wlSpec: WorkloadSpec{
			Name:        jp.Spec.Workload,
			LoadPercent: jp.Spec.LoadPercent,
			Seed:        jp.Spec.Seed,
		},
	}
	if prot.want <= 0 {
		prot.want = 1
	}
	if prot.budget == 0 {
		prot.budget = m.cfg.DegradationBudget
	}
	if prot.tmax == 0 {
		prot.tmax = m.cfg.MaxPeriod
	}
	prot.recoveryPol = m.cfg.Recovery
	if jp.Recovery != nil {
		prot.recoveryPol = recovery.Policy{
			Deadline:    time.Duration(jp.Recovery.DeadlineMS) * time.Millisecond,
			MaxAttempts: jp.Recovery.MaxAttempts,
			Backoff:     time.Duration(jp.Recovery.BackoffMS) * time.Millisecond,
			Jitter:      jp.Recovery.Jitter,
		}
	}
	wl, err := prot.wlSpec.Build()
	if err != nil {
		return err
	}
	prot.wl = wl
	prot.tr = m.newTracer()
	m.prots[name] = prot

	if jp.Lost {
		prot.lost = true
		rep.Lost++
		m.record(EventRecovered, name, "still lost (no host survived its failures)")
		return nil
	}

	primary := m.hostByName(jp.Primary)
	// The journaled chain, filtered down to hosts that survived; empty
	// when unpaired or every replica host died.
	var secondaries []*hypervisor.Host
	for _, sname := range jp.SecondaryList() {
		if h := m.hostByName(sname); h != nil && h.Health() == hypervisor.Healthy {
			secondaries = append(secondaries, h)
		}
	}

	if jp.PendingReboot != nil {
		// The daemon died mid-microreboot. The intent minted no fencing
		// token and activated nothing, so there is no split brain to
		// arbitrate: the primary's actual state below decides — healthy
		// again with the VM preserved → re-attach (resume below); still
		// dead → the normal deposit failover. The recovery fence already
		// voided the intent in the durable state.
		m.record(EventRecovered, name, fmt.Sprintf(
			"crash-interrupted in-place recovery of %s resolved from the host's state",
			jp.PendingReboot.Target))
	}

	if primary == nil || primary.Health() != hypervisor.Healthy {
		return m.recoverFailover(prot, secondaries, rep)
	}
	prot.primary = primary

	vm, err := primary.LookupVM(jp.VMName)
	if err == nil {
		// The VM survived the control-plane crash; re-attach. A guest
		// the previous lifetime left paused (a checkpoint pause, or a
		// microreboot completed just before the crash) resumes —
		// Resume is a no-op on a running guest.
		prot.vm = vm
		vm.Resume()
		return m.recoverAttach(prot, jp, primary, secondaries, rep)
	}
	// The hosts restarted with the daemon: rebuild the VM from the
	// journaled spec, preserving its generation.
	return m.recoverRecreate(prot, jp, primary, secondaries, rep)
}

// bestDeposit picks the replica host holding the deposit with the
// highest acknowledged epoch — ties go to chain order. Caller holds
// m.mu.
func bestDeposit(name string, secondaries []*hypervisor.Host) (*hypervisor.Host, hypervisor.ReplicaDeposit, bool) {
	var (
		bestHost *hypervisor.Host
		best     hypervisor.ReplicaDeposit
	)
	for _, h := range secondaries {
		dep, ok := h.Replica(name)
		if !ok || len(dep.Image) == 0 {
			continue
		}
		if bestHost == nil || dep.Epoch > best.Epoch {
			bestHost, best = h, dep
		}
	}
	return bestHost, best, bestHost != nil
}

// recoverAttach re-wires replication for a VM that survived on its
// journaled primary: delta resync from the freshest replica deposit
// when a chain host still holds one, full re-seed onto the surviving
// chain otherwise. A resumed chain comes back single-leg (the resume
// protocol re-attaches one replica); subsequent ticks top it back up
// to the journaled width. Caller holds m.mu.
func (m *Manager) recoverAttach(prot *Protection, jp *journal.Protection,
	primary *hypervisor.Host, secondaries []*hypervisor.Host, rep *RecoverReport) error {
	if len(secondaries) == 0 {
		if listed := jp.SecondaryList(); len(listed) > 0 {
			m.record(EventSecondaryLost, prot.Name, strings.Join(listed, ", "))
			if err := m.journalAppend(journal.Record{
				Kind: journal.RecSecondaryLost, VM: prot.Name,
			}); err != nil {
				return err
			}
		} else {
			m.record(EventUnprotected, prot.Name, "recovered without a secondary")
		}
		rep.Unprotected++
		return nil
	}
	if host, deposit, ok := bestDeposit(prot.Name, secondaries); ok {
		seq, err := m.resume(prot, primary, host, deposit, jp.AckedEpoch)
		if err != nil {
			return err
		}
		rep.Resumed++
		m.record(EventRecovered, prot.Name,
			fmt.Sprintf("resumed on %s -> %s at epoch %d (delta resync pending)",
				primary.HostName(), host.HostName(), seq))
		if len(secondaries) > 1 || prot.want > 1 {
			// The chain width is restored by the tick loop's top-up.
			return m.journalAppend(chainRecord(prot.Name, []*hypervisor.Host{host}))
		}
		return nil
	}
	// No deposit (the replica hosts rebooted): a full re-seed of the
	// surviving chain, journaled as a re-pairing so the acked-epoch
	// cursor resets.
	if _, err := m.wire(prot, primary, secondaries, nil, nil); err != nil {
		return err
	}
	rep.Reseeded++
	m.record(EventRecovered, prot.Name,
		fmt.Sprintf("re-seeded on %s -> %s (replica deposit lost)",
			primary.HostName(), chainDetail(secondaries)))
	return m.journalAppend(chainRecord(prot.Name, secondaries))
}

// resume re-attaches p on primary to the deposit dep parked on host; the
// next cycle ships a delta resync. It resumes at the later of the
// deposit's epoch and acked, so epochs never regress, and returns that
// epoch. Caller holds m.mu.
func (m *Manager) resume(p *Protection, primary, host *hypervisor.Host, dep hypervisor.ReplicaDeposit, acked uint64) (uint64, error) {
	seq := max(dep.Epoch, acked)
	resume := &replication.ResumeState{Mem: dep.Mem, Image: dep.Image, Seq: seq}
	_, err := m.wire(p, primary, []*hypervisor.Host{host}, resume, nil)
	return seq, err
}

// recoverRecreate rebuilds a protection whose VM is gone (daemon and
// hosts restarted together) from the journaled spec. Caller holds m.mu.
func (m *Manager) recoverRecreate(prot *Protection, jp *journal.Protection,
	primary *hypervisor.Host, secondaries []*hypervisor.Host, rep *RecoverReport) error {
	if len(secondaries) == 0 {
		// Prefer the journaled partners, but any planner-approved chain
		// will do for a rebuild. No guest exists yet — it boots on the
		// features of the chain this plan picks — so Spec.Features is
		// left zero.
		if asn, err := m.planner.PlanSecondaries(placement.Spec{
			Name: prot.Name, Secondaries: prot.want, Primary: primary.HostName(),
		}, primary, m.hosts); err == nil {
			secondaries = asn.Secondaries
			prot.decision = asn.Decision
		}
	}
	vm, err := createVM(jp.VMName, jp.Spec.MemoryBytes, jp.Spec.VCPUs, primary, secondaries)
	if err != nil {
		return fmt.Errorf("orchestrator: recover %q: %w", prot.Name, err)
	}
	prot.vm = vm
	if len(secondaries) == 0 {
		m.record(EventUnprotected, prot.Name, "recreated without a secondary")
		if err := m.journalAppend(journal.Record{
			Kind: journal.RecSecondaryLost, VM: prot.Name,
		}); err != nil {
			return err
		}
		rep.Unprotected++
		rep.Recreated++
		return nil
	}
	if _, err := m.wire(prot, primary, secondaries, nil, nil); err != nil {
		return err
	}
	rep.Recreated++
	m.record(EventRecovered, prot.Name,
		fmt.Sprintf("recreated %s on %s -> %s from the journaled spec",
			jp.VMName, primary.HostName(), chainDetail(secondaries)))
	return m.journalAppend(chainRecord(prot.Name, secondaries))
}

// recoverFailover handles a primary that died while the control plane
// was down: activate the freshest replica deposit surviving anywhere
// on the journaled chain through failoverTo, exactly as a live-detected
// failure would have; a deposit that cannot be activated is the service
// lost. Caller holds m.mu.
func (m *Manager) recoverFailover(prot *Protection, secondaries []*hypervisor.Host, rep *RecoverReport) error {
	secondary, deposit, ok := bestDeposit(prot.Name, secondaries)
	if !ok {
		prot.lost = true
		rep.Lost++
		m.record(EventServiceLost, prot.Name, "primary died with the control plane; no replica deposit survived")
		return m.journalSync(journal.Record{Kind: journal.RecLost, VM: prot.Name})
	}
	res, err := m.failoverTo(prot, failoverSource{host: secondary, dep: &deposit, stale: secondaries}, failoverDetail{
		resumed: "recovered from deposit: resumed %[1]s on %[2]s in %[3]v",
	})
	if res.VM == nil {
		prot.lost = true
		rep.Lost++
		m.record(EventServiceLost, prot.Name, fmt.Sprintf("deposit activation failed: %v", err))
		return m.journalSync(journal.Record{Kind: journal.RecLost, VM: prot.Name})
	}
	if err != nil {
		return err
	}
	rep.FailedOver++
	return nil
}
