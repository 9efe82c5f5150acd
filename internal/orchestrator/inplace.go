package orchestrator

import (
	"errors"
	"fmt"
	"hash/fnv"

	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/journal"
	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/recovery"
	"github.com/here-ft/here/internal/trace"
)

// recoverySeed derives the deterministic jitter seed of one
// protection's attempt ladder from its name, so a given recovery
// timeline replays exactly under the simulated clock.
func recoverySeed(name string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return int64(h.Sum64())
}

// recoverInPlace runs the in-place recovery ladder for p's failed
// primary: journal the reboot intent, attempt a hypervisor microreboot
// (or plain un-starve) under the policy's attempt budget and hard
// deadline with jittered backoff between tries, and on success resume
// the guest — which survived in RAM — re-attaching replication in
// degraded mode so the next cycle ships a delta resync from the
// freshest surviving deposit instead of a full re-seed.
//
// No fencing token is minted anywhere on this path: a microreboot
// never activates a second instance of the VM, so there is no
// split-brain arm. A daemon crash mid-ladder leaves the journaled
// intent, which restart recovery resolves from the primary's actual
// state (healthy again → re-attach; still dead → the normal deposit
// failover) and the recovery fence voids.
//
// Returns ok=false when the ladder is exhausted and the caller must
// escalate to fenced failover. Caller holds m.mu.
func (m *Manager) recoverInPlace(p *Protection, host *hypervisor.Host, dec recovery.Decision) (bool, error) {
	clock := m.cfg.Clock
	detected := clock.Now()
	if err := m.journalSync(journal.Record{
		Kind: journal.RecRebootIntent, VM: p.Name,
		Target: host.HostName(), Generation: p.Generation,
	}); err != nil {
		return false, err
	}

	mach := recovery.NewMachine(p.recoveryPol, detected, recoverySeed(p.Name))
	var lastErr error
	healed := false
	for mach.Begin(clock.Now()) {
		start := clock.Now()
		var aerr error
		if err := m.step("microreboot", "", func() error {
			if dec != recovery.Unstarve {
				aerr = host.Microreboot()
			} else {
				host.Recover() // starvation never took the hypervisor down: no reboot
			}
			return nil
		}); err != nil {
			return false, err
		}
		m.recAttempts.Inc()
		outcome := "ok"
		note := fmt.Sprintf("attempt %d: %s %s", mach.Attempts(), dec, host.HostName())
		if aerr != nil {
			outcome = "failed"
			note += ": " + aerr.Error()
			lastErr = aerr
		}
		p.tr.Span(trace.SpanMicroreboot, trace.NoEpoch, start,
			trace.Event{Outcome: outcome, Note: note})
		if aerr == nil {
			healed = true
			break
		}
		clock.Sleep(mach.BackoffDelay(clock.Now()))
	}

	if !healed {
		m.recEscalated.Inc()
		detail := fmt.Sprintf("%s not recovered in place after %d attempt(s) (policy %s)",
			host.HostName(), mach.Attempts(), p.recoveryPol)
		if lastErr != nil {
			detail += ": " + lastErr.Error()
		}
		m.record(EventRecoveryEscalated, p.Name, detail)
		p.tr.Event(trace.EventRecovery, trace.NoEpoch,
			trace.Event{Outcome: "escalated", Note: detail})
		// No journal record here: the escalating failover's own
		// RecFailover (or RecLost) clears the pending intent on replay.
		return false, nil
	}

	if err := m.journalSync(journal.Record{
		Kind: journal.RecRebooted, VM: p.Name, Target: host.HostName(),
	}); err != nil {
		return false, err
	}
	// The hypervisor is back under the guest, which comes out of the
	// microreboot paused with its populated pages conservatively
	// re-marked dirty. Resume it and re-attach replication.
	p.vm.Resume()
	elapsed := clock.Since(detected)
	m.recInPlace.Inc()
	p.tr.Event(trace.EventRecovery, trace.NoEpoch, trace.Event{
		Outcome: "in-place",
		Note: fmt.Sprintf("%s %s recovered in %d attempt(s), %v",
			host.HostName(), dec, mach.Attempts(), elapsed),
	})

	// The old session died with the hypervisor's control state; the
	// replica deposits on the chain hosts did NOT (that is the whole
	// point — contrast retireChain on the failover path, which drops
	// them). The freshest one is the delta-resync source.
	chain := p.secondaries
	live := make([]*hypervisor.Host, 0, len(chain))
	for _, h := range chain {
		if h.Health() == hypervisor.Healthy {
			live = append(live, h)
		}
	}
	closeTransport(p)
	p.rep = nil
	p.mon = nil
	p.secondaries = nil

	if depHost, dep, ok := bestDeposit(p.Name, live); ok {
		// The microreboot's conservative re-mark assumed every populated
		// page changed during the blackout. The deposit is a faithful
		// copy of what the surviving leg holds, and the guest's RAM
		// survived in place — so narrow the resync to the pages that
		// actually drifted from the deposit instead of re-shipping the
		// whole populated set. Drift is looked for from both sides: a page
		// the guest gave back since is one the deposit alone still holds.
		tr := p.vm.Tracker()
		tr.Bitmap().Snapshot()
		for i := 0; i < tr.NumVCPUs(); i++ {
			tr.Ring(i).Drain()
		}
		delta := memory.Diff(dep.Mem, p.vm.Memory())
		for _, pg := range delta {
			tr.Bitmap().Set(pg)
		}
		seq, err := m.resume(p, host, depHost, dep, p.acked)
		if err != nil {
			// The guest is saved either way; leave it unprotected and let
			// the next tick re-pair.
			return true, err
		}
		m.record(EventMicrorebooted, p.Name, fmt.Sprintf(
			"%s recovered in place (%s, %d attempt(s), %v); delta resync of %d page(s) from %s at epoch %d",
			host.HostName(), dec, mach.Attempts(), elapsed, len(delta), depHost.HostName(), seq))
		if err := m.journalSync(chainRecord(p.Name, []*hypervisor.Host{depHost})); err != nil {
			return true, err
		}
		// Complete the delta resync inside the recovery round: the
		// ladder's deadline is about restored protection, not just a
		// rebooted hypervisor, and the delta is small by construction. A
		// cycle failure here is not a recovery failure — the guest is
		// saved, and the normal tick loop retries the resync.
		if _, err := p.rep.RunCycle(); err == nil {
			if err := m.ackCheckpoint(p); err != nil {
				return true, err
			}
		}
		return true, nil
	}

	// No deposit survived anywhere on the chain: the guest itself is
	// saved, but protection needs a fresh chain and a full seed.
	m.record(EventMicrorebooted, p.Name, fmt.Sprintf(
		"%s recovered in place (%s, %d attempt(s), %v); no surviving deposit, re-pairing",
		host.HostName(), dec, mach.Attempts(), elapsed))
	p.acked = 0
	if err := m.journalWrite(journal.Record{
		Kind: journal.RecSecondaryLost, VM: p.Name,
	}, false); err != nil {
		return true, err
	}
	err := m.tryReprotect(p, nil, false)
	if serr := m.journalSync(); serr != nil {
		return true, serr
	}
	if err != nil && !errors.Is(err, ErrNoHeterogeneous) {
		return true, err
	}
	return true, nil
}
