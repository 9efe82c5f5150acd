package fleet_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"github.com/here-ft/here/internal/failover"
	"github.com/here-ft/here/internal/fleet"
	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/journal"
	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/orchestrator"
	"github.com/here-ft/here/internal/vclock"
)

// eventCursor polls the merged fleet event log the way herectl does,
// asserting the stream stays strictly monotone and — after its first
// batch establishes the lifetime's base — exactly contiguous. A fresh
// cursor is needed per control-plane lifetime: the event log is
// in-memory state, only its sequence watermark is journaled.
type eventCursor struct {
	cur    uint64
	primed bool
}

func (c *eventCursor) drain(t *testing.T, s *fleet.Scheduler) {
	t.Helper()
	for {
		batch := s.EventsSince(c.cur)
		if len(batch) == 0 {
			return
		}
		for _, ev := range batch {
			if ev.Seq <= c.cur {
				t.Fatalf("merged event cursor regressed: %d after %d", ev.Seq, c.cur)
			}
			if c.primed && ev.Seq != c.cur+1 {
				t.Fatalf("merged event stream gap: %d follows %d", ev.Seq, c.cur)
			}
			c.primed = true
			c.cur = ev.Seq
		}
	}
}

// TestChaosShardedFleet is the scaled chaos acceptance run: a sharded
// fleet under seeded host crashes and hard daemon kill/restarts must
// lose no protections, never regress a fencing generation or a
// resumed protection's epoch, and keep the merged event cursor
// monotone. chaosProtections is 10k in the plain build and scaled
// down under -race (scale_*_test.go).
func TestChaosShardedFleet(t *testing.T) {
	const groups = 3
	const hostKinds = "xxxxkkkk"
	dir := t.TempDir()
	clk := vclock.NewSim()

	hosts := newHosts(t, clk, hostKinds)
	boot := func() (*journal.Store, *fleet.Scheduler) {
		return bootFleet(t, dir, groups, orchestrator.Config{Clock: clk}, hosts)
	}

	store, s := boot()
	names := make([]string, chaosProtections)
	for i := range names {
		names[i] = fmt.Sprintf("vm%05d", i)
		sp := orchestrator.VMSpec{
			Name: names[i], MemoryBytes: 4 * memory.PageSize, VCPUs: 1,
		}
		if _, err := s.Protect(sp); err != nil {
			t.Fatalf("protect %s: %v", names[i], err)
		}
	}
	cursor := &eventCursor{}
	cursor.drain(t, s)

	// settle ticks until the whole fleet reads protected.
	settle := func() {
		t.Helper()
		for i := 0; i < 30; i++ {
			if err := s.Tick(); err != nil {
				t.Fatalf("settle tick: %v", err)
			}
			cursor.drain(t, s)
			ok := true
			for _, st := range s.StatusAll() {
				if st.Mode != orchestrator.ModeProtected {
					ok = false
					break
				}
			}
			if ok {
				return
			}
		}
		t.Fatal("fleet did not settle to protected")
	}
	settle()

	rng := rand.New(rand.NewSource(20260809))
	var lastFence uint64
	prevGen := make(map[string]int, len(names))
	prevEpoch := make(map[string]uint64, len(names))

	for round := 0; round < chaosRounds; round++ {
		// Phase 1: crash one host (each kind keeps at least one healthy
		// sibling), ride out the failover storm, reboot it, settle.
		victim := hosts[rng.Intn(len(hosts))]
		victim.Fail(hypervisor.Crashed, fmt.Sprintf("chaos round %d", round))
		var tickErr error
		for i := 0; i < 10; i++ {
			if tickErr = s.Tick(); tickErr == nil {
				break
			}
			cursor.drain(t, s)
		}
		if tickErr != nil {
			t.Fatalf("round %d: fleet never recovered from host crash: %v", round, tickErr)
		}
		victim.Recover()
		settle()

		for _, st := range s.StatusAll() {
			prevGen[st.Name] = st.Generation
			prevEpoch[st.Name] = st.Epoch
		}

		// Phase 2: hard daemon kill (no courtesy snapshot) and restart
		// over the same journal and hosts.
		if err := store.Close(); err != nil {
			t.Fatalf("round %d: kill: %v", round, err)
		}
		store, s = boot()
		rec, err := s.Recover()
		if err != nil {
			t.Fatalf("round %d: recover: %v", round, err)
		}
		cursor = &eventCursor{}
		cursor.drain(t, s)

		if rec.Lost != 0 {
			t.Fatalf("round %d: lost %d protections: %+v", round, rec.Lost, rec)
		}
		if rec.Fence <= lastFence {
			t.Fatalf("round %d: fence %d did not advance past %d", round, rec.Fence, lastFence)
		}
		lastFence = rec.Fence
		if got := s.ProtectionCount(); got != len(names) {
			t.Fatalf("round %d: %d protections survived restart, want %d", round, got, len(names))
		}
		for _, st := range s.StatusAll() {
			if st.Generation < prevGen[st.Name] {
				t.Fatalf("round %d: %s generation regressed %d -> %d",
					round, st.Name, prevGen[st.Name], st.Generation)
			}
			if st.Epoch < prevEpoch[st.Name] {
				t.Fatalf("round %d: %s epoch regressed %d -> %d across restart",
					round, st.Name, prevEpoch[st.Name], st.Epoch)
			}
		}
		settle()
	}

	// The old generation's tokens stay fenced after all that churn.
	if err := s.Guard().Admit(lastFence - 1); !errors.Is(err, failover.ErrFenced) {
		t.Fatalf("stale token admitted after %d chaos rounds: %v", chaosRounds, err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
}
