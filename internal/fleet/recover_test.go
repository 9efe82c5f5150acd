package fleet_test

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"github.com/here-ft/here/internal/fleet"
	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/journal"
	"github.com/here-ft/here/internal/kvm"
	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/orchestrator"
	"github.com/here-ft/here/internal/replication"
	"github.com/here-ft/here/internal/simnet"
	"github.com/here-ft/here/internal/vclock"
	"github.com/here-ft/here/internal/xen"
)

// newHosts builds one host per letter of kinds ('x' Xen, 'k' KVM),
// named by kind and position so a rebuilt set answers to the journaled
// names.
func newHosts(tb testing.TB, clk vclock.Clock, kinds string) []*hypervisor.Host {
	tb.Helper()
	hosts := make([]*hypervisor.Host, 0, len(kinds))
	for i, c := range kinds {
		var h *hypervisor.Host
		var err error
		if c == 'x' {
			h, err = xen.New(fmt.Sprintf("x%d", i), clk)
		} else {
			h, err = kvm.New(fmt.Sprintf("k%d", i), clk)
		}
		if err != nil {
			tb.Fatal(err)
		}
		hosts = append(hosts, h)
	}
	return hosts
}

// bootFleet is one control-plane lifetime: it opens the journal in dir
// (replaying the previous lifetime's log) and builds a scheduler over
// hosts. NoSync keeps fleet-scale runs inside CI time; the frames still
// hit the file, so the kill / replay path is fully exercised. Killing
// the lifetime is store.Close() with no courtesy snapshot.
func bootFleet(tb testing.TB, dir string, groups int, ocfg orchestrator.Config, hosts []*hypervisor.Host) (*journal.Store, *fleet.Scheduler) {
	tb.Helper()
	store, _, err := journal.Open(dir, journal.Options{GroupCommit: true, NoSync: true})
	if err != nil {
		tb.Fatalf("journal.Open: %v", err)
	}
	ocfg.Journal = store
	s, err := fleet.New(fleet.Config{Groups: groups, Orchestrator: ocfg})
	if err != nil {
		tb.Fatal(err)
	}
	for _, h := range hosts {
		if err := s.AddHost(h); err != nil {
			tb.Fatal(err)
		}
	}
	return store, s
}

// settleFleet ticks until every protection reads protected.
func settleFleet(tb testing.TB, s *fleet.Scheduler) {
	tb.Helper()
	for i := 0; i < 30; i++ {
		if err := s.Tick(); err != nil {
			tb.Fatalf("settle tick: %v", err)
		}
		settled := true
		for _, st := range s.StatusAll() {
			if st.Mode != orchestrator.ModeProtected {
				settled = false
				break
			}
		}
		if settled {
			return
		}
	}
	tb.Fatal("fleet did not settle to protected")
}

// recoverPolled runs Recover() while the calling goroutine polls the
// merged event log through cursor, so the gapless / monotone check sees
// the groups appending concurrently, not only the finished log.
func recoverPolled(t *testing.T, s *fleet.Scheduler, cursor *eventCursor) (orchestrator.RecoverReport, error) {
	t.Helper()
	var (
		rep  orchestrator.RecoverReport
		err  error
		done = make(chan struct{})
	)
	go func() {
		defer close(done)
		rep, err = s.Recover()
	}()
	for {
		cursor.drain(t, s)
		select {
		case <-done:
			cursor.drain(t, s)
			return rep, err
		default:
			runtime.Gosched()
		}
	}
}

// TestParallelRecoverEqualsSerialSum kills and recovers a 4-group
// fleet twenty times, each time from a different kind of damage, and
// holds the parallel phase 3 to what a serial walk over the journaled
// protections must report: every protection counted once, in the one
// category its own state puts it in.
func TestParallelRecoverEqualsSerialSum(t *testing.T) {
	const groups, perGroup, rounds = 4, 24, 20
	const kinds = "xxxkkk"
	dir := t.TempDir()
	clk := vclock.NewSim()
	ocfg := orchestrator.Config{Clock: clk}
	hosts := newHosts(t, clk, kinds)

	store, s := bootFleet(t, dir, groups, ocfg, hosts)
	names := namesAcrossGroups(t, s, perGroup)
	for _, n := range names {
		if _, err := s.Protect(spec(n)); err != nil {
			t.Fatalf("protect %s: %v", n, err)
		}
	}
	settleFleet(t, s)

	var lastFence uint64
	for round := 0; round < rounds; round++ {
		want := orchestrator.RecoverReport{Resumed: len(names)}
		var crashed *hypervisor.Host
		switch round % 4 {
		case 1:
			// A host dies with the daemon: its primaries fail over from
			// their deposits, its replicas leave their primaries unpaired.
			crashed = hosts[(round/4)%len(hosts)]
			want = orchestrator.RecoverReport{}
			for _, st := range s.StatusAll() {
				switch {
				case st.Primary.Name == crashed.HostName():
					want.FailedOver++
				case st.Secondary != nil && st.Secondary.Name == crashed.HostName():
					want.Unprotected++
				default:
					want.Resumed++
				}
			}
			crashed.Fail(hypervisor.Crashed, fmt.Sprintf("round %d", round))
		case 2:
			// The replica hosts lost their deposits: full re-seeds, each
			// journaled as a re-pairing.
			for _, h := range hosts {
				for _, n := range names {
					h.DropReplica(n)
				}
			}
			want = orchestrator.RecoverReport{Reseeded: len(names)}
		case 3:
			// The hosts restarted with the daemon: every VM is rebuilt
			// from its journaled spec.
			hosts = newHosts(t, clk, kinds)
			want = orchestrator.RecoverReport{Recreated: len(names)}
		}

		if err := store.Close(); err != nil {
			t.Fatalf("round %d: kill: %v", round, err)
		}
		store, s = bootFleet(t, dir, groups, ocfg, hosts)
		cursor := &eventCursor{}
		rec, err := recoverPolled(t, s, cursor)
		if err != nil {
			t.Fatalf("round %d: recover: %v", round, err)
		}
		if rec.Fence <= lastFence {
			t.Fatalf("round %d: fence %d did not advance past %d", round, rec.Fence, lastFence)
		}
		lastFence, want.Fence = rec.Fence, rec.Fence
		if rec != want {
			t.Fatalf("round %d: report %+v, want %+v", round, rec, want)
		}

		// Every protection is back in exactly one group: its ring owner.
		if got := s.ProtectionCount(); got != len(names) {
			t.Fatalf("round %d: %d protections after recovery, want %d", round, got, len(names))
		}
		for _, n := range names {
			for g := 0; g < groups; g++ {
				_, err := s.Group(g).Status(n)
				if owned := g == s.Owner(n); owned != (err == nil) {
					t.Fatalf("round %d: %s in group %d: owner %v, status err %v", round, n, g, owned, err)
				}
			}
		}

		if crashed != nil {
			crashed.Recover()
		}
		settleFleet(t, s)
		cursor.drain(t, s)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
}

// refusedDial is the permanent failure the dial fake answers with.
type refusedDial struct{ name string }

func (e refusedDial) Error() string   { return "peer refuses " + e.name }
func (e refusedDial) Permanent() bool { return true }

// TestRecoverJoinsGroupFailures: one group's phase 3 failing must not
// cost the others theirs. The group is named in the error, and what the
// other groups — and the failing group before it stopped — brought back
// is counted and serving.
func TestRecoverJoinsGroupFailures(t *testing.T) {
	const groups, perGroup = 4, 6
	dir := t.TempDir()
	clk := vclock.NewSim()
	hosts := newHosts(t, clk, "xxkk")
	link, err := simnet.NewLink(simnet.OmniPath100(), clk)
	if err != nil {
		t.Fatal(err)
	}
	var refuse string // set between lifetimes, read-only while one runs
	ocfg := orchestrator.Config{
		Clock: clk,
		DialTransport: func(name string, _, _ uint64) (replication.Transport, error) {
			if name == refuse {
				return nil, refusedDial{name}
			}
			return link, nil
		},
	}

	store, s := bootFleet(t, dir, groups, ocfg, hosts)
	names := namesAcrossGroups(t, s, perGroup)
	for _, n := range names {
		if _, err := s.Protect(spec(n)); err != nil {
			t.Fatalf("protect %s: %v", n, err)
		}
	}
	settleFleet(t, s)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Refuse the third name (in recovery order) of group 2: two of its
	// protections come back before the group stops.
	const failing, before = 2, 2
	var owned []string
	for _, n := range names {
		if s.Owner(n) == failing {
			owned = append(owned, n)
		}
	}
	sort.Strings(owned)
	refuse = owned[before]

	store, s = bootFleet(t, dir, groups, ocfg, hosts)
	rec, err := s.Recover()
	var refused refusedDial
	if !errors.As(err, &refused) || refused.name != refuse {
		t.Fatalf("recover error = %v, want the refused dial of %s", err, refuse)
	}
	if prefix := fmt.Sprintf("group %d: ", failing); !strings.HasPrefix(err.Error(), prefix) || strings.Contains(err.Error(), "\n") {
		t.Fatalf("recover error = %q, want exactly one failure, prefixed %q", err, prefix)
	}
	if want := (groups-1)*perGroup + before; rec.Resumed != want {
		t.Fatalf("report %+v: resumed %d, want %d", rec, rec.Resumed, want)
	}
	for _, n := range names {
		_, err := s.Status(n)
		if s.Owner(n) != failing && err != nil {
			t.Fatalf("%s of healthy group %d not recovered: %v", n, s.Owner(n), err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkRecover is the per-layer benchmark of Scheduler.Recover():
// 192 journaled protections in 4 placement groups over simnet links, a
// NoSync journal, every guest alive with its deposit (the resume path a
// daemon restart takes). Journal replay and host set-up are outside the
// timer; ns/op and B/op are one whole-fleet recovery.
func BenchmarkRecover(b *testing.B) {
	b.Run("192x4", func(b *testing.B) {
		const groups, protections = 4, 192
		dir := b.TempDir()
		clk := vclock.NewSim()
		ocfg := orchestrator.Config{Clock: clk}
		hosts := newHosts(b, clk, "xxxkkk")
		store, s := bootFleet(b, dir, groups, ocfg, hosts)
		for i := 0; i < protections; i++ {
			if _, err := s.Protect(spec(fmt.Sprintf("vm-%04d", i))); err != nil {
				b.Fatal(err)
			}
		}
		settleFleet(b, s)
		b.ReportAllocs()
		for b.Loop() {
			b.StopTimer()
			if err := store.Close(); err != nil {
				b.Fatal(err)
			}
			store, s = bootFleet(b, dir, groups, ocfg, hosts)
			b.StartTimer()
			rec, err := s.Recover()
			if err != nil || rec.Resumed != protections {
				b.Fatalf("recover: %+v, %v", rec, err)
			}
		}
		b.StopTimer()
		if err := store.Close(); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkRestartTopUp is a daemon restart over 1 + 2 chains: Recover()
// resumes one leg of each and the first Tick tops the chain back up. Four
// fully populated 8 MiB guests in one group, simnet links, a NoSync
// journal; every op stores into 16 pages of each guest, kills the daemon
// and times Recover() plus that Tick. warm leaves the deposits of the
// legs that are not resumed where the crash left them: the top-up lands
// on their hosts and seeds from those copies, shipping what they lack.
// cold drops them first, which is what a restart cost before: a fresh
// replica memory per chain, filled with the whole guest.
func BenchmarkRestartTopUp(b *testing.B) {
	const guests, pages, dirty = 4, 8 << 20 / memory.PageSize, 16
	for _, kind := range []string{"cold", "warm"} {
		b.Run(kind, func(b *testing.B) {
			dir := b.TempDir()
			clk := vclock.NewSim()
			ocfg := orchestrator.Config{Clock: clk}
			hosts := newHosts(b, clk, "xxxxkk") // a primary per guest, the two legs they share
			store, s := bootFleet(b, dir, 1, ocfg, hosts)
			names := make([]string, guests)
			write := func(tag byte, stride int) {
				b.Helper()
				for _, name := range names {
					p, err := s.Lookup(name)
					if err != nil {
						b.Fatal(err)
					}
					for n := int(tag) % stride; n < pages; n += stride {
						if err := p.VM().WriteGuest(0, memory.Addr(n)*memory.PageSize, []byte{tag, byte(n), byte(n >> 8), 1}); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
			for i := range names {
				names[i] = fmt.Sprintf("vm-%d", i)
				if _, err := s.Protect(orchestrator.VMSpec{
					Name: names[i], MemoryBytes: pages * memory.PageSize, VCPUs: 1, Secondaries: 2,
				}); err != nil {
					b.Fatal(err)
				}
			}
			write(0, 1)
			settleFleet(b, s)
			b.ReportAllocs()
			var shipped int64
			for i := 1; b.Loop(); i++ {
				b.StopTimer()
				write(byte(i), pages/dirty)
				chains := s.StatusAll()
				if err := store.Close(); err != nil {
					b.Fatal(err)
				}
				for _, st := range chains {
					if len(st.Secondaries) != 2 {
						b.Fatalf("%s runs on %d legs before the crash", st.Name, len(st.Secondaries))
					}
					if kind == "cold" {
						for _, h := range hosts {
							if h.HostName() == st.Secondaries[1].Name {
								h.DropReplica(st.Name)
							}
						}
					}
				}
				store, s = bootFleet(b, dir, 1, ocfg, hosts)
				b.StartTimer()
				rec, err := s.Recover()
				if err != nil || rec.Resumed != guests {
					b.Fatalf("recover: %+v, %v", rec, err)
				}
				if err := s.Tick(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				for _, st := range s.StatusAll() {
					if st.Mode != orchestrator.ModeProtected || len(st.Legs) != 2 || st.Legs[1].NeedsSeed {
						b.Fatalf("%s after the first tick: %s, legs %+v", st.Name, st.Mode, st.Legs)
					}
					shipped += st.Totals.PagesSent
				}
				b.StartTimer()
			}
			b.StopTimer()
			b.ReportMetric(float64(shipped)/float64(b.N)/guests, "pages/guest")
			if err := store.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
