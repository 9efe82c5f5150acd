package orchestrator

// The crash sweep: one scripted scenario runs once to record every
// boundary — journal write or host side effect, before or after — that
// it reaches, then once more per boundary with the daemon killed there,
// with the unsynced journal tail kept and with it lost. Recovery plus
// one tick must then hold the control plane's promises: one live copy
// per VM, generations and the fence moving forward only, no acked epoch
// regressing, no protection lost while a deposit of it survives.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/here-ft/here/internal/failover"
	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/journal"
	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/recovery"
	"github.com/here-ft/here/internal/transport"
)

// tickFailover is every boundary, in order, of a tick-detected failover
// of a pair onto a healthy spare; TestCrashSweep checks the list.
var tickFailover = []boundary{
	{op: "write", kind: journal.RecFenceIntent}, {op: "write", kind: journal.RecFenceIntent, after: true},
	{op: "sync"}, {op: "sync", after: true},
	{op: "activate"}, {op: "activate", after: true},
	{op: "drop"}, {op: "drop", after: true},
	{op: "write", kind: journal.RecFailover}, {op: "write", kind: journal.RecFailover, after: true},
	{op: "deposit"}, {op: "deposit", after: true},
	{op: "write", kind: journal.RecReprotect}, {op: "write", kind: journal.RecReprotect, after: true},
	{op: "sync"}, {op: "sync", after: true},
}

// sweepPoint is a boundary as the sweep enumerates it: the first one of
// its kind in a step of the scenario.
type sweepPoint struct {
	step string
	at   boundary
}

func (p sweepPoint) String() string { return fmt.Sprintf("%s: %s", p.step, p.at) }

// sweep is one run of the scenario: recording every point it reaches,
// or crashing at target.
type sweep struct {
	sweepFleet
	h       *crashHarness
	srv     *transport.Server // the peer daemon, on a TCP fleet
	step    string
	before  map[string]Status // every protection as the step began
	trail   []sweepPoint      // every boundary reached, in order
	target  *sweepPoint       // nil while recording
	dead    bool
	durable int64 // the WAL's size at its last durable append or sync
}

// sweepStep is one step of the scenario.
type sweepStep struct {
	name string
	run  func() error
}

// arm installs the sweep's crash hook on the current manager.
func (s *sweep) arm() {
	s.durable = s.h.store.LogSize()
	s.h.m.crashHook = func(b boundary) error {
		pt := sweepPoint{s.step, b}
		s.trail = append(s.trail, pt)
		s.dead = s.dead || s.target != nil && pt == *s.target
		if s.dead {
			return fmt.Errorf("daemon crashed at %s", pt)
		}
		if b.after && (b.op == "append" || b.op == "sync") {
			s.durable = s.h.store.LogSize()
		}
		return nil
	}
}

func (s *sweep) primaryOf(name string) *hypervisor.Host {
	return s.h.m.prots[name].primary.(*hypervisor.Host)
}

// store dirties a few pages of every guest.
func (s *sweep) store(tag byte) error {
	for _, name := range s.h.m.Protections() {
		for n := 0; n < 4; n++ {
			addr := memory.Addr(int(tag)*5+n) * memory.PageSize
			if err := s.h.m.prots[name].vm.WriteGuest(0, addr, []byte{tag, byte(n)}); err != nil {
				return err
			}
		}
	}
	return nil
}

// scenario is the script: every step a mutating operation, or a fault
// and the tick that answers it.
func (s *sweep) scenario() []sweepStep {
	m := func() *Manager { return s.h.m }
	return []sweepStep{
		{"protect", func() error {
			for _, spec := range s.specs {
				if _, err := m().Protect(spec); err != nil {
					return err
				}
			}
			return nil
		}},
		{"ticks", func() error {
			for tag := byte(1); tag <= 2; tag++ {
				if err := s.store(tag); err != nil {
					return err
				}
				if err := m().Tick(); err != nil {
					return err
				}
			}
			return nil
		}},
		{"microreboot", func() error {
			if _, err := m().SetRecovery(s.first, recovery.Policy{MaxAttempts: 2}); err != nil {
				return err
			}
			s.primaryOf(s.first).Fail(hypervisor.Hung, "sweep: hypervisor hang")
			if err := m().Tick(); err != nil {
				return err
			}
			_, err := m().SetRecovery(s.first, recovery.Policy{})
			return err
		}},
		{"forced failover", func() error {
			if err := s.store(3); err != nil {
				return err
			}
			_, err := m().Failover(s.first)
			return err
		}},
		{"crash failover", func() error {
			if err := s.store(4); err != nil {
				return err
			}
			s.primaryOf(s.last).Fail(hypervisor.Crashed, "sweep: host lost")
			return m().Tick()
		}},
		{"restart", func() error {
			primary := s.primaryOf(s.first)
			s.h.kill()
			primary.Fail(hypervisor.Crashed, "sweep: host lost with the daemon")
			s.h.boot()
			s.arm()
			_, err := recoverAll(m())
			return err
		}},
		{"unprotect", func() error { return m().Unprotect(s.last) }},
	}
}

// sweepFleet is one fleet the scenario runs on: first is the protection
// the ladder, the forced failover and the restart act on, last the one
// the host crash fails over and the unprotect removes.
type sweepFleet struct {
	name        string
	kinds       string
	tcp         bool
	first, last string
	specs       []VMSpec
}

// start boots the fleet with the sweep's hook armed, crashing at target
// (nil: recording).
func (fl sweepFleet) start(t *testing.T, target *sweepPoint) *sweep {
	t.Helper()
	h := newCrashHarness(t, fl.kinds)
	s := &sweep{sweepFleet: fl, h: h, target: target}
	if fl.tcp {
		s.srv = transport.NewServer(transport.ServerConfig{})
		if err := s.srv.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		h.kill()
		h.peer = s.srv.Addr()
		h.boot()
	}
	t.Cleanup(func() {
		if h.store != nil {
			h.kill()
		}
		if s.srv != nil {
			s.srv.Close()
		}
	})
	s.arm()
	return s
}

// run plays the scenario until it ends or the daemon dies.
func (s *sweep) run(t *testing.T) {
	t.Helper()
	for _, st := range s.scenario() {
		s.before = map[string]Status{}
		for _, ps := range s.h.m.StatusAll() {
			s.before[ps.Name] = ps
		}
		s.step = st.name
		err := st.run()
		if s.dead {
			return
		}
		if err != nil {
			t.Fatalf("crashing at %v: step %s: %v", s.target, st.name, err)
		}
	}
}

var sweepFleets = []sweepFleet{
	{name: "chain", kinds: "xcxcxc", first: "chain", last: "pair", specs: []VMSpec{
		{Name: "chain", MemoryBytes: 64 * memory.PageSize, VCPUs: 1, Secondaries: 2},
		{Name: "pair", MemoryBytes: 64 * memory.PageSize, VCPUs: 1},
	}},
	{name: "tcp", kinds: "xkxk", tcp: true, first: "pair", last: "pair", specs: []VMSpec{
		{Name: "pair", MemoryBytes: 64 * memory.PageSize, VCPUs: 1},
	}},
}

// TestCrashSweep kills the daemon at every boundary the scenario
// reaches, on a 1 + 2 chain beside a pair over simulated links and on a
// pair over loopback TCP.
func TestCrashSweep(t *testing.T) {
	distinct := map[sweepPoint]bool{}
	runs := 0
	for _, fl := range sweepFleets {
		t.Run(fl.name, func(t *testing.T) {
			rec := fl.start(t, nil)
			rec.run(t)
			var points []sweepPoint
			seen := map[sweepPoint]bool{}
			for _, pt := range rec.trail {
				if !seen[pt] {
					seen[pt], distinct[pt] = true, true
					points = append(points, pt)
				}
			}
			var crashFailover []boundary
			for _, pt := range rec.trail {
				if pt.step == "crash failover" {
					crashFailover = append(crashFailover, pt.at)
				}
			}
			found := false
			for i := range crashFailover {
				found = found || slices.Equal(crashFailover[i:min(i+len(tickFailover), len(crashFailover))], tickFailover)
			}
			if !found {
				t.Fatalf("the tick's failover of %s reached %v, want %v in it", fl.last, crashFailover, tickFailover)
			}
			if err := intentFirst(rec.trail); err != nil {
				t.Fatal(err)
			}
			for _, pt := range points {
				for _, tailLost := range []bool{false, true} {
					crashRun(t, fl, pt, tailLost)
					runs++
				}
			}
		})
	}
	kinds := map[boundary]bool{}
	for pt := range distinct {
		kinds[pt.at] = true
	}
	if len(distinct) < 25 {
		t.Fatalf("the sweep enumerated %d distinct boundaries, want at least 25", len(distinct))
	}
	t.Logf("%d distinct boundaries (%d kinds, told apart by scenario step), %d crash runs: each with the journal tail kept and lost",
		len(distinct), len(kinds), runs)
}

// intentFirst checks the order the failure path keeps: every activation,
// and the first microreboot attempt of a ladder, comes right after the
// sync that follows the write of its intent. It fails unless the trail
// holds at least one of each.
func intentFirst(trail []sweepPoint) error {
	intents := map[string]journal.RecordKind{"activate": journal.RecFenceIntent, "microreboot": journal.RecRebootIntent}
	seen := map[string]int{}
	for i, pt := range trail {
		kind := intents[pt.at.op]
		if kind == "" || pt.at.after {
			continue
		}
		seen[pt.at.op]++
		j := i
		for j > 0 && trail[j-1].at.op == pt.at.op { // the ladder's earlier attempts
			j--
		}
		want := []sweepPoint{
			{pt.step, boundary{op: "write", kind: kind}}, {pt.step, boundary{op: "write", kind: kind, after: true}},
			{pt.step, boundary{op: "sync"}}, {pt.step, boundary{op: "sync", after: true}},
		}
		if j < len(want) || !slices.Equal(trail[j-len(want):j], want) {
			return fmt.Errorf("%s follows %v, want %v", pt, trail[max(j-len(want), 0):j], want)
		}
	}
	if seen["activate"] == 0 || seen["microreboot"] == 0 {
		return fmt.Errorf("the scenario reached %d activations and %d microreboots, want some of each",
			seen["activate"], seen["microreboot"])
	}
	return nil
}

// crashRun replays the scenario up to pt, kills the daemon there
// (truncating the WAL to its durable prefix when tailLost), recovers,
// ticks once and checks the invariants.
func crashRun(t *testing.T, fl sweepFleet, pt sweepPoint, tailLost bool) {
	t.Helper()
	s := fl.start(t, &pt)
	s.run(t)
	if !s.dead {
		t.Fatalf("%s: the replay never reached the boundary", pt)
	}
	fence := s.h.m.Guard().Generation()
	h := s.h
	h.kill()
	if tailLost {
		if err := os.Truncate(filepath.Join(h.dir, "wal.log"), s.durable); err != nil {
			t.Fatal(err)
		}
	}
	h.boot()
	durable := h.store.State()
	rec, err := recoverAll(h.m)
	if err != nil {
		t.Fatalf("%s (tailLost=%v): Recover: %v", pt, tailLost, err)
	}
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s (tailLost=%v): %s", pt, tailLost, fmt.Sprintf(format, args...))
	}
	if rec.Fence <= fence || rec.Fence <= durable.Fence {
		fail("fence %d after the restart, want above %d (crashed lifetime) and %d (journal)", rec.Fence, fence, durable.Fence)
	}
	if err := h.m.Guard().Admit(rec.Fence - 1); !errors.Is(err, failover.ErrFenced) {
		fail("a token of the crashed lifetime was admitted: %v", err)
	}
	for _, st := range h.m.StatusAll() {
		jp := durable.Protections[st.Name]
		if jp != nil && st.Generation == jp.Generation && st.Mode == ModeDegraded && st.Epoch < jp.AckedEpoch {
			fail("%s resumed at epoch %d, below the journaled %d", st.Name, st.Epoch, jp.AckedEpoch)
		}
	}
	if err := h.m.Tick(); err != nil {
		fail("Tick after Recover: %v", err)
	}
	// Killed between the write of a forced failover's intent and its sync,
	// with the primary healthy: whether the intent survived or not,
	// nothing was activated and recovery activates nothing.
	unsynced := pt.step == "forced failover" &&
		(pt.at == boundary{op: "write", kind: journal.RecFenceIntent, after: true} || pt.at == boundary{op: "sync"})
	var healthy []*hypervisor.Host
	for _, host := range h.hosts {
		if host.Health() == hypervisor.Healthy {
			healthy = append(healthy, host)
		}
	}
	names := map[string]bool{}
	for _, st := range h.m.StatusAll() {
		names[st.Name] = true
		if prev, ok := s.before[st.Name]; ok && st.Generation < prev.Generation {
			fail("%s generation regressed %d -> %d", st.Name, prev.Generation, st.Generation)
		}
		if jp := durable.Protections[st.Name]; jp != nil && st.Generation < jp.Generation {
			fail("%s generation %d, below the journaled %d", st.Name, st.Generation, jp.Generation)
		}
		if prev := s.before[st.Name]; unsynced && (st.Generation != prev.Generation || st.Primary.Name != prev.Primary.Name) {
			fail("%s runs generation %d on %s, want %d on %s: an intent killed before its sync activated nothing",
				st.Name, st.Generation, st.Primary.Name, prev.Generation, prev.Primary.Name)
		}
		if st.Mode == ModeLost {
			if host, _, ok := bestDeposit(st.Name, healthy); ok {
				fail("%s lost while %s holds a deposit of it", st.Name, host.HostName())
			}
			continue
		}
		if n := vmInstances(h.hosts, st.Name); n != 1 {
			fail("%s has %d live copies, want 1", st.Name, n)
		}
	}
	for name := range s.before {
		if n := vmInstances(h.hosts, name); !names[name] && n != 0 {
			fail("removed %s left %d live copies", name, n)
		}
	}
}

// TestFailoverRemintsAFencedToken: another placement group's activation
// is admitted on the shared guard between a failover's Mint and its
// Admit — the hook mints and admits a newer token as soon as the intent
// is durable. The refused token is re-minted and the failover goes on:
// a tick-detected one within the same Tick, a forced one within the call.
func TestFailoverRemintsAFencedToken(t *testing.T) {
	for _, forced := range []bool{false, true} {
		t.Run(fmt.Sprintf("forced=%v", forced), func(t *testing.T) {
			h := newCrashHarness(t, "xkx")
			if _, err := h.m.Protect(VMSpec{Name: "vm", MemoryBytes: 64 * memory.PageSize, VCPUs: 1}); err != nil {
				t.Fatal(err)
			}
			h.ticks(3)
			st0 := h.status("vm")
			raced := false
			h.m.crashHook = func(b boundary) error {
				if !raced && b == (boundary{op: "sync", after: true}) {
					raced = true
					return h.m.Guard().Admit(h.m.Guard().Mint())
				}
				return nil
			}
			if forced {
				if _, err := h.m.Failover("vm"); err != nil {
					t.Fatalf("Failover: %v", err)
				}
			} else {
				hostNamed(h.hosts, st0.Primary.Name).Fail(hypervisor.Crashed, "primary lost")
				if err := h.m.Tick(); err != nil {
					t.Fatalf("Tick: %v", err)
				}
			}
			if !raced {
				t.Fatal("the failover journaled no intent")
			}
			st := h.status("vm")
			if st.Generation != st0.Generation+1 || st.Primary.Name != st0.Secondary.Name || st.Mode != ModeProtected {
				t.Fatalf("gen %d on %s in mode %s, want gen %d on %s, protected",
					st.Generation, st.Primary.Name, st.Mode, st0.Generation+1, st0.Secondary.Name)
			}
			if n := vmInstances(h.hosts, "vm"); n != 1 {
				t.Fatalf("%d live copies, want 1", n)
			}
		})
	}
}
