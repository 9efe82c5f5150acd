package orchestrator

// Crash-restart end-to-end tests: the control plane (Manager + journal
// handle) is killed and rebuilt mid-flight while the hosts, their VMs
// and the parked replica deposits live on — the in-process equivalent
// of `kill -9 hered && hered -state-dir ...`. White-box on purpose:
// the kill points (mid-checkpoint, mid-failover) and the invariants
// (fencing tokens, one live VM instance per protection) need access to
// the manager's internals.

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/here-ft/here/internal/chv"
	"github.com/here-ft/here/internal/failover"
	"github.com/here-ft/here/internal/faults"
	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/journal"
	"github.com/here-ft/here/internal/kvm"
	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/replication"
	"github.com/here-ft/here/internal/trace"
	"github.com/here-ft/here/internal/transport"
	"github.com/here-ft/here/internal/vclock"
	"github.com/here-ft/here/internal/xen"
)

// crashHarness drives one control-plane lifetime after another over a
// shared state directory and host fleet.
type crashHarness struct {
	t     *testing.T
	dir   string
	clk   vclock.Clock
	hosts []*hypervisor.Host
	store *journal.Store
	m     *Manager
	// peer, when set, makes every lifetime replicate over loopback TCP
	// to this address; kill closes the clients it dialed.
	peer    string
	clients []*transport.Client
}

func newCrashHarness(t *testing.T, kinds string) *crashHarness {
	t.Helper()
	return newCrashHarnessOn(t, kinds, vclock.NewSim())
}

func newCrashHarnessOn(t *testing.T, kinds string, clk vclock.Clock) *crashHarness {
	t.Helper()
	h := &crashHarness{t: t, dir: t.TempDir(), clk: clk}
	for i, c := range kinds {
		name := string(c) + string(rune('0'+i))
		var host *hypervisor.Host
		var err error
		switch c {
		case 'x':
			host, err = xen.New(name, clk)
		case 'c':
			host, err = chv.New(name, clk)
		default:
			host, err = kvm.New(name, clk)
		}
		if err != nil {
			t.Fatal(err)
		}
		h.hosts = append(h.hosts, host)
	}
	h.boot()
	return h
}

// boot opens the journal (replaying whatever the previous lifetime
// left) and builds a fresh Manager over the surviving hosts.
func (h *crashHarness) boot() journal.Report {
	h.t.Helper()
	store, jrep, err := journal.Open(h.dir, journal.Options{})
	if err != nil {
		h.t.Fatalf("journal.Open: %v", err)
	}
	cfg := Config{Clock: h.clk, Journal: store}
	if h.peer != "" {
		cfg.DialTransport = func(name string, memBytes, generation uint64) (replication.Transport, error) {
			c, err := transport.Dial(transport.ClientConfig{
				Addr: h.peer, Protection: name, MemBytes: memBytes, Generation: generation,
			})
			if err == nil {
				h.clients = append(h.clients, c)
			}
			return c, err
		}
	}
	m, err := New(cfg)
	if err != nil {
		h.t.Fatal(err)
	}
	for _, host := range h.hosts {
		if err := m.AddHost(host); err != nil {
			h.t.Fatal(err)
		}
	}
	h.store, h.m = store, m
	return jrep
}

// kill models the daemon dying hard: no snapshot, no flush courtesy —
// the next Open replays the write-ahead log.
func (h *crashHarness) kill() {
	h.t.Helper()
	for _, c := range h.clients {
		_ = c.Close() // kill -9: nothing to do about a close error
	}
	h.clients = nil
	if err := h.store.Close(); err != nil {
		h.t.Fatal(err)
	}
	h.m, h.store = nil, nil
}

// recoverAll runs the three recovery phases fleet.Scheduler.Recover
// coordinates across groups on one unsharded manager.
func recoverAll(m *Manager) (RecoverReport, error) {
	st := m.cfg.Journal.State()
	if err := m.ResolveIntents(&st); err != nil {
		return RecoverReport{}, err
	}
	if _, err := m.FenceRecovery(&st); err != nil {
		return RecoverReport{}, err
	}
	return m.RecoverProtections(&st)
}

func (h *crashHarness) restart() (journal.Report, RecoverReport) {
	h.t.Helper()
	jrep := h.boot()
	rec, err := recoverAll(h.m)
	if err != nil {
		h.t.Fatalf("Recover: %v", err)
	}
	return jrep, rec
}

func (h *crashHarness) status(name string) Status {
	h.t.Helper()
	st, err := h.m.Status(name)
	if err != nil {
		h.t.Fatalf("Status(%s): %v", name, err)
	}
	return st
}

func (h *crashHarness) ticks(n int) {
	h.t.Helper()
	for i := 0; i < n; i++ {
		if err := h.m.Tick(); err != nil {
			h.t.Fatalf("Tick: %v", err)
		}
	}
}

// crashAt arms the crash hook: the daemon dies at the first boundary
// equal to at, and every boundary after it fails as well — a dead process
// writes nothing more and touches no host. Returns the injected error.
func (h *crashHarness) crashAt(at boundary) error {
	boom := fmt.Errorf("daemon crashed %s", at)
	dead := false
	h.m.crashHook = func(b boundary) error {
		dead = dead || b == at
		if dead {
			return boom
		}
		return nil
	}
	return boom
}

func (b boundary) String() string {
	when := "before"
	if b.after {
		when = "after"
	}
	if b.kind == "" {
		return fmt.Sprintf("%s %s", when, b.op)
	}
	return fmt.Sprintf("%s %s %s", when, b.op, b.kind)
}

func hostNamed(hosts []*hypervisor.Host, name string) *hypervisor.Host {
	for _, h := range hosts {
		if h.HostName() == name {
			return h
		}
	}
	return nil
}

// vmInstances counts the live VM instances of a protection across the
// healthy fleet — the split-brain invariant is that this is exactly 1.
func vmInstances(hosts []*hypervisor.Host, prot string) int {
	n := 0
	for _, h := range hosts {
		if h.Health() != hypervisor.Healthy {
			continue
		}
		for _, name := range h.VMs() {
			if name == prot || strings.HasPrefix(name, prot+"-g") {
				n++
			}
		}
	}
	return n
}

func TestRestartResumesWithDeltaResync(t *testing.T) {
	h := newCrashHarness(t, "xk")
	if _, err := h.m.Protect(VMSpec{
		Name: "web", MemoryBytes: 512 * memory.PageSize, VCPUs: 2,
		WorkloadSpec: WorkloadSpec{Name: "membench", LoadPercent: 40, Seed: 7},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.m.Protect(VMSpec{
		Name: "idle", MemoryBytes: 512 * memory.PageSize, VCPUs: 2,
	}); err != nil {
		t.Fatal(err)
	}
	h.ticks(5)

	// Sanity: the first lifetime did run a full seed, so the absence of
	// seed-round spans after restart actually discriminates the paths.
	seeded := false
	for _, ev := range h.m.prots["web"].tr.Events() {
		if ev.Kind == trace.SpanSeedRound {
			seeded = true
		}
	}
	if !seeded {
		t.Fatal("first lifetime recorded no seed-round spans; the no-reseed check would be vacuous")
	}

	before := map[string]Status{}
	for _, st := range h.m.StatusAll() {
		before[st.Name] = st
	}

	h.kill()
	jrep, rec := h.restart()
	if jrep.Clean {
		t.Fatal("hard kill reported a clean shutdown")
	}
	if rec.Resumed != 2 || rec.Reseeded+rec.Recreated+rec.FailedOver+rec.Unprotected+rec.Lost != 0 {
		t.Fatalf("recover report = %+v, want exactly 2 resumed", rec)
	}
	if rec.Fence == 0 {
		t.Fatal("recovery established no fencing generation")
	}

	for name, prev := range before {
		st := h.status(name)
		if st.Mode != ModeDegraded {
			t.Fatalf("%s after restart: mode %s, want degraded until the resync cycle", name, st.Mode)
		}
		if st.Epoch != prev.Epoch {
			t.Fatalf("%s: epoch %d after restart, want the journaled cursor %d", name, st.Epoch, prev.Epoch)
		}
		if st.Generation != prev.Generation {
			t.Fatalf("%s: generation %d after restart, want %d", name, st.Generation, prev.Generation)
		}
	}

	h.ticks(1)
	for name, prev := range before {
		st := h.status(name)
		if st.Mode != ModeProtected {
			t.Fatalf("%s: mode %s after the resync tick, want protected", name, st.Mode)
		}
		if st.Recovery.Resyncs != 1 {
			t.Fatalf("%s: Resyncs = %d, want exactly one delta resync", name, st.Recovery.Resyncs)
		}
		if st.Epoch <= prev.Epoch {
			t.Fatalf("%s: epoch %d did not advance past the pre-crash %d", name, st.Epoch, prev.Epoch)
		}
		for _, ev := range h.m.prots[name].tr.Events() {
			if ev.Kind == trace.SpanSeedRound {
				t.Fatalf("%s: seed-round span after restart — resumed protections must not re-seed", name)
			}
		}
	}
	// The idle guest dirtied nothing while the daemon was down, so its
	// resync ships almost nothing; a full re-seed would move every
	// populated page of the 512-page guest.
	if sent := h.status("idle").Totals.PagesSent; sent >= 512 {
		t.Fatalf("idle guest shipped %d pages after restart — that is a re-seed, not a delta resync", sent)
	}
	h.ticks(3)
}

func TestRestartReseedsWhenDepositLost(t *testing.T) {
	h := newCrashHarness(t, "xk")
	if _, err := h.m.Protect(VMSpec{
		Name: "vm", MemoryBytes: 512 * memory.PageSize, VCPUs: 2,
	}); err != nil {
		t.Fatal(err)
	}
	h.ticks(3)
	st0 := h.status("vm")
	if st0.Secondary == nil {
		t.Fatal("protection has no secondary")
	}

	h.kill()
	// The secondary rebooted while the daemon was down: its parked
	// replica deposit is gone, the primary's VM is not.
	hostNamed(h.hosts, st0.Secondary.Name).Recover()
	_, rec := h.restart()
	if rec.Reseeded != 1 || rec.Resumed != 0 {
		t.Fatalf("recover report = %+v, want 1 reseeded", rec)
	}
	st := h.status("vm")
	if st.Mode != ModeProtected {
		t.Fatalf("mode %s after re-seed, want protected", st.Mode)
	}
	if st.Epoch != 0 {
		t.Fatalf("epoch %d after re-seed, want the cursor reset to 0", st.Epoch)
	}
	h.ticks(2)
}

func TestRestartFailsOverDeadPrimaryFromDeposit(t *testing.T) {
	h := newCrashHarness(t, "xxkk")
	if _, err := h.m.Protect(VMSpec{
		Name: "vm", MemoryBytes: 512 * memory.PageSize, VCPUs: 2,
		WorkloadSpec: WorkloadSpec{Name: "membench", Seed: 3},
	}); err != nil {
		t.Fatal(err)
	}
	h.ticks(3)
	st0 := h.status("vm")

	h.kill()
	hostNamed(h.hosts, st0.Primary.Name).Fail(hypervisor.Crashed,
		"power loss while the control plane was down")
	_, rec := h.restart()
	if rec.FailedOver != 1 {
		t.Fatalf("recover report = %+v, want 1 failed over from the deposit", rec)
	}
	st := h.status("vm")
	if st.Generation != st0.Generation+1 {
		t.Fatalf("generation %d, want %d", st.Generation, st0.Generation+1)
	}
	if st.Primary.Name != st0.Secondary.Name {
		t.Fatalf("activated on %s, want the deposit holder %s", st.Primary.Name, st0.Secondary.Name)
	}
	if st.Mode != ModeProtected {
		t.Fatalf("mode %s, want re-protected onto the spare", st.Mode)
	}
	if n := vmInstances(h.hosts, "vm"); n != 1 {
		t.Fatalf("%d live VM instances, want exactly 1", n)
	}
	// Every token the previous lifetime could have minted is below the
	// new fence and can never activate anything again.
	if err := h.m.Guard().Admit(rec.Fence - 1); !errors.Is(err, failover.ErrFenced) {
		t.Fatalf("pre-crash token admitted: %v", err)
	}
	h.ticks(2)
}

func TestRestartResolvesInterruptedFailover(t *testing.T) {
	cases := []struct {
		name      string
		at        boundary
		committed bool // the replica activation survived the crash
	}{
		{"killed-before-activation", boundary{op: "sync", after: true}, false},
		{"killed-after-activation", boundary{op: "activate", after: true}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newCrashHarness(t, "xk")
			if _, err := h.m.Protect(VMSpec{
				Name: "vm", MemoryBytes: 512 * memory.PageSize, VCPUs: 2,
			}); err != nil {
				t.Fatal(err)
			}
			h.ticks(3)
			st0 := h.status("vm")

			boom := h.crashAt(tc.at)
			hostNamed(h.hosts, st0.Primary.Name).Fail(hypervisor.Crashed, "primary lost")
			if err := h.m.Tick(); !errors.Is(err, boom) {
				t.Fatalf("Tick = %v, want the injected crash", err)
			}
			h.kill()
			_, rec := h.restart()

			if tc.committed {
				// The journaled intent resolved by probing the target: the
				// activated replica was found and committed.
				if rec.FailedOver != 0 || rec.Unprotected != 1 {
					t.Fatalf("recover report = %+v, want the committed activation back unprotected", rec)
				}
			} else {
				// The intent never acted; it is void under the new fence and
				// the deposit is activated with a fresh token.
				if rec.FailedOver != 1 {
					t.Fatalf("recover report = %+v, want 1 failed over from the deposit", rec)
				}
			}
			st := h.status("vm")
			if st.Generation != st0.Generation+1 {
				t.Fatalf("generation %d, want %d", st.Generation, st0.Generation+1)
			}
			if st.Primary.Name != st0.Secondary.Name {
				t.Fatalf("runs on %s, want %s", st.Primary.Name, st0.Secondary.Name)
			}
			if n := vmInstances(h.hosts, "vm"); n != 1 {
				t.Fatalf("%d live VM instances, want exactly 1", n)
			}

			// The old primary reboots: its stale copy must not come back,
			// and the fleet re-pairs onto it.
			old := hostNamed(h.hosts, st0.Primary.Name)
			old.Recover()
			if _, err := old.LookupVM("vm"); err == nil {
				t.Fatal("stale pre-failover copy survived the old primary's reboot")
			}
			h.ticks(2)
			if got := h.status("vm"); got.Mode != ModeProtected {
				t.Fatalf("mode %s after re-pairing ticks, want protected", got.Mode)
			}
			if n := vmInstances(h.hosts, "vm"); n != 1 {
				t.Fatalf("%d live VM instances after re-pairing, want exactly 1", n)
			}
		})
	}
}

func TestRestartDestroysStaleCopyAfterInterruptedForcedFailover(t *testing.T) {
	h := newCrashHarness(t, "xk")
	if _, err := h.m.Protect(VMSpec{
		Name: "vm", MemoryBytes: 512 * memory.PageSize, VCPUs: 2,
	}); err != nil {
		t.Fatal(err)
	}
	h.ticks(3)
	st0 := h.status("vm")

	// A forced failover activates the replica, then the daemon dies
	// before it can destroy the still-healthy old primary's copy.
	boom := h.crashAt(boundary{op: "activate", after: true}) // before fencing the old primary
	if _, err := h.m.Failover("vm"); !errors.Is(err, boom) {
		t.Fatalf("Failover = %v, want the injected crash", err)
	}
	if n := vmInstances(h.hosts, "vm"); n != 2 {
		t.Fatalf("split-brain window not open: %d copies, want 2", n)
	}

	h.kill()
	_, rec := h.restart()
	if n := vmInstances(h.hosts, "vm"); n != 1 {
		t.Fatalf("split brain survived restart: %d copies", n)
	}
	old := hostNamed(h.hosts, st0.Primary.Name)
	if _, err := old.LookupVM("vm"); err == nil {
		t.Fatal("stale primary copy still present after restart")
	}
	st := h.status("vm")
	if st.Primary.Name != st0.Secondary.Name || st.Generation != st0.Generation+1 {
		t.Fatalf("recovered as gen %d on %s, want gen %d on %s",
			st.Generation, st.Primary.Name, st0.Generation+1, st0.Secondary.Name)
	}
	if rec.Fence == 0 {
		t.Fatal("no fence established")
	}
	h.ticks(1)
	if got := h.status("vm"); got.Mode != ModeProtected {
		t.Fatalf("mode %s after re-pairing, want protected", got.Mode)
	}
}

// TestRestartAfterFailoverRecordWrittenNotWaited: a forced failover
// writes RecFailover without waiting for it; the re-protect's durable
// append covers it. Kill the daemon in between. If only the process died
// the frame is in the log and replays; if the machine died the un-synced
// tail is gone and the journal holds the intent alone, which recovery
// commits by probing the target. Either way: one live copy, on the
// target, generation and fence moving forward only.
func TestRestartAfterFailoverRecordWrittenNotWaited(t *testing.T) {
	for _, tailLost := range []bool{false, true} {
		t.Run(fmt.Sprintf("tailLost=%v", tailLost), func(t *testing.T) {
			h := newCrashHarness(t, "xk")
			if _, err := h.m.Protect(VMSpec{
				Name: "vm", MemoryBytes: 512 * memory.PageSize, VCPUs: 2,
			}); err != nil {
				t.Fatal(err)
			}
			h.ticks(3)
			st0 := h.status("vm")
			fence0 := h.m.Guard().Generation()

			boom := errors.New("daemon killed with RecFailover written, RecReprotect not yet durable")
			var beforeRecord int64
			h.m.crashHook = func(b boundary) error {
				switch b {
				case boundary{op: "write", kind: journal.RecFailover}:
					beforeRecord = h.store.LogSize()
				case boundary{op: "write", kind: journal.RecFailover, after: true}:
					return boom
				}
				return nil
			}
			if _, err := h.m.Failover("vm"); !errors.Is(err, boom) {
				t.Fatalf("Failover = %v, want the injected crash", err)
			}
			if grown := h.store.LogSize(); grown <= beforeRecord {
				t.Fatalf("log is %d bytes, was %d before RecFailover: the record was not written", grown, beforeRecord)
			}
			if n := vmInstances(h.hosts, "vm"); n != 1 {
				t.Fatalf("%d live copies at the kill, want 1: the old primary is fenced before the record", n)
			}
			h.kill()
			if tailLost {
				if err := os.Truncate(filepath.Join(h.dir, "wal.log"), beforeRecord); err != nil {
					t.Fatal(err)
				}
			}
			jrep, rec := h.restart()
			if jrep.TornBytes != 0 {
				t.Fatalf("journal report %+v: the cut was meant to fall on a frame boundary", jrep)
			}
			// Both ways the activation is committed and comes back
			// unprotected; the first tick re-pairs it.
			if rec.Unprotected != 1 || rec.FailedOver+rec.Lost+rec.Resumed != 0 {
				t.Fatalf("recover report = %+v, want the committed activation back unprotected", rec)
			}
			committed := 0
			for _, ev := range h.m.Events() {
				if ev.Kind == EventRecovered && strings.Contains(ev.Detail, "crash-interrupted failover committed") {
					committed++
				}
			}
			if (committed == 1) != tailLost {
				t.Fatalf("%d intents resolved by probing the target with tailLost=%v", committed, tailLost)
			}
			st := h.status("vm")
			if st.Generation != st0.Generation+1 || st.Primary.Name != st0.Secondary.Name {
				t.Fatalf("recovered as gen %d on %s, want gen %d on %s",
					st.Generation, st.Primary.Name, st0.Generation+1, st0.Secondary.Name)
			}
			if rec.Fence <= fence0 || h.m.Guard().Generation() < rec.Fence {
				t.Fatalf("fence %d → %d (guard %d), want it to advance", fence0, rec.Fence, h.m.Guard().Generation())
			}
			if n := vmInstances(h.hosts, "vm"); n != 1 {
				t.Fatalf("%d live copies after restart, want 1", n)
			}
			h.ticks(2)
			if got := h.status("vm"); got.Mode != ModeProtected || got.Generation != st.Generation {
				t.Fatalf("mode %s at generation %d after re-pairing, want protected at %d", got.Mode, got.Generation, st.Generation)
			}
			if n := vmInstances(h.hosts, "vm"); n != 1 {
				t.Fatalf("%d live copies after re-pairing, want 1", n)
			}
		})
	}
}

// deposits counts the replica deposits of a protection across the fleet.
func deposits(hosts []*hypervisor.Host, prot string) int {
	n := 0
	for _, h := range hosts {
		if _, ok := h.Replica(prot); ok {
			n++
		}
	}
	return n
}

// TestRestartTopsUpFromTheDepositItFinds: a restart resumes one leg of a
// 1 + 2 chain; the deposit the other leg parked is still on its host.
// The top-up must land there and seed the leg from that copy — the pages
// stored since its last checkpoint, not the guest. A deposit of another
// size is no copy of this guest: that leg is filled cold, as before.
func TestRestartTopsUpFromTheDepositItFinds(t *testing.T) {
	const populated = 300
	for _, mismatch := range []bool{false, true} {
		t.Run(fmt.Sprintf("sizeMismatch=%v", mismatch), func(t *testing.T) {
			h := newCrashHarness(t, "xkc")
			p, err := h.m.Protect(VMSpec{Name: "vm", MemoryBytes: 512 * memory.PageSize, VCPUs: 1, Secondaries: 2})
			if err != nil {
				t.Fatal(err)
			}
			store := func(tag byte, pages ...int) {
				t.Helper()
				vm := h.m.prots["vm"].vm
				for _, n := range pages {
					rec := []byte(fmt.Sprintf("page %06d tag %03d", n, tag))
					if err := vm.WriteGuest(0, memory.Addr(n)*memory.PageSize+32, rec); err != nil {
						t.Fatal(err)
					}
				}
			}
			for n := 0; n < populated; n++ {
				store(1, n)
			}
			h.ticks(3)
			if len(p.secondaries) != 2 {
				t.Fatalf("chain %v, want two legs", secondaryNames(p.secondaries))
			}
			first, second := p.secondaries[0], p.secondaries[1]
			stale, ok := second.Replica("vm")
			if !ok {
				t.Fatalf("%s holds no deposit before the crash", second.HostName())
			}
			since := []int{4, 5, 299, 400}
			store(2, since...) // stored, never checkpointed: the daemon dies first

			h.kill()
			_, rec := h.restart()
			if st := h.status("vm"); rec.Resumed != 1 || len(st.Legs) != 1 || st.Secondaries[0].Name != first.HostName() {
				t.Fatalf("recover report %+v, chain %+v: want one leg resumed on %s", rec, st.Secondaries, first.HostName())
			}
			if mismatch {
				if err := second.DepositReplica("vm", hypervisor.ReplicaDeposit{
					Mem: memory.NewGuestMemory(64 * memory.PageSize), Image: stale.Image, Epoch: stale.Epoch,
				}); err != nil {
					t.Fatal(err)
				}
			}
			h.ticks(1)

			st := h.status("vm")
			if st.Mode != ModeProtected || len(st.Legs) != 2 || st.Secondaries[1].Name != second.HostName() ||
				st.Legs[1].NeedsSeed || st.Legs[1].AckedEpoch != st.Legs[0].AckedEpoch {
				t.Fatalf("mode %s, chain %+v, legs %+v: want the old pair back on one epoch", st.Mode, st.Secondaries, st.Legs)
			}
			dep, ok := second.Replica("vm")
			if !ok {
				t.Fatalf("%s holds no deposit after the top-up's first ack", second.HostName())
			}
			// The tick shipped the resumed leg's delta resync and the other's seed.
			if sent, want := st.Totals.PagesSent, int64(2*len(since)); mismatch {
				if dep.Mem == stale.Mem || sent < populated {
					t.Fatalf("shipped %d pages onto a copy of another size, want a cold fill (≥ %d)", sent, populated)
				}
			} else if dep.Mem != stale.Mem || sent != want {
				t.Fatalf("shipped %d pages (same copy: %v), want %d: the %d stored since the last checkpoint, to each leg",
					sent, dep.Mem == stale.Mem, want, len(since))
			}
			for _, host := range h.hosts[1:] {
				dep, _ := host.Replica("vm")
				if d := memory.Diff(dep.Mem, h.m.prots["vm"].vm.Memory()); len(d) > 0 {
					t.Fatalf("the deposit on %s differs from the guest in pages %v", host.HostName(), d)
				}
			}
			store(3, 6, 401)
			h.ticks(2)
			if n := deposits(h.hosts, "vm"); n != 2 {
				t.Fatalf("%d deposits for a two-leg chain", n)
			}
		})
	}
}

// TestRestartsLeakNoDeposits: every restart resumes one leg per chain and
// tops the rest up. When the top-up cannot take the host the old leg was
// on (starved for that round) the deposit it left there is nobody's
// replica; it used to stay for the life of the host.
func TestRestartsLeakNoDeposits(t *testing.T) {
	h := newCrashHarness(t, "xxccc") // two primaries, two legs each, one spare
	names := []string{"vm-a", "vm-b"}
	for _, name := range names {
		if _, err := h.m.Protect(VMSpec{Name: name, MemoryBytes: 128 * memory.PageSize, VCPUs: 1, Secondaries: 2}); err != nil {
			t.Fatal(err)
		}
	}
	h.ticks(2)
	for cycle := 1; cycle <= 6; cycle++ {
		for i, name := range names {
			if err := h.m.prots[name].vm.WriteGuest(0, memory.Addr(cycle+8*i)*memory.PageSize, []byte{byte(cycle)}); err != nil {
				t.Fatal(err)
			}
		}
		h.kill()
		if _, rec := h.restart(); rec.Resumed != len(names) {
			t.Fatalf("cycle %d: recover report %+v, want every chain resumed", cycle, rec)
		}
		// Every other restart, the host of a leg that was not resumed sits
		// out the top-up round and comes back with its RAM intact.
		var out *hypervisor.Host
		if cycle%2 == 0 {
			resumed := h.status("vm-a").Secondaries[0].Name
			for _, cand := range h.hosts {
				if _, held := cand.Replica("vm-a"); held && cand.HostName() != resumed {
					out = cand
				}
			}
			if out == nil {
				t.Fatalf("cycle %d: no host but %s holds a deposit of vm-a", cycle, resumed)
			}
			out.Fail(hypervisor.Starved, "sits out the top-up")
		}
		h.ticks(1)
		if out != nil {
			out.Recover()
		}
		h.ticks(2)
		total := 0
		for _, name := range names {
			st := h.status(name)
			if st.Mode != ModeProtected || len(st.Legs) != 2 {
				t.Fatalf("cycle %d: %s is %s with %d legs, want protected at width 2", cycle, name, st.Mode, len(st.Legs))
			}
			total += deposits(h.hosts, name)
		}
		if want := len(names) * 2; total != want {
			t.Fatalf("cycle %d: %d deposits held for %d guests × 2 legs", cycle, total, len(names))
		}
	}
}

// TestRestartAfterForcedFailoverBeforeFirstAck: over TCP, re-protection
// after a forced failover seeds the peer, and a seed clears the peer's
// acked marker. A daemon that dies before the new generation's first
// acknowledged checkpoint resumes from the deposit, finds the peer
// holding nothing a delta could build on (ErrReplicaDiverged), and must
// fall back to a full re-seed instead of staying degraded forever.
func TestRestartAfterForcedFailoverBeforeFirstAck(t *testing.T) {
	srv := transport.NewServer(transport.ServerConfig{})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	h := newCrashHarness(t, "xk")
	h.kill() // nothing protected yet: start over, replicating over TCP
	h.peer = srv.Addr()
	h.boot()
	t.Cleanup(func() {
		if h.store != nil {
			h.kill()
		}
	})
	if _, err := h.m.Protect(VMSpec{
		Name: "vm", MemoryBytes: 256 * memory.PageSize, VCPUs: 1,
	}); err != nil {
		t.Fatal(err)
	}
	h.ticks(3)
	st0 := h.status("vm")

	if _, err := h.m.Failover("vm"); err != nil {
		t.Fatal(err)
	}
	if st := h.status("vm"); st.Mode != ModeProtected || st.Epoch != 0 {
		t.Fatalf("after the forced failover: mode %s at epoch %d, want re-protected with nothing acked yet", st.Mode, st.Epoch)
	}
	h.kill() // before the new generation's first ack
	_, rec := h.restart()
	if rec.Resumed != 1 {
		t.Fatalf("recover report %+v, want the protection resumed from its deposit", rec)
	}

	// The resumed replicator's first cycle finds the peer diverged; the
	// round must answer with a re-seed, not an error every tick.
	var tickErr error
	for i := 0; i < 3; i++ {
		if tickErr = h.m.Tick(); tickErr == nil {
			break
		}
	}
	st := h.status("vm")
	if tickErr != nil || st.Mode != ModeProtected {
		t.Fatalf("mode %s after the restart (last tick error: %v), want protected again", st.Mode, tickErr)
	}
	if st.Generation != st0.Generation+1 {
		t.Fatalf("generation %d after restart, want %d", st.Generation, st0.Generation+1)
	}
	h.ticks(2)
	if got := h.status("vm"); got.Epoch <= st.Epoch || got.Mode != ModeProtected {
		t.Fatalf("epoch %d → %d in mode %s, want checkpoints flowing again", st.Epoch, got.Epoch, got.Mode)
	}
	if n := vmInstances(h.hosts, "vm"); n != 1 {
		t.Fatalf("%d live copies of the VM, want 1", n)
	}
	// The peer replica is whole again: it equals the guest page by page.
	p := h.m.prots["vm"]
	peerMem, _, _, ok := srv.Replica("vm")
	if !ok {
		t.Fatal("peer holds no replica")
	}
	guest := p.vm.Memory()
	if d1, d2 := guest.DiffPages(peerMem), peerMem.DiffPages(guest); len(d1)+len(d2) > 0 {
		t.Fatalf("peer replica differs from the guest: %v / %v", d1, d2)
	}
}

func TestSplitBrainGuardHoldsAfterRestart(t *testing.T) {
	h := newCrashHarness(t, "xk")
	if _, err := h.m.Protect(VMSpec{
		Name: "vm", MemoryBytes: 512 * memory.PageSize, VCPUs: 2,
	}); err != nil {
		t.Fatal(err)
	}
	h.ticks(3)
	h.kill()
	h.restart()
	h.ticks(1)

	// The resumed session enforces the same activation discipline: the
	// out-of-band probe still sees the primary healthy, so an unforced
	// activation is refused.
	p := h.m.prots["vm"]
	if _, err := failover.ActivateOpts(p.rep, "vm-g1", failover.Options{Monitor: p.mon}); !errors.Is(err, failover.ErrSplitBrain) {
		t.Fatalf("activation beside a healthy primary = %v, want ErrSplitBrain", err)
	}
}

// TestRestartChaos is the randomized crash-restart storm: seeded kill
// points — between rounds, mid-checkpoint (the pair's link dies under
// a transfer and the cycle rolls back) and mid-failover (at any boundary
// of tickFailover) — after each of which the control plane rebuilds from the
// journal. Invariants: no protection is lost or forgotten, the fencing
// generation strictly increases, plain kills resume every protection
// by delta resync (never a re-seed), and each protection always has
// exactly one live VM instance.
func TestRestartChaos(t *testing.T) {
	const vms = 3
	const rounds = 8
	sim := vclock.NewSim()
	start := sim.Now()
	plan := faults.New(sim, 99)
	clk := plan.Clock()
	h := newCrashHarnessOn(t, "xkxk", clk)

	for i := 0; i < vms; i++ {
		spec := VMSpec{
			Name: fmt.Sprintf("vm%d", i), MemoryBytes: 512 * memory.PageSize, VCPUs: 2,
		}
		if i < 2 {
			spec.WorkloadSpec = WorkloadSpec{
				Name: "membench", LoadPercent: 30 + 10*float64(i), Seed: int64(i + 1),
			}
		}
		if _, err := h.m.Protect(spec); err != nil {
			t.Fatal(err)
		}
	}
	h.ticks(3)

	rng := rand.New(rand.NewSource(4242))
	prev := map[string]Status{}
	snap := func() {
		for _, st := range h.m.StatusAll() {
			prev[st.Name] = st
		}
	}
	snap()
	var lastFence uint64

	for round := 0; round < rounds; round++ {
		victim := fmt.Sprintf("vm%d", rng.Intn(vms))
		expectResumeAll := false
		switch rng.Intn(3) {
		case 0:
			// Plain kill/restart, timed by the fault plan — the schedule
			// hered would run under.
			var killed, restarted bool
			at := sim.Now().Sub(start) + time.Millisecond
			plan.DaemonCrash(at, 5*time.Millisecond,
				func() { killed = true }, func() { restarted = true })
			clk.Sleep(2 * time.Millisecond)
			if !killed {
				t.Fatalf("round %d: kill event did not fire", round)
			}
			h.kill()
			clk.Sleep(10 * time.Millisecond)
			if !restarted {
				t.Fatalf("round %d: restart event did not fire", round)
			}
			expectResumeAll = true
		case 1:
			// Kill mid-checkpoint: the transfer fails, the cycle rolls
			// back re-marking the dirty pages, then the daemon dies.
			p := h.m.prots[victim]
			link := h.m.links[p.primary.HostName()+"->"+p.secondaries[0].HostName()]
			link.SetDown(true)
			_ = h.m.Tick() // the victim's checkpoint rolls back
			link.SetDown(false)
			h.kill()
			expectResumeAll = true
		case 2:
			// Kill mid-failover: the victim's primary dies and the daemon
			// crashes at a random boundary of the failover it started.
			at := tickFailover[rng.Intn(len(tickFailover))]
			boom := fmt.Errorf("chaos: daemon crashed %s", at)
			began, dead := false, false
			h.m.crashHook = func(b boundary) error {
				began = began || b == tickFailover[0]
				dead = dead || began && b == at
				if dead {
					return boom
				}
				return nil
			}
			p := h.m.prots[victim]
			p.primary.(*hypervisor.Host).Fail(hypervisor.Crashed, "chaos host loss")
			if err := h.m.Tick(); !errors.Is(err, boom) {
				t.Fatalf("round %d: Tick = %v, want the injected crash", round, err)
			}
			h.kill()
		}

		_, rec := h.restart()
		if rec.Lost != 0 {
			t.Fatalf("round %d: lost %d protections: %+v", round, rec.Lost, rec)
		}
		if rec.Fence <= lastFence {
			t.Fatalf("round %d: fence %d did not advance past %d", round, rec.Fence, lastFence)
		}
		lastFence = rec.Fence
		if got := len(h.m.Protections()); got != vms {
			t.Fatalf("round %d: %d protections survived, want %d", round, got, vms)
		}
		if expectResumeAll && (rec.Resumed != vms || rec.Reseeded != 0) {
			t.Fatalf("round %d: recover report = %+v, want all %d resumed by delta resync", round, rec, vms)
		}
		for name, old := range prev {
			st := h.status(name)
			if st.Generation < old.Generation {
				t.Fatalf("round %d: %s generation regressed %d -> %d",
					round, name, old.Generation, st.Generation)
			}
			if expectResumeAll && st.Epoch < old.Epoch {
				t.Fatalf("round %d: %s epoch regressed %d -> %d",
					round, name, old.Epoch, st.Epoch)
			}
		}

		// Reboot whatever iron the round broke and let the fleet settle.
		for _, host := range h.hosts {
			if host.Health() != hypervisor.Healthy {
				host.Recover()
			}
		}
		h.ticks(3)
		for i := 0; i < vms; i++ {
			name := fmt.Sprintf("vm%d", i)
			if st := h.status(name); st.Mode != ModeProtected {
				t.Fatalf("round %d: %s mode %s after settling, want protected", round, name, st.Mode)
			}
			if n := vmInstances(h.hosts, name); n != 1 {
				t.Fatalf("round %d: %s has %d live instances, want exactly 1", round, name, n)
			}
		}
		snap()
	}

	if err := h.m.Guard().Admit(lastFence - 1); !errors.Is(err, failover.ErrFenced) {
		t.Fatalf("stale token admitted after %d restarts: %v", rounds, err)
	}
}
