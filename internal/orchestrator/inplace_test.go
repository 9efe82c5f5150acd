package orchestrator

// In-place recovery end-to-end tests: seeded transient hypervisor
// faults answered by the microreboot ladder, the escalation paths when
// the ladder is wedged or out of deadline, and the crash-restart
// resolution of an interrupted microreboot. White-box like
// restart_test.go: the invariants (seed spans, fencing generations,
// one live VM instance) need the manager's internals.

import (
	"errors"
	"testing"
	"time"

	"github.com/here-ft/here/internal/faults"
	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/journal"
	"github.com/here-ft/here/internal/kvm"
	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/recovery"
	"github.com/here-ft/here/internal/trace"
	"github.com/here-ft/here/internal/vclock"
	"github.com/here-ft/here/internal/xen"
)

// inplaceRig is a manager with a metrics registry over a small host
// fleet, all on one simulated clock.
type inplaceRig struct {
	t     *testing.T
	clk   vclock.Clock
	reg   *trace.Registry
	m     *Manager
	hosts []*hypervisor.Host
}

func newInplaceRig(t *testing.T, kinds string, pol recovery.Policy) *inplaceRig {
	t.Helper()
	r := &inplaceRig{t: t, clk: vclock.NewSim(), reg: trace.NewRegistry()}
	m, err := New(Config{Clock: r.clk, Metrics: r.reg, Recovery: pol})
	if err != nil {
		t.Fatal(err)
	}
	r.m = m
	for i, c := range kinds {
		name := string(c) + string(rune('0'+i))
		var host *hypervisor.Host
		if c == 'x' {
			host, err = xen.New(name, r.clk)
		} else {
			host, err = kvm.New(name, r.clk)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AddHost(host); err != nil {
			t.Fatal(err)
		}
		r.hosts = append(r.hosts, host)
	}
	return r
}

func (r *inplaceRig) ticks(n int) {
	r.t.Helper()
	for i := 0; i < n; i++ {
		if err := r.m.Tick(); err != nil {
			r.t.Fatalf("Tick: %v", err)
		}
	}
}

func (r *inplaceRig) status(name string) Status {
	r.t.Helper()
	st, err := r.m.Status(name)
	if err != nil {
		r.t.Fatalf("Status(%s): %v", name, err)
	}
	return st
}

// ticksUntilProtected drives rounds until the protection is back in
// mode protected, failing the test past the bound.
func (r *inplaceRig) ticksUntilProtected(name string, bound int) {
	r.t.Helper()
	for i := 0; i < bound; i++ {
		r.ticks(1)
		if r.status(name).Mode == ModeProtected {
			return
		}
	}
	r.t.Fatalf("%s not protected within %d ticks (mode %s)",
		name, bound, r.status(name).Mode)
}

func (r *inplaceRig) counter(name string) int64 {
	return r.reg.Counter(name, "").Value()
}

func seedSpans(p *Protection) int {
	n := 0
	for _, ev := range p.tr.Events() {
		if ev.Kind == trace.SpanSeedRound {
			n++
		}
	}
	return n
}

func eventKinds(m *Manager) map[EventKind]int {
	out := map[EventKind]int{}
	for _, e := range m.Events() {
		out[e.Kind]++
	}
	return out
}

// TestTransientHangRecoversInPlace is the happy-path chaos e2e: a
// transient primary hang heals under the ladder, the hypervisor is
// microrebooted beneath the surviving guest, and protection returns by
// delta resync — same primary, same fencing generation, no epoch
// rollback, and not one new seed round.
func TestTransientHangRecoversInPlace(t *testing.T) {
	r := newInplaceRig(t, "xkx", recovery.Policy{
		Deadline: 5 * time.Second, MaxAttempts: 4,
		Backoff: 50 * time.Millisecond, Jitter: 0,
	})
	p, err := r.m.Protect(VMSpec{
		Name: "vm", MemoryBytes: 512 * memory.PageSize, VCPUs: 2,
		WorkloadSpec: WorkloadSpec{Name: "membench", LoadPercent: 30, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	marker := []byte("in-place survivor")
	if err := p.VM().WriteGuest(0, 9*memory.PageSize, marker); err != nil {
		t.Fatal(err)
	}
	r.ticks(5)
	st0 := r.status("vm")
	if st0.Mode != ModeProtected {
		t.Fatalf("mode %s after warmup, want protected", st0.Mode)
	}
	seedsBefore := seedSpans(r.m.prots["vm"])
	if seedsBefore == 0 {
		t.Fatal("no seed rounds in the first lifetime; the no-reseed check would be vacuous")
	}

	plan := faults.New(r.clk, 7)
	plan.Instrument(nil, r.reg)
	plan.HostTransientHang(0, 50*time.Millisecond,
		hostNamed(r.hosts, st0.Primary.Name), "transient stall")
	plan.Advance(r.clk.Now())
	r.ticksUntilProtected("vm", 30)

	st := r.status("vm")
	if st.Primary.Name != st0.Primary.Name {
		t.Fatalf("primary moved to %s — that is a failover, not in-place recovery", st.Primary.Name)
	}
	if st.Generation != st0.Generation {
		t.Fatalf("generation %d -> %d: in-place recovery must not mint a fence", st0.Generation, st.Generation)
	}
	if st.Epoch < st0.Epoch {
		t.Fatalf("epoch regressed %d -> %d across in-place recovery", st0.Epoch, st.Epoch)
	}
	if got := seedSpans(r.m.prots["vm"]); got != seedsBefore {
		t.Fatalf("seed rounds %d -> %d: in-place recovery must resync by delta, never re-seed",
			seedsBefore, got)
	}
	if got := r.counter("here_recovery_inplace_total"); got != 1 {
		t.Fatalf("here_recovery_inplace_total = %d, want 1", got)
	}
	if got := r.counter("here_recovery_escalations_total"); got != 0 {
		t.Fatalf("here_recovery_escalations_total = %d, want 0", got)
	}
	if got := r.counter("here_recovery_attempts_total"); got < 1 {
		t.Fatalf("here_recovery_attempts_total = %d, want >= 1", got)
	}
	if kinds := eventKinds(r.m); kinds[EventMicrorebooted] != 1 || kinds[EventFailedOver] != 0 {
		t.Fatalf("events = %v, want one microrebooted and no failed-over", kinds)
	}
	if n := vmInstances(r.hosts, "vm"); n != 1 {
		t.Fatalf("%d live VM instances, want exactly 1", n)
	}
	got := make([]byte, len(marker))
	if err := p.VM().ReadGuest(9*memory.PageSize, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(marker) {
		t.Fatalf("guest data lost across the microreboot: %q", got)
	}
	r.ticks(3)
	if st := r.status("vm"); st.Mode != ModeProtected {
		t.Fatalf("mode %s after settle ticks, want protected", st.Mode)
	}
}

// TestRecoveryLadderEscalatesToFailover covers both exhaustion arms:
// every microreboot attempt wedges (injected), or the transient fault
// outlives the policy deadline. Either way the ladder must hand the
// failure to the ordinary fenced failover — generation bump, replica
// activated, exactly one live instance.
func TestRecoveryLadderEscalatesToFailover(t *testing.T) {
	cases := []struct {
		name string
		pol  recovery.Policy
		prep func(*faults.Plan)
		heal time.Duration
	}{
		{
			name: "wedged-reboots",
			pol: recovery.Policy{Deadline: 5 * time.Second, MaxAttempts: 3,
				Backoff: 20 * time.Millisecond},
			prep: func(p *faults.Plan) { p.MicrorebootFailure(1.0) },
			heal: 10 * time.Millisecond,
		},
		{
			name: "deadline-expired",
			pol: recovery.Policy{Deadline: 400 * time.Millisecond, MaxAttempts: 100,
				Backoff: 100 * time.Millisecond},
			prep: func(*faults.Plan) {},
			heal: time.Hour, // still healing at every attempt
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newInplaceRig(t, "xkx", tc.pol)
			if _, err := r.m.Protect(VMSpec{
				Name: "vm", MemoryBytes: 512 * memory.PageSize, VCPUs: 2,
			}); err != nil {
				t.Fatal(err)
			}
			r.ticks(4)
			st0 := r.status("vm")

			plan := faults.New(r.clk, 11)
			tc.prep(plan)
			plan.HostTransientHang(0, tc.heal,
				hostNamed(r.hosts, st0.Primary.Name), "stubborn stall")
			plan.Advance(r.clk.Now())
			r.ticksUntilProtected("vm", 30)

			st := r.status("vm")
			if st.Generation != st0.Generation+1 {
				t.Fatalf("generation %d, want %d: escalation must fence", st.Generation, st0.Generation+1)
			}
			if st.Primary.Name != st0.Secondary.Name {
				t.Fatalf("runs on %s, want the replica host %s", st.Primary.Name, st0.Secondary.Name)
			}
			if got := r.counter("here_recovery_escalations_total"); got != 1 {
				t.Fatalf("here_recovery_escalations_total = %d, want 1", got)
			}
			if got := r.counter("here_recovery_inplace_total"); got != 0 {
				t.Fatalf("here_recovery_inplace_total = %d, want 0", got)
			}
			kinds := eventKinds(r.m)
			if kinds[EventRecoveryEscalated] != 1 || kinds[EventFailedOver] != 1 {
				t.Fatalf("events = %v, want one escalation and one failover", kinds)
			}
			if n := vmInstances(r.hosts, "vm"); n != 1 {
				t.Fatalf("%d live VM instances after escalation, want exactly 1", n)
			}
		})
	}
}

// TestRestartResolvesInterruptedMicroreboot kills the daemon at both
// crash points inside the ladder. The journaled intent minted no
// fencing token, so restart recovery resolves from the primary's
// actual state: still hung at the intent point → the normal deposit
// failover; already rebooted at the done point → re-attach to the
// surviving guest with no generation bump. Either way exactly one
// live instance.
func TestRestartResolvesInterruptedMicroreboot(t *testing.T) {
	cases := []struct {
		name   string
		at     boundary
		healed bool // the microreboot completed before the crash
	}{
		{"killed-at-intent", boundary{op: "microreboot"}, false},
		{"killed-after-reboot", boundary{op: "write", kind: journal.RecRebooted}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Three hosts: when the intent-point crash forces a deposit
			// failover, the still-hung old primary cannot serve as the
			// re-protection partner — the spare must.
			h := newCrashHarness(t, "xkx")
			if _, err := h.m.Protect(VMSpec{
				Name: "vm", MemoryBytes: 512 * memory.PageSize, VCPUs: 2,
			}); err != nil {
				t.Fatal(err)
			}
			if _, err := h.m.SetRecovery("vm", recovery.Policy{
				Deadline: 5 * time.Second, MaxAttempts: 3,
				Backoff: 20 * time.Millisecond,
			}); err != nil {
				t.Fatal(err)
			}
			h.ticks(3)
			st0 := h.status("vm")

			boom := h.crashAt(tc.at)
			plan := faults.New(h.clk, 3)
			plan.HostTransientHang(0, 0, hostNamed(h.hosts, st0.Primary.Name), "stall")
			plan.Advance(h.clk.Now())
			if err := h.m.Tick(); !errors.Is(err, boom) {
				t.Fatalf("Tick = %v, want the injected crash", err)
			}
			h.kill()
			_, rec := h.restart()

			st := h.status("vm")
			if tc.healed {
				if rec.Resumed != 1 || rec.FailedOver != 0 {
					t.Fatalf("recover report = %+v, want the rebooted primary resumed", rec)
				}
				if st.Primary.Name != st0.Primary.Name || st.Generation != st0.Generation {
					t.Fatalf("gen %d on %s, want gen %d back on %s",
						st.Generation, st.Primary.Name, st0.Generation, st0.Primary.Name)
				}
				// The guest survived in place: the journaled cursor must
				// carry over, never regress.
				if st.Epoch < st0.Epoch {
					t.Fatalf("epoch regressed %d -> %d across the crash", st0.Epoch, st.Epoch)
				}
			} else {
				if rec.FailedOver != 1 {
					t.Fatalf("recover report = %+v, want 1 failed over from the deposit", rec)
				}
				if st.Primary.Name != st0.Secondary.Name || st.Generation != st0.Generation+1 {
					t.Fatalf("gen %d on %s, want gen %d on the replica host %s",
						st.Generation, st.Primary.Name, st0.Generation+1, st0.Secondary.Name)
				}
			}
			if n := vmInstances(h.hosts, "vm"); n != 1 {
				t.Fatalf("%d live VM instances after restart, want exactly 1", n)
			}
			// The tuned ladder itself survived the restart.
			if got := h.status("vm").RecoveryPolicy.MaxAttempts; got != 3 {
				t.Fatalf("recovery tuning lost across restart: MaxAttempts = %d", got)
			}
			for i := 0; i < 5; i++ {
				h.ticks(1)
				if h.status("vm").Mode == ModeProtected {
					break
				}
			}
			if got := h.status("vm"); got.Mode != ModeProtected {
				t.Fatalf("mode %s after settle ticks, want protected", got.Mode)
			}
			if n := vmInstances(h.hosts, "vm"); n != 1 {
				t.Fatalf("%d live VM instances after re-protection, want exactly 1", n)
			}
		})
	}
}

// TestRecoveryTuningJournaled: SetRecovery survives a hard kill, and
// an all-zero policy durably disables the ladder.
func TestRecoveryTuningJournaled(t *testing.T) {
	h := newCrashHarness(t, "xk")
	if _, err := h.m.Protect(VMSpec{
		Name: "vm", MemoryBytes: 512 * memory.PageSize, VCPUs: 2,
	}); err != nil {
		t.Fatal(err)
	}
	pol := recovery.Policy{
		Deadline: 3 * time.Second, MaxAttempts: 5,
		Backoff: 250 * time.Millisecond, Jitter: 0.1,
	}
	if _, err := h.m.SetRecovery("vm", pol); err != nil {
		t.Fatal(err)
	}
	h.ticks(2)
	h.kill()
	h.restart()
	if got := h.status("vm").RecoveryPolicy; got != pol {
		t.Fatalf("policy after restart = %+v, want %+v", got, pol)
	}

	if _, err := h.m.SetRecovery("vm", recovery.Policy{}); err != nil {
		t.Fatal(err)
	}
	h.kill()
	h.restart()
	if got := h.status("vm").RecoveryPolicy; got.Enabled() {
		t.Fatalf("policy after disable+restart = %+v, want disabled", got)
	}
}
