package orchestrator_test

import (
	"testing"

	"github.com/here-ft/here/internal/chv"
	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/orchestrator"
	"github.com/here-ft/here/internal/placement"
	"github.com/here-ft/here/internal/qemukvm"
	"github.com/here-ft/here/internal/vclock"
	"github.com/here-ft/here/internal/xen"

	kvmpkg "github.com/here-ft/here/internal/kvm"
)

// fleet4 builds a manager over all four registered backends.
// kinds: 'x' Xen, 'k' kvmtool, 'q' QEMU-KVM, 'c' Cloud Hypervisor.
func fleet4(t *testing.T, kinds string) (*orchestrator.Manager, []*hypervisor.Host, *vclock.SimClock) {
	t.Helper()
	clk := vclock.NewSim()
	m, err := orchestrator.New(orchestrator.Config{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	var hosts []*hypervisor.Host
	for i, c := range kinds {
		name := string(c) + string(rune('0'+i))
		var h *hypervisor.Host
		var err error
		switch c {
		case 'x':
			h, err = xen.New(name, clk)
		case 'k':
			h, err = kvmpkg.New(name, clk)
		case 'q':
			h, err = qemukvm.New(name, clk)
		case 'c':
			h, err = chv.New(name, clk)
		default:
			t.Fatalf("unknown host kind %q", c)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AddHost(h); err != nil {
			t.Fatal(err)
		}
		hosts = append(hosts, h)
	}
	return m, hosts, clk
}

func nwaySpec(name string, secondaries int) orchestrator.VMSpec {
	return orchestrator.VMSpec{
		Name: name, MemoryBytes: 512 * memory.PageSize, VCPUs: 2,
		Secondaries: secondaries,
	}
}

func secondaryNames(p *orchestrator.Protection) []string {
	var names []string
	for _, s := range p.Secondaries() {
		names = append(names, s.HostName())
	}
	return names
}

func hasSecondary(p *orchestrator.Protection, name string) bool {
	for _, s := range p.Secondaries() {
		if s.HostName() == name {
			return true
		}
	}
	return false
}

func TestProtectBuildsTwoSecondaryChain(t *testing.T) {
	m, _, _ := fleet4(t, "xkc")
	p, err := m.Protect(nwaySpec("svc", 2))
	if err != nil {
		t.Fatal(err)
	}
	secs := p.Secondaries()
	if len(secs) != 2 {
		t.Fatalf("chain width = %d, want 2", len(secs))
	}
	kinds := map[hypervisor.Kind]bool{p.Primary().Kind(): true}
	for _, s := range secs {
		if kinds[s.Kind()] {
			t.Fatalf("chain doubled up a flavor: primary %v + %v", p.Primary().Kind(), secondaryNames(p))
		}
		kinds[s.Kind()] = true
	}
	st, err := m.Status("svc")
	if err != nil {
		t.Fatal(err)
	}
	if st.Want != 2 || len(st.Secondaries) != 2 || len(st.Legs) != 2 {
		t.Fatalf("status chain = want %d, secondaries %d, legs %d",
			st.Want, len(st.Secondaries), len(st.Legs))
	}
	if st.Placement == nil || len(st.Placement.Secondaries) != 2 {
		t.Fatalf("status placement rationale missing: %+v", st.Placement)
	}

	// Both legs advance together across ticks.
	for i := 0; i < 3; i++ {
		if err := m.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	st, _ = m.Status("svc")
	if st.Legs[0].AckedEpoch == 0 || st.Legs[0].AckedEpoch != st.Legs[1].AckedEpoch {
		t.Fatalf("legs not advancing together: %+v", st.Legs)
	}
}

func TestProtectShortfallGrowsWhenHostJoins(t *testing.T) {
	// Only one secondary host exists: a width-2 request starts at width
	// 1 (best-effort, shortfall recorded), and the chain grows to full
	// width once a third host joins the fleet.
	m, _, clk := fleet4(t, "xk")
	p, err := m.Protect(nwaySpec("svc", 2))
	if err != nil {
		t.Fatal(err)
	}
	if got := secondaryNames(p); len(got) != 1 {
		t.Fatalf("secondaries = %v, want width 1", got)
	}
	st, _ := m.Status("svc")
	if st.Want != 2 || st.Placement == nil || st.Placement.Shortfall != 1 {
		t.Fatalf("shortfall not reported: want=%d placement=%+v", st.Want, st.Placement)
	}

	spare, err := chv.New("c9", clk)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddHost(spare); err != nil {
		t.Fatal(err)
	}
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	if got := secondaryNames(p); len(got) != 2 || !hasSecondary(p, "c9") {
		t.Fatalf("chain did not grow onto the new host: %v", got)
	}
	// Both legs replicate from here.
	for i := 0; i < 2; i++ {
		if err := m.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	st, _ = m.Status("svc")
	if len(st.Legs) != 2 || st.Legs[1].AckedEpoch == 0 {
		t.Fatalf("joined leg not replicating: %+v", st.Legs)
	}
}

// TestChainSurvivesLossOfEitherSecondary is the N-way acceptance
// scenario: a 1+2 chain loses one secondary, keeps replicating on the
// survivor with no epoch regress, and the next tick re-plans the
// chain back to full width onto the spare.
func TestChainSurvivesLossOfEitherSecondary(t *testing.T) {
	for _, victim := range []int{1, 2} {
		name := map[int]string{1: "first-secondary", 2: "second-secondary"}[victim]
		t.Run(name, func(t *testing.T) {
			// x0 primary, k1 + c2 secondaries, q3 spare.
			m, hosts, _ := fleet4(t, "xkcq")
			payload := []byte("chain-replicated data")
			p, err := m.Protect(nwaySpec("svc", 2))
			if err != nil {
				t.Fatal(err)
			}
			if got := secondaryNames(p); len(got) != 2 {
				t.Fatalf("secondaries = %v", got)
			}
			if err := p.VM().WriteGuest(0, 9*memory.PageSize, payload); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if err := m.Tick(); err != nil {
					t.Fatal(err)
				}
			}
			before, _ := m.Status("svc")
			if before.Epoch == 0 {
				t.Fatal("no epochs committed before the failure")
			}

			hosts[victim].Fail(hypervisor.Crashed, "exploit")
			if err := m.Tick(); err != nil {
				t.Fatal(err)
			}
			if p.Lost() {
				t.Fatal("service lost from a secondary failure")
			}
			if hasSecondary(p, hosts[victim].HostName()) {
				t.Fatalf("dead host still in the chain: %v", secondaryNames(p))
			}
			// Re-planned back to width 2 onto the spare QEMU-KVM host.
			if got := secondaryNames(p); len(got) != 2 || !hasSecondary(p, "q3") {
				t.Fatalf("chain not restored onto the spare: %v", got)
			}

			// Replication continues and never regresses.
			for i := 0; i < 3; i++ {
				if err := m.Tick(); err != nil {
					t.Fatal(err)
				}
			}
			after, _ := m.Status("svc")
			if after.Epoch < before.Epoch {
				t.Fatalf("epoch regressed across secondary loss: %d → %d", before.Epoch, after.Epoch)
			}
			if after.Generation != 0 {
				t.Fatalf("secondary loss bumped the generation: %d", after.Generation)
			}

			// The primary can still die and the VM survives with its data.
			hosts[0].Fail(hypervisor.Crashed, "exploit")
			if err := m.Tick(); err != nil {
				t.Fatal(err)
			}
			if p.Lost() {
				t.Fatal("service lost despite surviving legs")
			}
			got := make([]byte, len(payload))
			if err := p.VM().ReadGuest(9*memory.PageSize, got); err != nil {
				t.Fatal(err)
			}
			if string(got) != string(payload) {
				t.Fatalf("data lost across chain failover: %q", got)
			}

			var secondaryLost, reprotected bool
			for _, e := range m.Events() {
				switch e.Kind {
				case orchestrator.EventSecondaryLost:
					secondaryLost = true
				case orchestrator.EventReprotected:
					reprotected = true
				}
			}
			if !secondaryLost || !reprotected {
				t.Fatalf("missing chain events: %v", m.Events())
			}
		})
	}
}

// TestChainShrinksWhenNoSpareExists: losing a secondary with no spare
// left degrades the chain to width 1 — protection continues, and the
// fleet reports the shortfall instead of failing the tick.
func TestChainShrinksWhenNoSpareExists(t *testing.T) {
	m, hosts, _ := fleet4(t, "xkc")
	p, err := m.Protect(nwaySpec("svc", 2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := m.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	hosts[2].Fail(hypervisor.Crashed, "exploit")
	for i := 0; i < 3; i++ {
		if err := m.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if p.Lost() {
		t.Fatal("service lost from a secondary failure")
	}
	secs := secondaryNames(p)
	if len(secs) != 1 || secs[0] != "k1" {
		t.Fatalf("chain = %v, want just k1", secs)
	}
	st, _ := m.Status("svc")
	if st.Want != 2 {
		t.Fatalf("requested width forgotten: want = %d", st.Want)
	}

	// When the host is repaired, a later tick restores full width.
	hosts[2].Recover()
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	if got := secondaryNames(p); len(got) != 2 {
		t.Fatalf("chain not restored after repair: %v", got)
	}
}

// TestFailoverActivatesFreshestLegOfChain: after the primary dies the
// orchestrator must activate the leg holding the freshest acknowledged
// epoch, then re-protect the survivor set through the planner.
func TestFailoverActivatesFreshestLegOfChain(t *testing.T) {
	m, hosts, _ := fleet4(t, "xkc")
	p, err := m.Protect(nwaySpec("svc", 2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := m.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	hosts[0].Fail(hypervisor.Crashed, "exploit")
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	if p.Lost() {
		t.Fatal("service lost despite two healthy legs")
	}
	newPrimary := p.Primary().HostName()
	if newPrimary != "k1" && newPrimary != "c2" {
		t.Fatalf("failed over to %s, not a chain leg", newPrimary)
	}
	if p.Generation != 1 {
		t.Fatalf("generation = %d", p.Generation)
	}
	// The surviving leg re-protects the new primary (width shrinks to
	// the one remaining heterogeneous host).
	if got := secondaryNames(p); len(got) != 1 || got[0] == newPrimary {
		t.Fatalf("survivor set not re-protected: %v", got)
	}
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
}

// TestReplanKeepsGuestFeatures: a guest booted on the CPU features of a
// Xen → 2 × Cloud Hypervisor chain fails over to Cloud Hypervisor. The
// re-plan must not pick a kvmtool host that lacks one of those features
// — its seed could never resume the guest — and every later round must
// run clean.
func TestReplanKeepsGuestFeatures(t *testing.T) {
	m, hosts, _ := fleet4(t, "xkcxkc")
	p, err := m.Protect(nwaySpec("svc", 2))
	if err != nil {
		t.Fatal(err)
	}
	if got := secondaryNames(p); p.Primary().HostName() != "x0" || len(got) != 2 || got[0][0] != 'c' || got[1][0] != 'c' {
		t.Fatalf("placed %s -> %v, want x0 -> two Cloud Hypervisor hosts", p.Primary().HostName(), got)
	}
	features := p.VM().MachineState().Features
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	hosts[0].Fail(hypervisor.Crashed, "exploit")
	if err := m.Tick(); err != nil {
		t.Fatalf("failover tick: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := m.Tick(); err != nil {
			t.Fatalf("tick %d after the failover: %v", i, err)
		}
	}
	if p.Primary().HostName()[0] != 'c' || p.Generation != 1 {
		t.Fatalf("failed over to %s (generation %d), want a Cloud Hypervisor leg", p.Primary().HostName(), p.Generation)
	}
	st, err := m.Status("svc")
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != orchestrator.ModeProtected || len(st.Secondaries) == 0 {
		t.Fatalf("after the failover: %s with %d legs, want protected", st.Mode, len(st.Secondaries))
	}
	for _, s := range st.Secondaries {
		if s.Name[0] == 'k' {
			t.Fatalf("re-planned onto %s, which lacks %v", s.Name, features)
		}
	}
	rejected := 0
	for _, r := range st.Placement.Rejections {
		if r.Host[0] == 'k' && hosts[1].Features()&features != features {
			if r.Reason != placement.RejectNoFeatures || r.Detail == "" {
				t.Fatalf("%s rejected as %s (%q), want %s naming the missing features", r.Host, r.Reason, r.Detail, placement.RejectNoFeatures)
			}
			rejected++
		}
	}
	if rejected != 2 {
		t.Fatalf("rejections %+v: want both kvmtool hosts rejected for features", st.Placement.Rejections)
	}
}
