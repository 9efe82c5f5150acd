package placement_test

import (
	"errors"
	"reflect"
	"testing"

	"github.com/here-ft/here/internal/chv"
	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/kvm"
	"github.com/here-ft/here/internal/placement"
	"github.com/here-ft/here/internal/qemukvm"
	"github.com/here-ft/here/internal/trace"
	"github.com/here-ft/here/internal/vclock"
	"github.com/here-ft/here/internal/vulns"
	"github.com/here-ft/here/internal/xen"
)

// mkHost builds one host of the named backend.
func mkHost(t *testing.T, backend, name string, clk vclock.Clock) *hypervisor.Host {
	t.Helper()
	h, err := hypervisor.NewHostOf(backend, name, clk)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// loadUp boots n filler VMs on a host.
func loadUp(t *testing.T, h *hypervisor.Host, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := h.CreateVM(hypervisor.VMConfig{
			Name: "filler-" + string(rune('a'+i)), MemBytes: 1 << 20, VCPUs: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func rejectionFor(d placement.Decision, host string) (placement.Rejection, bool) {
	for _, r := range d.Rejections {
		if r.Host == host {
			return r, true
		}
	}
	return placement.Rejection{}, false
}

// TestPlanRejectsSharedCVESurface is the §8.2 policy: with a QEMU-KVM
// primary, a second QEMU-KVM host (230 shared DoS CVEs) and a Xen host
// (192, via QEMU) both lose to the kvmtool host (38, kvm-core only),
// and both carry the typed shared-cve-surface rejection.
func TestPlanRejectsSharedCVESurface(t *testing.T) {
	clk := vclock.NewSim()
	hosts := []*hypervisor.Host{
		mkHost(t, qemukvm.Backend, "q1", clk),
		mkHost(t, qemukvm.Backend, "q2", clk),
		mkHost(t, xen.Backend, "x1", clk),
		mkHost(t, kvm.Backend, "k1", clk),
	}
	e := placement.New(placement.Config{})
	asn, err := e.Plan(placement.Spec{Name: "vm", Primary: "q1"}, hosts)
	if err != nil {
		t.Fatal(err)
	}
	if len(asn.Secondaries) != 1 || asn.Secondaries[0].HostName() != "k1" {
		t.Fatalf("secondaries = %v, want [k1]", asn.Decision.Secondaries)
	}
	q2, ok := rejectionFor(asn.Decision, "q2")
	if !ok || q2.Reason != placement.RejectSharedCVEs || q2.Overlap != 230 {
		t.Fatalf("q2 rejection = %+v, want shared-cve-surface overlap 230", q2)
	}
	x1, ok := rejectionFor(asn.Decision, "x1")
	if !ok || x1.Reason != placement.RejectSharedCVEs || x1.Overlap != 192 {
		t.Fatalf("x1 rejection = %+v, want shared-cve-surface overlap 192", x1)
	}
	if asn.Decision.Secondaries[0].Overlap != 38 {
		t.Fatalf("winner overlap = %d, want 38", asn.Decision.Secondaries[0].Overlap)
	}
}

// TestChainAvoidsFlavorDoubling: for a 1+2 chain on a Xen primary, two
// zero-overlap cloud-hypervisor hosts beat a QEMU-KVM host even for
// the second slot — the chain-aware score counts overlap between
// secondaries too.
func TestChainAvoidsFlavorDoubling(t *testing.T) {
	clk := vclock.NewSim()
	hosts := []*hypervisor.Host{
		mkHost(t, xen.Backend, "x1", clk),
		mkHost(t, qemukvm.Backend, "q1", clk),
		mkHost(t, chv.Backend, "c1", clk),
		mkHost(t, chv.Backend, "c2", clk),
	}
	e := placement.New(placement.Config{})
	asn, err := e.Plan(placement.Spec{Name: "vm", Primary: "x1", Secondaries: 2}, hosts)
	if err != nil {
		t.Fatal(err)
	}
	got := []string{asn.Secondaries[0].HostName(), asn.Secondaries[1].HostName()}
	if got[0] != "c1" || got[1] != "c2" {
		t.Fatalf("chain = %v, want [c1 c2]", got)
	}
	q1, ok := rejectionFor(asn.Decision, "q1")
	if !ok || q1.Reason != placement.RejectSharedCVEs {
		t.Fatalf("q1 rejection = %+v", q1)
	}
}

// noRestoreFlavor simulates a backend that can run guests but not
// restore snapshots (e.g. a live-migration-only stack).
func noRestoreFlavor() hypervisor.Flavor {
	f := kvm.Flavor()
	f.Caps.SnapshotRestore = false
	return f
}

func TestTypedRejections(t *testing.T) {
	clk := vclock.NewSim()
	down := mkHost(t, kvm.Backend, "down", clk)
	down.Fail(hypervisor.Crashed, "test")
	norestore, err := hypervisor.NewHost(noRestoreFlavor(), "norestore", clk)
	if err != nil {
		t.Fatal(err)
	}
	full := mkHost(t, kvm.Backend, "full", clk)
	loadUp(t, full, 2)
	hosts := []*hypervisor.Host{
		mkHost(t, xen.Backend, "x1", clk),
		down, norestore, full,
		mkHost(t, kvm.Backend, "k1", clk),
	}
	e := placement.New(placement.Config{MaxVMs: 2})
	asn, err := e.Plan(placement.Spec{Name: "vm", Primary: "x1"}, hosts)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]placement.RejectReason{
		"x1":        placement.RejectIsPrimary,
		"down":      placement.RejectUnhealthy,
		"norestore": placement.RejectNoRestore,
		"full":      placement.RejectHostFull,
	}
	for host, reason := range want {
		r, ok := rejectionFor(asn.Decision, host)
		if !ok || r.Reason != reason {
			t.Errorf("rejection for %s = %+v, want %s", host, r, reason)
		}
	}
	if len(asn.Secondaries) != 1 || asn.Secondaries[0].HostName() != "k1" {
		t.Fatalf("secondaries = %v", asn.Decision.Secondaries)
	}
}

// TestReplanPrefersNextBestWhenFull: when the lowest-overlap
// replacement host has no capacity, the plan falls through to the
// next-best flavor instead of failing — the re-plan edge case.
func TestReplanPrefersNextBestWhenFull(t *testing.T) {
	clk := vclock.NewSim()
	preferred := mkHost(t, kvm.Backend, "k-full", clk)
	loadUp(t, preferred, 3)
	hosts := []*hypervisor.Host{
		mkHost(t, xen.Backend, "x1", clk),
		preferred,
		mkHost(t, qemukvm.Backend, "q1", clk),
	}
	e := placement.New(placement.Config{MaxVMs: 3})
	asn, err := e.PlanSecondaries(placement.Spec{Name: "vm"}, hosts[0], hosts)
	if err != nil {
		t.Fatal(err)
	}
	if len(asn.Secondaries) != 1 || asn.Secondaries[0].HostName() != "q1" {
		t.Fatalf("secondaries = %v, want fallback to q1", asn.Decision.Secondaries)
	}
	r, ok := rejectionFor(asn.Decision, "k-full")
	if !ok || r.Reason != placement.RejectHostFull {
		t.Fatalf("k-full rejection = %+v", r)
	}
}

func TestShortfallAndNoSecondary(t *testing.T) {
	clk := vclock.NewSim()
	x1 := mkHost(t, xen.Backend, "x1", clk)
	k1 := mkHost(t, kvm.Backend, "k1", clk)
	e := placement.New(placement.Config{})
	asn, err := e.Plan(placement.Spec{Name: "vm", Primary: "x1", Secondaries: 2},
		[]*hypervisor.Host{x1, k1})
	if err != nil {
		t.Fatal(err)
	}
	if len(asn.Secondaries) != 1 || asn.Decision.Shortfall != 1 {
		t.Fatalf("got %d secondaries, shortfall %d", len(asn.Secondaries), asn.Decision.Shortfall)
	}
	_, err = e.Plan(placement.Spec{Name: "vm", Primary: "x1"}, []*hypervisor.Host{x1})
	if !errors.Is(err, placement.ErrNoSecondary) {
		t.Fatalf("err = %v, want ErrNoSecondary", err)
	}
}

func TestPrimarySelection(t *testing.T) {
	clk := vclock.NewSim()
	busy := mkHost(t, xen.Backend, "busy", clk)
	loadUp(t, busy, 2)
	idle := mkHost(t, kvm.Backend, "idle", clk)
	spare := mkHost(t, chv.Backend, "spare", clk)
	e := placement.New(placement.Config{})
	asn, err := e.Plan(placement.Spec{Name: "vm"}, []*hypervisor.Host{busy, idle, spare})
	if err != nil {
		t.Fatal(err)
	}
	if asn.Primary.HostName() != "idle" {
		t.Fatalf("primary = %s, want least-loaded idle", asn.Primary.HostName())
	}
	if _, err := e.Plan(placement.Spec{Name: "vm", Primary: "nonesuch"}, []*hypervisor.Host{busy}); !errors.Is(err, placement.ErrNoPrimary) {
		t.Fatalf("pinned unknown primary: err = %v", err)
	}
	downed := mkHost(t, xen.Backend, "downed", clk)
	downed.Fail(hypervisor.Hung, "test")
	if _, err := e.Plan(placement.Spec{Name: "vm", Primary: "downed"}, []*hypervisor.Host{downed, idle}); !errors.Is(err, placement.ErrNoPrimary) {
		t.Fatalf("pinned dead primary: err = %v", err)
	}
}

func TestScoreMatrixAndMetrics(t *testing.T) {
	clk := vclock.NewSim()
	reg := trace.NewRegistry()
	hosts := []*hypervisor.Host{
		mkHost(t, xen.Backend, "x1", clk),
		mkHost(t, kvm.Backend, "k1", clk),
		mkHost(t, qemukvm.Backend, "q1", clk),
	}
	e := placement.New(placement.Config{Metrics: reg})
	matrix := e.ScoreMatrix(hosts)
	if len(matrix) != 6 {
		t.Fatalf("matrix has %d entries, want 6", len(matrix))
	}
	for _, m := range matrix {
		want := vulns.Overlap(m.PrimaryFlavor, m.SecondaryFlavor)
		if m.Overlap != want {
			t.Errorf("matrix %s→%s overlap %d, want %d", m.Primary, m.Secondary, m.Overlap, want)
		}
	}
	if _, err := e.Plan(placement.Spec{Name: "vm"}, hosts); err != nil {
		t.Fatal(err)
	}
	// One plan, and at least the is-primary plus one scored rejection.
	assertCounter(t, reg, "here_placement_plans_total", 1)
}

func assertCounter(t *testing.T, reg *trace.Registry, name string, want int64) {
	t.Helper()
	c := reg.Counter(name, "")
	if c.Value() != want {
		t.Fatalf("%s = %d, want %d", name, c.Value(), want)
	}
}

// TestWarmHostOutranksLoadOnly: Spec.Warm names a host that already
// holds a copy of the guest. It wins over a less loaded host of equal
// CVE overlap and is recorded as taken for its copy; it loses whenever a
// gate rejects it or another candidate shares fewer CVEs with the
// primary. A plan that names no warm host, or one outside the fleet, is
// the plan it always was.
func TestWarmHostOutranksLoadOnly(t *testing.T) {
	type fleet struct {
		hosts []*hypervisor.Host
		cfg   placement.Config
	}
	// Every fleet has the QEMU-KVM primary q1, the warm host w (loaded
	// with three VMs unless the row says otherwise) and an idle kvmtool
	// rival a, whose name and load both beat w's.
	build := func(t *testing.T, warm func(clk vclock.Clock) *hypervisor.Host, cfg placement.Config) fleet {
		clk := vclock.NewSim()
		return fleet{cfg: cfg, hosts: []*hypervisor.Host{
			mkHost(t, qemukvm.Backend, "q1", clk), warm(clk), mkHost(t, kvm.Backend, "a", clk),
		}}
	}
	loaded := func(backend string, n int) func(vclock.Clock) *hypervisor.Host {
		return func(clk vclock.Clock) *hypervisor.Host {
			h := mkHost(t, backend, "w", clk)
			loadUp(t, h, n)
			return h
		}
	}
	cases := []struct {
		name   string
		warm   func(vclock.Clock) *hypervisor.Host
		cfg    placement.Config
		winner string
		reject placement.RejectReason // of the loser
	}{
		{"beats load", loaded(kvm.Backend, 3), placement.Config{}, "w", placement.RejectOutscored},
		{"unhealthy", func(clk vclock.Clock) *hypervisor.Host {
			h := mkHost(t, kvm.Backend, "w", clk)
			h.Fail(hypervisor.Crashed, "test")
			return h
		}, placement.Config{}, "a", placement.RejectUnhealthy},
		{"host full", loaded(kvm.Backend, 3), placement.Config{MaxVMs: 3}, "a", placement.RejectHostFull},
		{"no restore", func(clk vclock.Clock) *hypervisor.Host {
			h, err := hypervisor.NewHost(noRestoreFlavor(), "w", clk)
			if err != nil {
				t.Fatal(err)
			}
			return h
		}, placement.Config{}, "a", placement.RejectNoRestore},
		{"identical flavor", loaded(qemukvm.Backend, 0), placement.Config{}, "a", placement.RejectSharedCVEs},
		{"higher overlap", loaded(xen.Backend, 0), placement.Config{}, "a", placement.RejectSharedCVEs},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := build(t, tc.warm, tc.cfg)
			e := placement.New(f.cfg)
			matrix := e.ScoreMatrix(f.hosts)
			plain, err := e.Plan(placement.Spec{Name: "vm", Primary: "q1"}, f.hosts)
			if err != nil {
				t.Fatal(err)
			}
			if got := plain.Decision.Secondaries[0]; got.Host != "a" || got.Warm {
				t.Fatalf("without a warm host the plan took %+v, want a", got)
			}
			absent, err := e.Plan(placement.Spec{Name: "vm", Primary: "q1", Warm: "gone"}, f.hosts)
			if err != nil || !reflect.DeepEqual(absent.Decision, plain.Decision) {
				t.Fatalf("a warm host outside the fleet changed the plan:\n%+v\n%+v (%v)", absent.Decision, plain.Decision, err)
			}
			asn, err := e.Plan(placement.Spec{Name: "vm", Primary: "q1", Warm: "w"}, f.hosts)
			if err != nil {
				t.Fatal(err)
			}
			got := asn.Decision.Secondaries[0]
			if got.Host != tc.winner || got.Warm != (tc.winner == "w") {
				t.Fatalf("took %+v, want %s", got, tc.winner)
			}
			loser := "w"
			if tc.winner == "w" {
				loser = "a"
				if got.Load != 3 || got.Score != plainScore(38, 3) {
					t.Fatalf("warm choice %+v: load and score must stay what the host really carries", got)
				}
			}
			if r, ok := rejectionFor(asn.Decision, loser); !ok || r.Reason != tc.reject {
				t.Fatalf("rejection for %s = %+v, want %s", loser, r, tc.reject)
			}
			if !reflect.DeepEqual(e.ScoreMatrix(f.hosts), matrix) {
				t.Fatal("planning with a warm host changed the score matrix")
			}
		})
	}

	// In a 1+2 chain the warm host takes the first slot it is entitled
	// to: the zero-overlap Xen host still goes first.
	clk := vclock.NewSim()
	w := mkHost(t, kvm.Backend, "w", clk)
	loadUp(t, w, 2)
	hosts := []*hypervisor.Host{
		mkHost(t, chv.Backend, "c1", clk), w,
		mkHost(t, kvm.Backend, "k2", clk), mkHost(t, xen.Backend, "x1", clk),
	}
	asn, err := placement.New(placement.Config{}).Plan(
		placement.Spec{Name: "vm", Primary: "c1", Secondaries: 2, Warm: "w"}, hosts)
	if err != nil {
		t.Fatal(err)
	}
	if s := asn.Decision.Secondaries; len(s) != 2 || s[0].Host != "x1" || s[0].Warm || s[1].Host != "w" || !s[1].Warm {
		t.Fatalf("chain = %+v, want x1 then the warm w", s)
	}
}

// plainScore is the default-weight score of a single-secondary plan.
func plainScore(overlap, load int) float64 { return 10*float64(overlap) + float64(load) }
