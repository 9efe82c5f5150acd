package controlplane

// End-to-end placement tests: the security-aware planner's decisions
// — chosen chain, typed rejections, pairwise score matrix — must be
// visible through the HTTP API exactly as the paper's §8.2 overlap
// table dictates.

import (
	"strconv"
	"testing"

	"github.com/here-ft/here/internal/chv"
	"github.com/here-ft/here/internal/fleet"
	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/kvm"
	"github.com/here-ft/here/internal/orchestrator"
	"github.com/here-ft/here/internal/placement"
	"github.com/here-ft/here/internal/qemukvm"
	"github.com/here-ft/here/internal/trace"
	"github.com/here-ft/here/internal/vclock"
	"github.com/here-ft/here/internal/vulns"
	"github.com/here-ft/here/internal/xen"
)

// newFlavorFleet builds a one-group fleet over any of the four backends:
// 'x' Xen, 'k' kvmtool, 'q' QEMU-KVM, 'c' Cloud Hypervisor.
func newFlavorFleet(t *testing.T, clock vclock.Clock, kinds string) (*fleet.Scheduler, []*hypervisor.Host) {
	t.Helper()
	m, err := fleet.New(fleet.Config{Orchestrator: orchestrator.Config{
		Clock:   clock,
		Metrics: trace.NewRegistry(),
	}})
	if err != nil {
		t.Fatal(err)
	}
	var hosts []*hypervisor.Host
	for i, c := range kinds {
		name := string(c) + strconv.Itoa(i)
		var h *hypervisor.Host
		var err error
		switch c {
		case 'x':
			h, err = xen.New(name, clock)
		case 'k':
			h, err = kvm.New(name, clock)
		case 'q':
			h, err = qemukvm.New(name, clock)
		case 'c':
			h, err = chv.New(name, clock)
		default:
			t.Fatalf("unknown kind %q", c)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AddHost(h); err != nil {
			t.Fatal(err)
		}
		hosts = append(hosts, h)
	}
	return m, hosts
}

// TestE2EQEMUKVMPrimaryNeverPairsQEMUKVM is the acceptance scenario: a
// fleet with two QEMU-KVM hosts and one kvmtool host. The VM lands on
// a QEMU-KVM primary; the planner must pair it with the kvmtool host
// (38 shared DoS CVEs) and reject the sibling QEMU-KVM host (230
// shared CVEs — the whole §8.2 QEMU column) with a typed rejection
// that the status endpoint surfaces.
func TestE2EQEMUKVMPrimaryNeverPairsQEMUKVM(t *testing.T) {
	clk := vclock.NewSim()
	m, _ := newFlavorFleet(t, clk, "qqk")
	_, ts := newTestServer(t, m, nil)
	c := NewClient(ts.URL)

	st, err := c.Protect(protectReq("svc"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Primary.Name != "q0" {
		t.Fatalf("primary = %s, want q0", st.Primary.Name)
	}
	if st.Secondary == nil || st.Secondary.Name != "k2" {
		t.Fatalf("secondary = %+v, want the kvmtool host", st.Secondary)
	}

	// The status resource carries the full rationale.
	st, err = c.VM("svc")
	if err != nil {
		t.Fatal(err)
	}
	if st.Placement == nil {
		t.Fatal("no placement rationale in VM status")
	}
	if got := st.Placement.Secondaries; len(got) != 1 || got[0].Host != "k2" ||
		got[0].Overlap != vulns.Overlap(vulns.FlavorQEMUKVM, vulns.FlavorKVM) {
		t.Fatalf("chosen secondary = %+v", got)
	}
	var rejected *placement.Rejection
	for i, r := range st.Placement.Rejections {
		if r.Host == "q1" {
			rejected = &st.Placement.Rejections[i]
		}
	}
	if rejected == nil {
		t.Fatalf("sibling QEMU-KVM host not in rejections: %+v", st.Placement.Rejections)
	}
	if rejected.Reason != placement.RejectSharedCVEs {
		t.Fatalf("q1 rejection reason = %q, want %q", rejected.Reason, placement.RejectSharedCVEs)
	}
	if want := vulns.Overlap(vulns.FlavorQEMUKVM, vulns.FlavorQEMUKVM); rejected.Overlap != want {
		t.Fatalf("q1 rejection overlap = %d, want %d", rejected.Overlap, want)
	}
}

// TestE2EPlacementMatrix: GET /v1/placement serves the pairwise score
// matrix with the paper's §8.2 overlap numbers.
func TestE2EPlacementMatrix(t *testing.T) {
	clk := vclock.NewSim()
	m, _ := newFlavorFleet(t, clk, "xqk")
	_, ts := newTestServer(t, m, nil)
	c := NewClient(ts.URL)

	matrix, err := c.Placement()
	if err != nil {
		t.Fatal(err)
	}
	// Three hosts → six ordered pairs.
	if len(matrix.Pairs) != 6 {
		t.Fatalf("matrix pairs = %d, want 6", len(matrix.Pairs))
	}
	want := map[[2]string]int{
		{"x0", "q1"}: 192, // Xen ↔ QEMU-KVM (§8.2)
		{"x0", "k2"}: 0,   // Xen ↔ kvmtool
		{"q1", "k2"}: 38,  // QEMU-KVM ↔ kvmtool
	}
	seen := 0
	for _, p := range matrix.Pairs {
		if overlap, ok := want[[2]string{p.Primary, p.Secondary}]; ok {
			seen++
			if p.Overlap != overlap {
				t.Errorf("overlap(%s, %s) = %d, want %d", p.Primary, p.Secondary, p.Overlap, overlap)
			}
			if p.Score < float64(10*overlap) {
				t.Errorf("score(%s, %s) = %v below overlap term", p.Primary, p.Secondary, p.Score)
			}
		}
	}
	if seen != len(want) {
		t.Fatalf("matrix missing pairs: saw %d of %d in %+v", seen, len(want), matrix.Pairs)
	}
}

// TestE2EChainProtectOverHTTP drives a width-2 protection through the
// API: chain fields in status, leg telemetry, and quorum validation.
func TestE2EChainProtectOverHTTP(t *testing.T) {
	clk := vclock.NewSim()
	m, hosts := newFlavorFleet(t, clk, "xkcq")
	_, ts := newTestServer(t, m, nil)
	c := NewClient(ts.URL)

	req := protectReq("svc")
	req.Secondaries = 2
	st, err := c.Protect(req)
	if err != nil {
		t.Fatal(err)
	}
	if st.Want != 2 || len(st.Secondaries) != 2 || len(st.Legs) != 2 {
		t.Fatalf("chain status = want %d, secondaries %d, legs %d",
			st.Want, len(st.Secondaries), len(st.Legs))
	}
	if st.Quorum != 2 {
		t.Fatalf("quorum = %d, want all (2)", st.Quorum)
	}

	for i := 0; i < 3; i++ {
		if err := m.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	st, err = c.VM("svc")
	if err != nil {
		t.Fatal(err)
	}
	if st.Legs[0].AckedEpoch == 0 || st.Legs[0].AckedEpoch != st.Legs[1].AckedEpoch {
		t.Fatalf("legs not advancing together over HTTP: %+v", st.Legs)
	}

	// Kill one secondary: the daemon re-plans and the API shows the
	// replacement chain.
	victim := st.Secondaries[0].Name
	for _, h := range hosts {
		if h.HostName() == victim {
			h.Fail(hypervisor.Crashed, "test")
		}
	}
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	st, err = c.VM("svc")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Secondaries) != 2 {
		t.Fatalf("chain not restored over HTTP: %+v", st.Secondaries)
	}
	for _, s := range st.Secondaries {
		if s.Name == victim {
			t.Fatalf("dead host %s still served in the chain", victim)
		}
	}

	// Validation: negative width and quorum wider than the chain are
	// both client errors.
	bad := protectReq("bad")
	bad.Secondaries = -1
	if _, err := c.Protect(bad); err == nil {
		t.Fatal("negative secondaries accepted")
	}
	bad = protectReq("bad")
	bad.Secondaries = 1
	bad.Quorum = 2
	if _, err := c.Protect(bad); err == nil {
		t.Fatal("quorum above chain width accepted")
	}
}
