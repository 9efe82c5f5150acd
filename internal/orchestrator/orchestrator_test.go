package orchestrator_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/here-ft/here/internal/exploit"
	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/kvm"
	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/orchestrator"
	"github.com/here-ft/here/internal/vclock"
	"github.com/here-ft/here/internal/vulns"
	"github.com/here-ft/here/internal/workload"
	"github.com/here-ft/here/internal/xen"
)

// fleet builds a manager with the given host layout.
// kinds: "x" for a Xen host, "k" for a KVM host.
func fleet(t *testing.T, kinds string) (*orchestrator.Manager, []*hypervisor.Host, *vclock.SimClock) {
	t.Helper()
	clk := vclock.NewSim()
	m, err := orchestrator.New(orchestrator.Config{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	var hosts []*hypervisor.Host
	for i, c := range kinds {
		var h *hypervisor.Host
		var err error
		name := string(c) + string(rune('0'+i))
		if c == 'x' {
			h, err = xen.New(name, clk)
		} else {
			h, err = kvm.New(name, clk)
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

func spec(name string) orchestrator.VMSpec {
	return orchestrator.VMSpec{
		Name: name, MemoryBytes: 512 * memory.PageSize, VCPUs: 2,
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := orchestrator.New(orchestrator.Config{}); err == nil {
		t.Fatal("nil clock accepted")
	}
	for _, d := range []float64{-0.1, 1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := orchestrator.New(orchestrator.Config{Clock: vclock.NewSim(), DegradationBudget: d}); err == nil {
			t.Fatalf("degradation budget %v accepted", d)
		}
	}
}

func TestAddHostValidation(t *testing.T) {
	m, hosts, _ := fleet(t, "xk")
	if err := m.AddHost(nil); err == nil {
		t.Fatal("nil host accepted")
	}
	if err := m.AddHost(hosts[0]); err == nil {
		t.Fatal("duplicate host accepted")
	}
	other, err := xen.New("stranger", vclock.NewSim())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddHost(other); err == nil {
		t.Fatal("host on foreign clock accepted")
	}
	if got := m.Hosts(); len(got) != 2 {
		t.Fatalf("Hosts = %v", got)
	}
}

func TestProtectPlacesHeterogeneously(t *testing.T) {
	m, _, _ := fleet(t, "xxk")
	p, err := m.Protect(spec("svc"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Primary().Kind() == p.Secondary().Kind() {
		t.Fatal("pair is not heterogeneous")
	}
	if got := m.Protections(); len(got) != 1 || got[0] != "svc" {
		t.Fatalf("Protections = %v", got)
	}
	if _, err := m.Protect(spec("svc")); err == nil {
		t.Fatal("duplicate protection accepted")
	}
	if _, err := m.Lookup("svc"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Lookup("nope"); !errors.Is(err, orchestrator.ErrUnknownVM) {
		t.Fatalf("lookup err = %v", err)
	}
}

func TestProtectRequiresHeterogeneousHost(t *testing.T) {
	m, _, _ := fleet(t, "xx") // two Xen hosts only
	if _, err := m.Protect(spec("svc")); !errors.Is(err, orchestrator.ErrNoHeterogeneous) {
		t.Fatalf("err = %v, want ErrNoHeterogeneous", err)
	}
	empty, err := orchestrator.New(orchestrator.Config{Clock: vclock.NewSim()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := empty.Protect(spec("svc")); !errors.Is(err, orchestrator.ErrNoHost) {
		t.Fatalf("err = %v, want ErrNoHost", err)
	}
}

func TestTickReplicates(t *testing.T) {
	m, _, _ := fleet(t, "xk")
	w, err := workload.NewMemoryBench(10, 50_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	sp := spec("svc")
	sp.Workload = w
	p, err := m.Protect(sp)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := m.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if p.Lost() {
		t.Fatal("protection lost without failures")
	}
}

func TestAutoFailoverAndReprotect(t *testing.T) {
	// Three hosts: Xen + KVM + Xen. After the first Xen host dies, the
	// VM fails over to KVM and must be re-protected onto the spare Xen.
	m, hosts, _ := fleet(t, "xkx")
	payload := []byte("fleet-managed data")
	p, err := m.Protect(spec("svc"))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.VM().WriteGuest(0, 9*memory.PageSize, payload); err != nil {
		t.Fatal(err)
	}
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}

	// Exploit the primary.
	cve, err := exploit.FirstDoS(vulns.Dataset(), vulns.Xen)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := exploit.New(cve)
	if err != nil {
		t.Fatal(err)
	}
	if got := ex.Launch(hosts[0]); got != exploit.Succeeded {
		t.Fatalf("exploit = %v", got)
	}

	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	if p.Lost() {
		t.Fatal("service lost despite healthy replica")
	}
	if p.Primary().Kind() != hypervisor.KindKVM {
		t.Fatalf("active host kind = %v, want KVM", p.Primary().Kind())
	}
	if p.Secondary() == nil || p.Secondary().Kind() != hypervisor.KindXen {
		t.Fatal("not re-protected onto the spare Xen host")
	}
	if p.Generation != 1 {
		t.Fatalf("generation = %d", p.Generation)
	}
	got := make([]byte, len(payload))
	if err := p.VM().ReadGuest(9*memory.PageSize, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatalf("data lost across orchestrated failover: %q", got)
	}

	// Replication continues on the new pair.
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}

	kinds := map[orchestrator.EventKind]int{}
	for _, e := range m.Events() {
		kinds[e.Kind]++
	}
	for _, want := range []orchestrator.EventKind{
		orchestrator.EventProtected, orchestrator.EventFailureFound,
		orchestrator.EventFailedOver, orchestrator.EventReprotected,
	} {
		if kinds[want] == 0 {
			t.Fatalf("missing event %q in %v", want, m.Events())
		}
	}
}

func TestFailoverWithoutSpareRunsUnprotected(t *testing.T) {
	// Only two hosts: after failover there is no heterogeneous spare,
	// so the VM keeps running unprotected, and the event log says so.
	m, hosts, _ := fleet(t, "xk")
	p, err := m.Protect(spec("svc"))
	if err != nil {
		t.Fatal(err)
	}
	hosts[0].Fail(hypervisor.Crashed, "exploit")
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	if p.Lost() {
		t.Fatal("service lost despite healthy replica")
	}
	if p.Secondary() != nil {
		t.Fatal("re-protected without a heterogeneous spare?")
	}
	var unprotected bool
	for _, e := range m.Events() {
		if e.Kind == orchestrator.EventUnprotected {
			unprotected = true
		}
	}
	if !unprotected {
		t.Fatalf("no running-unprotected event: %v", m.Events())
	}
	// The VM still executes.
	if !p.VM().Running() {
		t.Fatal("VM not running after failover")
	}
	// Further ticks keep trying to re-protect without crashing.
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}

	// When the old primary is repaired, the next tick re-protects.
	hosts[0].Recover()
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	if p.Secondary() == nil {
		t.Fatal("not re-protected after the Xen host recovered")
	}
}

func TestDoubleFailureLosesService(t *testing.T) {
	m, hosts, _ := fleet(t, "xk")
	p, err := m.Protect(spec("svc"))
	if err != nil {
		t.Fatal(err)
	}
	hosts[0].Fail(hypervisor.Crashed, "exploit 1")
	hosts[1].Fail(hypervisor.Crashed, "exploit 2")
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	if !p.Lost() {
		t.Fatal("double failure did not lose the service")
	}
	var lost bool
	for _, e := range m.Events() {
		if e.Kind == orchestrator.EventServiceLost {
			lost = true
		}
	}
	if !lost {
		t.Fatalf("no service-lost event: %v", m.Events())
	}
	// Lost protections are skipped on later ticks.
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
}

func TestMultipleProtectionsSpreadLoad(t *testing.T) {
	m, hosts, _ := fleet(t, "xxkk")
	for _, name := range []string{"a", "b", "c", "d"} {
		if _, err := m.Protect(spec(name)); err != nil {
			t.Fatal(err)
		}
	}
	// Least-loaded placement spreads primaries over both kinds' hosts.
	total := 0
	for _, h := range hosts {
		total += len(h.VMs())
	}
	if total != 4 {
		t.Fatalf("vm placements = %d, want 4", total)
	}
	perHost := map[string]int{}
	for _, h := range hosts {
		perHost[h.HostName()] = len(h.VMs())
	}
	for host, n := range perHost {
		if n > 2 {
			t.Fatalf("host %s overloaded with %d VMs: %v", host, n, perHost)
		}
	}
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
}

// TestSoakRandomizedCampaign runs a long randomized fleet scenario:
// random exploits take hosts down, repaired hosts rejoin, and the
// orchestrator must keep every service alive for as long as at least
// one healthy host of each kind remains available for its pair.
func TestSoakRandomizedCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	m, hosts, clk := fleet(t, "xkxk")
	rng := rand.New(rand.NewSource(2024))

	var prots []*orchestrator.Protection
	for _, name := range []string{"svc-a", "svc-b"} {
		w, err := workload.NewMemoryBench(10, 50_000, 3)
		if err != nil {
			t.Fatal(err)
		}
		sp := spec(name)
		sp.Workload = w
		p, err := m.Protect(sp)
		if err != nil {
			t.Fatal(err)
		}
		prots = append(prots, p)
	}

	dead := map[int]int{} // host index → ticks until repair
	for tick := 0; tick < 200; tick++ {
		// Random failure: one host down at a time, and never the last
		// healthy host of a kind. (The orchestrator needs one healthy
		// tick to re-protect after a loss; simultaneous pair loss is
		// genuinely unrecoverable and tested elsewhere.)
		if len(dead) == 0 && rng.Intn(6) == 0 {
			idx := rng.Intn(len(hosts))
			if hosts[idx].Health() == hypervisor.Healthy && survivable(hosts, idx) {
				hosts[idx].Fail(hypervisor.Crashed, "soak exploit")
				dead[idx] = 3 + rng.Intn(5)
			}
		}
		// Repairs.
		for idx, left := range dead {
			if left <= 0 {
				hosts[idx].Recover()
				delete(dead, idx)
			} else {
				dead[idx] = left - 1
			}
		}
		if err := m.Tick(); err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		for _, p := range prots {
			if p.Lost() {
				t.Fatalf("tick %d: %s lost despite survivable fleet (events: %v)",
					tick, p.Name, m.Events())
			}
			if !p.VM().Running() && p.Primary().Health() == hypervisor.Healthy {
				t.Fatalf("tick %d: %s not running on a healthy host", tick, p.Name)
			}
		}
	}
	if clk.Elapsed() <= 0 {
		t.Fatal("no simulated time elapsed")
	}
	// The campaign must actually have exercised failovers.
	var failovers int
	for _, e := range m.Events() {
		if e.Kind == orchestrator.EventFailedOver {
			failovers++
		}
	}
	if failovers == 0 {
		t.Fatal("soak scenario produced no failovers")
	}
}

// survivable reports whether killing hosts[idx] leaves at least one
// healthy host of each kind.
func survivable(hosts []*hypervisor.Host, idx int) bool {
	okXen, okKVM := false, false
	for i, h := range hosts {
		if i == idx || h.Health() != hypervisor.Healthy {
			continue
		}
		switch h.Kind() {
		case hypervisor.KindXen:
			okXen = true
		case hypervisor.KindKVM:
			okKVM = true
		}
	}
	return okXen && okKVM
}

func TestSecondaryFailureTriggersRepair(t *testing.T) {
	// The replica host dies while the primary stays healthy: the
	// orchestrator must drop the dead session and re-pair with the
	// spare KVM host without touching the running VM.
	m, hosts, _ := fleet(t, "xkk")
	p, err := m.Protect(spec("svc"))
	if err != nil {
		t.Fatal(err)
	}
	oldSecondary := p.Secondary()
	// Kill the secondary, not the primary.
	for _, h := range hosts {
		if h == oldSecondary {
			h.Fail(hypervisor.Crashed, "replica host exploit")
		}
	}
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	if p.Lost() {
		t.Fatal("healthy primary reported lost")
	}
	if p.Primary().Health() != hypervisor.Healthy {
		t.Fatal("primary changed unexpectedly")
	}
	if p.Secondary() == nil || p.Secondary() == oldSecondary {
		t.Fatalf("secondary not re-paired: %v", p.Secondary())
	}
	if p.Secondary().Kind() == p.Primary().Kind() {
		t.Fatal("re-paired homogeneously")
	}
	var sawLost bool
	for _, e := range m.Events() {
		if e.Kind == orchestrator.EventSecondaryLost {
			sawLost = true
		}
	}
	if !sawLost {
		t.Fatalf("no secondary-failed event: %v", m.Events())
	}
	// Replication works on the new pair.
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
}

func TestReprotectWaitsOutSparePoolExhaustion(t *testing.T) {
	// The replica host dies with no eligible heterogeneous spare left:
	// the protection must ride it out unprotected — still running, not
	// lost, re-pairing attempted (and recorded) every round — and heal
	// the moment a suitable host joins the fleet.
	m, _, clk := fleet(t, "xk")
	p, err := m.Protect(spec("svc"))
	if err != nil {
		t.Fatal(err)
	}
	oldSecondary := p.Secondary()
	oldSecondary.Fail(hypervisor.Crashed, "replica host power loss")
	if err := m.Tick(); err != nil && !errors.Is(err, orchestrator.ErrNoHeterogeneous) {
		t.Fatal(err)
	}
	if p.Lost() {
		t.Fatal("protection lost while its primary is healthy")
	}
	if p.Secondary() != nil {
		t.Fatalf("re-paired with %s, but no heterogeneous spare exists", p.Secondary().HostName())
	}

	// It stays degraded-but-alive round after round.
	for i := 0; i < 3; i++ {
		if err := m.Tick(); err != nil && !errors.Is(err, orchestrator.ErrNoHeterogeneous) {
			t.Fatal(err)
		}
	}
	st, err := m.Status("svc")
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != orchestrator.ModeUnprotected {
		t.Fatalf("mode %s with the spare pool exhausted, want unprotected", st.Mode)
	}
	var sawLost bool
	unprotected := 0
	for _, e := range m.Events() {
		switch e.Kind {
		case orchestrator.EventSecondaryLost:
			sawLost = true
		case orchestrator.EventUnprotected:
			unprotected++
		}
	}
	if !sawLost {
		t.Fatalf("no secondary-lost event: %v", m.Events())
	}
	if unprotected < 2 {
		t.Fatalf("re-pairing attempts not surfaced: %d unprotected events, want one per failed round", unprotected)
	}

	// A fresh host of the right kind joins; the next round heals.
	var spare *hypervisor.Host
	if oldSecondary.Kind() == hypervisor.KindKVM {
		spare, err = kvm.New("spare", clk)
	} else {
		spare, err = xen.New("spare", clk)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddHost(spare); err != nil {
		t.Fatal(err)
	}
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	if p.Secondary() != spare {
		t.Fatalf("not re-paired with the new spare: %v", p.Secondary())
	}
	st, err = m.Status("svc")
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != orchestrator.ModeProtected {
		t.Fatalf("mode %s after re-pairing, want protected", st.Mode)
	}
	var reprotected bool
	for _, e := range m.Events() {
		if e.Kind == orchestrator.EventReprotected {
			reprotected = true
		}
	}
	if !reprotected {
		t.Fatalf("no reprotected event: %v", m.Events())
	}
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
}
