package controlplane

import (
	"strings"
	"testing"
	"time"

	"github.com/here-ft/here/internal/faults"
	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/vclock"
)

func TestProtectionScore(t *testing.T) {
	cases := []struct {
		mode string
		lag  uint64
		dead int
		want float64
	}{
		{"protected", 0, 0, 100},
		{"protected", 2, 0, 90},
		{"protected", 100, 0, 70}, // lag penalty capped at 30
		{"protected", 0, 1, 75},
		{"resyncing", 0, 0, 70},
		{"degraded", 0, 0, 40},
		{"degraded", 10, 2, 0}, // clamped at zero
		{"unprotected", 0, 0, 25},
		{"lost", 0, 0, 0},
		{"future-mode", 0, 0, 50},
	}
	for _, c := range cases {
		if got := protectionScore(c.mode, c.lag, c.dead); got != c.want {
			t.Errorf("protectionScore(%q, %d, %d) = %v, want %v",
				c.mode, c.lag, c.dead, got, c.want)
		}
	}
}

// TestFleetRollup drives a protection through healthy rounds and a
// fault-injected failover, asserting the /v1/fleet rollup tracks it:
// empty fleet, then healthy, then a recorded last-failover timestamp.
func TestFleetRollup(t *testing.T) {
	plan := faults.New(vclock.NewSim(), 1)
	clock := plan.Clock()
	base := clock.Now()
	m, hosts := newFleet(t, clock, "xxkk")
	_, ts := newTestServer(t, m, nil)
	c := NewClient(ts.URL)

	empty, err := c.Fleet()
	if err != nil {
		t.Fatal(err)
	}
	if empty.Status != "empty" || len(empty.VMs) != 0 || empty.Hosts != 4 || empty.HealthyHosts != 4 {
		t.Fatalf("empty fleet rollup: %+v", empty)
	}

	if _, err := c.Protect(protectReq("svc")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := m.Tick(); err != nil {
			t.Fatal(err)
		}
	}

	fl, err := c.Fleet()
	if err != nil {
		t.Fatal(err)
	}
	if fl.Status != "healthy" || fl.Score != 100 {
		t.Fatalf("healthy fleet rollup: %+v", fl)
	}
	if len(fl.VMs) != 1 || fl.VMs[0].Name != "svc" || fl.VMs[0].Mode != "protected" {
		t.Fatalf("fleet vm row: %+v", fl.VMs)
	}
	if fl.VMs[0].Epoch == 0 || fl.VMs[0].Legs != 1 {
		t.Fatalf("fleet vm progress: %+v", fl.VMs[0])
	}
	if len(fl.Groups) != 1 || fl.Groups[0].Protections != 1 || fl.Groups[0].Ticks != 3 {
		t.Fatalf("fleet group rows = %+v, want one group with the protection and 3 ticks", fl.Groups)
	}
	if fl.VMs[0].LastFailover != nil {
		t.Fatalf("premature last_failover: %+v", fl.VMs[0])
	}
	if fl.Modes["protected"] != 1 {
		t.Fatalf("mode histogram: %+v", fl.Modes)
	}

	// Crash the primary and let rounds fail the service over.
	st, err := c.VM("svc")
	if err != nil {
		t.Fatal(err)
	}
	var crashed *hypervisor.Host
	for _, h := range hosts {
		if h.HostName() == st.Primary.Name {
			crashed = h
		}
	}
	plan.HostCrash(clock.Now().Sub(base)+time.Millisecond, crashed, "injected crash")
	for i := 0; i < 200 && st.Generation == 0; i++ {
		if err := m.Tick(); err != nil {
			t.Fatal(err)
		}
		if st, err = c.VM("svc"); err != nil {
			t.Fatal(err)
		}
	}
	if st.Generation != 1 {
		t.Fatalf("failover never happened: %+v", st)
	}

	fl, err = c.Fleet()
	if err != nil {
		t.Fatal(err)
	}
	if len(fl.VMs) != 1 || fl.VMs[0].LastFailover == nil {
		t.Fatalf("last_failover not recorded: %+v", fl.VMs)
	}
	if fl.VMs[0].Generation != 1 {
		t.Fatalf("generation not rolled up: %+v", fl.VMs[0])
	}
	if fl.HealthyHosts >= fl.Hosts {
		t.Fatalf("crashed host still counted healthy: %+v", fl)
	}
}

// TestREDMiddleware asserts every control-plane response is counted in
// the RED metrics with the route pattern (not the raw path) as the
// label, and that 5xx responses feed the error counter.
func TestREDMiddleware(t *testing.T) {
	clock := vclock.NewSim()
	m, _ := newFleet(t, clock, "xk")
	_, ts := newTestServer(t, m, nil)
	c := NewClient(ts.URL)

	if _, err := c.Protect(protectReq("svc")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.VM("svc"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Fleet(); err != nil {
		t.Fatal(err)
	}

	scrape, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	text := string(scrape)
	for _, want := range []string{
		`here_http_requests_total{route="POST /v1/vms",method="POST",code="201"} 1`,
		`here_http_requests_total{route="GET /v1/vms/{name}",method="GET",code="200"} 1`,
		`here_http_requests_total{route="GET /v1/fleet",method="GET",code="200"} 1`,
		`here_http_request_seconds_count{route="GET /v1/fleet"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	if strings.Contains(text, "here_http_errors_total") {
		t.Fatalf("unexpected 5xx counted:\n%s", text)
	}
	// The raw path must never leak into the route label.
	if strings.Contains(text, `route="/v1/vms/svc"`) {
		t.Fatal("route label carries the raw path, not the pattern")
	}
}
