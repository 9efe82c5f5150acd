// Control-plane demo: boots an in-process hered server over a
// simulated heterogeneous fleet, then drives it purely through the
// HTTP API — the same requests curl or herectl would send — through a
// protect → forced failover → live retune → metrics scrape arc.
//
// Afterwards the daemon keeps serving (unless -once) so the API can be
// poked from another terminal:
//
//	curl -s localhost:7070/v1/vms | jq
//	curl -s -X POST localhost:7070/v1/vms/demo/failover -d '{}'
//	go run ./cmd/herectl -addr localhost:7070 status demo
//
// Run via `make serve-demo`; stop with Ctrl-C (graceful drain).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/here-ft/here/internal/controlplane"
	"github.com/here-ft/here/internal/fleet"
	"github.com/here-ft/here/internal/kvm"
	"github.com/here-ft/here/internal/orchestrator"
	"github.com/here-ft/here/internal/trace"
	"github.com/here-ft/here/internal/vclock"
	"github.com/here-ft/here/internal/xen"
)

func main() {
	log.SetFlags(0)
	addr := flag.String("addr", "127.0.0.1:7070", "listen address")
	once := flag.Bool("once", false, "exit after the scripted demo instead of serving")
	flag.Parse()
	if err := run(*addr, *once); err != nil {
		log.Fatal("controlplane demo: ", err)
	}
}

func run(addr string, once bool) error {
	// A 2+2 heterogeneous fleet on one simulated clock, all telemetry
	// in one fleet-wide registry — exactly what cmd/hered assembles.
	clock := vclock.NewSim()
	mgr, err := fleet.New(fleet.Config{Groups: 1, Orchestrator: orchestrator.Config{
		Clock:   clock,
		Metrics: trace.NewRegistry(),
	}})
	if err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		xh, err := xen.New(fmt.Sprintf("xen%d", i), clock)
		if err != nil {
			return err
		}
		kh, err := kvm.New(fmt.Sprintf("kvm%d", i), clock)
		if err != nil {
			return err
		}
		if err := mgr.AddHost(xh); err != nil {
			return err
		}
		if err := mgr.AddHost(kh); err != nil {
			return err
		}
	}

	srv, err := controlplane.New(controlplane.Config{Manager: mgr})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	fmt.Printf("daemon  : serving on http://%s (pump every %v)\n\n",
		ln.Addr(), controlplane.DefaultPumpInterval)

	if err := demo(controlplane.NewClient(ln.Addr().String())); err != nil {
		return err
	}

	if once {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return err
		}
		return <-errc
	}

	fmt.Printf("\nthe daemon keeps serving — try from another terminal:\n")
	fmt.Printf("  curl -s %s/v1/vms | jq\n", "http://"+ln.Addr().String())
	fmt.Printf("  curl -s %s/metrics | grep here_\n", "http://"+ln.Addr().String())
	fmt.Printf("  go run ./cmd/herectl -addr %s status demo\n", ln.Addr())
	fmt.Printf("Ctrl-C drains and exits.\n")

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case <-sigc:
		fmt.Println("\ndraining...")
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return err
		}
		return <-errc
	}
}

// demo drives the arc over HTTP — nothing below touches the manager
// directly.
func demo(c *controlplane.Client) error {
	st, err := c.Protect(controlplane.ProtectRequest{
		Name:        "demo",
		MemoryBytes: 512 << 20,
		VCPUs:       2,
		Workload:    "membench",
		LoadPercent: 25,
	})
	if err != nil {
		return err
	}
	fmt.Printf("protect : %s on %s (%s) -> %s (%s)\n", st.Name,
		st.Primary.Name, st.Primary.Product, st.Secondary.Name, st.Secondary.Product)

	// Let the pump replicate for a moment of real time.
	time.Sleep(500 * time.Millisecond)
	if st, err = c.VM("demo"); err != nil {
		return err
	}
	fmt.Printf("running : mode=%s epoch=%d period=%dms\n", st.Mode, st.Epoch, st.PeriodMS)

	res, err := c.Failover("demo")
	if err != nil {
		return err
	}
	fmt.Printf("failover: forced; resumed on %s in %v (generation %d, reprotected=%v)\n",
		res.NewPrimary, time.Duration(res.ResumeTimeUS)*time.Microsecond,
		res.Generation, res.Reprotected)

	pr, err := c.SetPeriod("demo", 0.15, 10*time.Second)
	if err != nil {
		return err
	}
	fmt.Printf("retune  : D=%.3g Tmax=%dms, interval now %dms\n",
		pr.Budget, pr.MaxPeriodMS, pr.PeriodMS)

	time.Sleep(300 * time.Millisecond)
	evs, err := c.Events(0)
	if err != nil {
		return err
	}
	fmt.Println("events  :")
	for _, e := range evs.Events {
		fmt.Printf("  %3d %-18s %-6s %s\n", e.Seq, e.Kind, e.VM, e.Detail)
	}

	metrics, err := c.Metrics()
	if err != nil {
		return err
	}
	fmt.Println("metrics :")
	shown := 0
	for _, line := range strings.Split(string(metrics), "\n") {
		if strings.HasPrefix(line, "here_replication_checkpoints_total") ||
			strings.HasPrefix(line, "here_replication_pages_total") ||
			strings.HasPrefix(line, "here_failover_heartbeat_misses_total") {
			fmt.Printf("  %s\n", line)
			shown++
		}
	}
	if shown == 0 {
		fmt.Println("  (no samples yet)")
	}
	return nil
}
