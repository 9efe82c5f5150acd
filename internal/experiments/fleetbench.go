package experiments

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"github.com/here-ft/here/internal/controlplane"
	"github.com/here-ft/here/internal/fleet"
	"github.com/here-ft/here/internal/kvm"
	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/metrics"
	"github.com/here-ft/here/internal/orchestrator"
	"github.com/here-ft/here/internal/vclock"
	"github.com/here-ft/here/internal/xen"
)

// fleetBenchGroups is the placement-group count every fleet-bench
// point runs with — the sharding the tick-latency claim is about.
const fleetBenchGroups = 8

// FleetBenchRow is one fleet-bench point: a sharded scheduler carrying
// Protections idle guests, reporting round latency and control-plane
// read latency measured while the rounds keep running.
type FleetBenchRow struct {
	Protections int
	Groups      int
	// TickP50/P99 are full-scheduler round latencies (all groups in
	// parallel, each group serializing its own protections).
	TickP50 time.Duration
	TickP99 time.Duration
	// StatusP50/P99 are GET /v1/vms/{name} handler latencies measured
	// against the real route table while rounds run concurrently. The
	// lock-free snapshot claim lives here: these must stay near-flat
	// from 100 to 10k protections.
	StatusP50 time.Duration
	StatusP99 time.Duration
	// ListP50/P99 are GET /v1/vms latencies. The response body is
	// O(fleet), so this grows with the row — the claim is that it
	// never waits behind a group's in-flight round, not that the
	// marshal is free.
	ListP50 time.Duration
	ListP99 time.Duration
	// ProtectMs is the mean per-protection setup cost (placement, VM
	// boot, seed checkpoint).
	ProtectMs float64
}

// FleetBench sweeps protection counts on a sharded scheduler and
// measures what the paper's control plane must keep cheap at fleet
// scale: orchestration round latency and API read latency.
func FleetBench(scale Scale) ([]FleetBenchRow, error) {
	var rows []FleetBenchRow
	for _, n := range scale.FleetProtections {
		row, err := runFleetBench(scale, n)
		if err != nil {
			return nil, fmt.Errorf("fleet bench at %d protections: %w", n, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runFleetBench(scale Scale, protections int) (FleetBenchRow, error) {
	row := FleetBenchRow{Protections: protections, Groups: fleetBenchGroups}
	clk := vclock.NewSim()
	s, err := fleet.New(fleet.Config{
		Groups:       fleetBenchGroups,
		Orchestrator: orchestrator.Config{Clock: clk},
	})
	if err != nil {
		return row, err
	}
	for i := 0; i < 6; i++ {
		xh, err := xen.New(fmt.Sprintf("bx%d", i), clk)
		if err != nil {
			return row, err
		}
		if err := s.AddHost(xh); err != nil {
			return row, err
		}
		kh, err := kvm.New(fmt.Sprintf("bk%d", i), clk)
		if err != nil {
			return row, err
		}
		if err := s.AddHost(kh); err != nil {
			return row, err
		}
	}

	names := make([]string, protections)
	setupStart := time.Now()
	for i := range names {
		names[i] = fmt.Sprintf("fb%05d", i)
		sp := orchestrator.VMSpec{
			Name: names[i], MemoryBytes: 4 * memory.PageSize, VCPUs: 1,
		}
		if _, err := s.Protect(sp); err != nil {
			return row, err
		}
	}
	row.ProtectMs = float64(time.Since(setupStart).Microseconds()) / 1e3 / float64(protections)

	// Round latency, unloaded: the protection-loop cost the sharding
	// spreads across cores.
	var ticks metrics.Summary
	rounds := scale.FleetTickRounds
	if rounds <= 0 {
		rounds = 10
	}
	for i := 0; i < rounds; i++ {
		start := time.Now()
		if err := s.Tick(); err != nil {
			return row, err
		}
		ticks.AddDuration(time.Since(start))
	}
	row.TickP50 = time.Duration(ticks.Percentile(50) * float64(time.Second))
	row.TickP99 = time.Duration(ticks.Percentile(99) * float64(time.Second))

	// API read latency while rounds keep running: the reads must come
	// off the published snapshots, never a group lock.
	srv, err := controlplane.New(controlplane.Config{Manager: s})
	if err != nil {
		return row, err
	}
	handler := srv.Handler()
	stop := make(chan struct{})
	tickDone := make(chan error, 1)
	// Churn one group round at a time, rotating — the production
	// pump's phase stagger (StartPump offsets group i by interval*i/G)
	// means rounds don't all fire at once. An all-groups busy loop
	// would measure run-queue depth on a small machine, not what the
	// reads cost.
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				tickDone <- nil
				return
			default:
				if err := s.Group(i % s.Groups()).Tick(); err != nil {
					tickDone <- err
					return
				}
			}
		}
	}()
	measure := func(lat *metrics.Summary, path string) error {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, path, nil)
		start := time.Now()
		handler.ServeHTTP(rec, req)
		lat.AddDuration(time.Since(start))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("GET %s = %d", path, rec.Code)
		}
		return nil
	}
	var status, list metrics.Summary
	var apiErr error
	for i := 0; i < 200 && apiErr == nil; i++ {
		apiErr = measure(&status, "/v1/vms/"+names[i*len(names)/200])
	}
	for i := 0; i < 30 && apiErr == nil; i++ {
		apiErr = measure(&list, "/v1/vms")
	}
	close(stop)
	if err := <-tickDone; err != nil {
		return row, err
	}
	if apiErr != nil {
		return row, apiErr
	}
	row.StatusP50 = time.Duration(status.Percentile(50) * float64(time.Second))
	row.StatusP99 = time.Duration(status.Percentile(99) * float64(time.Second))
	row.ListP50 = time.Duration(list.Percentile(50) * float64(time.Second))
	row.ListP99 = time.Duration(list.Percentile(99) * float64(time.Second))
	return row, nil
}

// RenderFleetBench formats the fleet scaling measurements.
func RenderFleetBench(rows []FleetBenchRow) *metrics.Table {
	tab := metrics.NewTable("Fleet scaling: sharded scheduler round + API read latency",
		"Protections", "Groups", "TickP50(ms)", "TickP99(ms)",
		"StatusP50(µs)", "StatusP99(µs)", "ListP50(ms)", "ListP99(ms)", "Protect(ms)")
	for _, r := range rows {
		tab.AddRow(r.Protections, r.Groups,
			float64(r.TickP50.Microseconds())/1e3,
			float64(r.TickP99.Microseconds())/1e3,
			float64(r.StatusP50.Nanoseconds())/1e3,
			float64(r.StatusP99.Nanoseconds())/1e3,
			float64(r.ListP50.Microseconds())/1e3,
			float64(r.ListP99.Microseconds())/1e3,
			r.ProtectMs)
	}
	return tab
}
