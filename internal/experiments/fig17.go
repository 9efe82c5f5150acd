package experiments

import (
	"fmt"
	"time"

	"github.com/here-ft/here/internal/metrics"
	"github.com/here-ft/here/internal/replication"
	"github.com/here-ft/here/internal/simnet"
	"github.com/here-ft/here/internal/sockperf"
	"github.com/here-ft/here/internal/workload"
)

// Fig17Row is the measured reply latency of one (load, setup) cell.
type Fig17Row struct {
	Load      string
	Setup     string
	LatencyUS float64 // mean observed latency in microseconds
	Replies   int     // replies delivered to the remote client
}

// Fig17 measures Sockperf under-load reply latency for the three
// packet sizes across replication setups: the Xen baseline, HERE with
// dynamic period control, and fixed-period Remus. Under ASR the
// latency is dominated by I/O buffering, so Remus sits at O(T) while
// HERE's dynamic controller shrinks the interval for this low-dirty
// workload (Fig 17's contrast).
func Fig17(scale Scale) ([]Fig17Row, error) {
	setups := []ReplicationSetup{
		SetupBaseline, SetupHERE3s40, SetupHERE5s30, SetupRemus3s, SetupRemus5s,
	}
	var out []Fig17Row
	for _, load := range sockperf.Loads() {
		for _, setup := range setups {
			row, err := runSockperf(load, setup, scale)
			if err != nil {
				return nil, fmt.Errorf("sockperf %s / %s: %w", load.Name, setup.Label, err)
			}
			out = append(out, row)
		}
	}
	return out, nil
}

func runSockperf(load sockperf.Load, setup ReplicationSetup, scale Scale) (Fig17Row, error) {
	row := Fig17Row{Load: load.Name, Setup: setup.Label}

	if setup.Engine == 0 {
		// Unreplicated baseline: pure network round trip.
		lat := sockperf.BaselineLatency(simnet.TenGbE(), load.PacketSize)
		row.LatencyUS = float64(lat) / float64(time.Microsecond)
		row.Replies = int(1000 * 0.5 * float64(scale.RunSeconds))
		return row, nil
	}

	var pair *Pair
	var err error
	if setup.Engine == replication.EngineHERE {
		pair, err = NewHeterogeneousPair()
	} else {
		pair, err = NewHomogeneousPair()
	}
	if err != nil {
		return row, err
	}
	vm, err := pair.ProtectedVM("fig17", GB(2), 4)
	if err != nil {
		return row, err
	}
	collector := sockperf.NewCollector()
	cfg, err := replicationConfig(setup)
	if err != nil {
		return row, err
	}
	rep, err := newReplicator(vm, pair, cfg)
	if err != nil {
		return row, err
	}
	w, err := sockperf.New(rep.IOBuffer(), sockperf.Config{Load: load})
	if err != nil {
		return row, err
	}
	rep.SetWorkload(w)
	if _, err := rep.Seed(); err != nil {
		return row, err
	}
	// Warm-up window: let HERE's dynamic controller converge before
	// measuring, as the paper's multi-minute runs do; the warm-up
	// output is released but not sampled.
	if _, err := rep.RunFor(2 * secs(scale.RunSeconds)); err != nil {
		return row, err
	}
	rep.SetSink(collector.Sink)
	if _, err := rep.RunFor(secs(scale.RunSeconds)); err != nil {
		return row, err
	}
	base := sockperf.BaselineLatency(simnet.TenGbE(), load.PacketSize)
	row.LatencyUS = float64(collector.MeanLatency()+base) / float64(time.Microsecond)
	row.Replies = collector.Count()
	return row, nil
}

// RenderFig17 formats the Sockperf latency figure.
func RenderFig17(rows []Fig17Row) *metrics.Table {
	tab := metrics.NewTable("Fig 17: Sockperf reply latencies (log scale in the paper)",
		"Load", "Setup", "Latency(us)", "Replies")
	for _, r := range rows {
		tab.AddRow(r.Load, r.Setup, r.LatencyUS, r.Replies)
	}
	return tab
}

// Sec87Result is the replication engine resource overhead (§8.7).
type Sec87Result struct {
	CPUPercent float64 // 100 = one fully loaded core
	RSSMiB     float64
}

// Sec87 measures HERE's own CPU and memory footprint while
// replicating a 4-vCPU 16 GB VM running the memory microbenchmark at
// a 1-second period.
func Sec87(scale Scale) (Sec87Result, error) {
	var res Sec87Result
	pair, err := NewHeterogeneousPair()
	if err != nil {
		return res, err
	}
	memGB := 16
	if scale.LoadedGB < 8 {
		memGB = 2 * scale.LoadedGB // quick-scale shrink
	}
	vm, err := pair.ProtectedVM("sec87", GB(memGB), 4)
	if err != nil {
		return res, err
	}
	w, err := workload.NewMemoryBench(30, scale.WriteRatePages, scale.Seed)
	if err != nil {
		return res, err
	}
	rep, err := newReplicator(vm, pair, replication.Config{
		Engine: replication.EngineHERE, Period: time.Second, Workload: w,
	})
	if err != nil {
		return res, err
	}
	start := pair.Clock.Now()
	if _, err := rep.Seed(); err != nil {
		return res, err
	}
	if _, err := rep.RunFor(secs(scale.RunSeconds)); err != nil {
		return res, err
	}
	totals := rep.Totals()
	res.CPUPercent = totals.CPUPercent(pair.Clock.Since(start))
	res.RSSMiB = float64(totals.RSSBytes) / (1 << 20)
	return res, nil
}

// RenderSec87 formats the overhead measurement.
func RenderSec87(r Sec87Result) *metrics.Table {
	tab := metrics.NewTable("Sec 8.7: replication engine overhead (4 vCPU VM, T = 1s)",
		"Metric", "Value")
	tab.AddRow("CPU (100% = 1 core)", fmt.Sprintf("%.0f%%", r.CPUPercent))
	tab.AddRow("Memory (RSS)", fmt.Sprintf("%.0f MiB", r.RSSMiB))
	return tab
}
