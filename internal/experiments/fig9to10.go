package experiments

import (
	"fmt"
	"time"

	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/kvstore"
	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/metrics"
	"github.com/here-ft/here/internal/period"
	"github.com/here-ft/here/internal/replication"
	"github.com/here-ft/here/internal/workload"
	"github.com/here-ft/here/internal/ycsb"
)

// TraceResult holds the time series of a dynamic-period run
// (Fig 9/10): checkpoint period, instantaneous degradation and load
// level over time, plus the configured degradation set-point.
type TraceResult struct {
	SetOverheadPct float64
	Load           *metrics.Series // load level (%), Fig 9 only
	Period         *metrics.Series // checkpoint period (s)
	Degradation    *metrics.Series // instantaneous degradation (%)
	// Throughput and baseline, Fig 10 only (ops/sec).
	Throughput float64
	Baseline   float64
}

// Fig9 runs the dynamic checkpoint period manager against the memory
// microbenchmark's load staircase (20% → 80% → 5%) with D = 0.3 and
// T_max = 25 s, recording the period and degradation traces.
func Fig9(scale Scale) (TraceResult, error) {
	res := TraceResult{
		SetOverheadPct: 30,
		Load:           metrics.NewSeries("load"),
		Period:         metrics.NewSeries("period"),
		Degradation:    metrics.NewSeries("degradation"),
	}
	pair, err := NewHeterogeneousPair()
	if err != nil {
		return res, err
	}
	vm, err := pair.ProtectedVM("fig9", GB(2*scale.LoadedGB), 4)
	if err != nil {
		return res, err
	}
	bench, err := workload.NewMemoryBench(20, scale.WriteRatePages, scale.Seed)
	if err != nil {
		return res, err
	}
	pm, err := period.New(period.Config{
		D: 0.3, Tmax: scale.DynTmax, Sigma: scale.DynSigma, Start: scale.DynStart,
	})
	if err != nil {
		return res, err
	}
	rep, err := newReplicator(vm, pair, replication.Config{
		Engine:        replication.EngineHERE,
		PeriodManager: pm,
		Workload:      bench,
	})
	if err != nil {
		return res, err
	}
	if _, err := rep.Seed(); err != nil {
		return res, err
	}

	// Load staircase scaled to the trace length, shaped like the
	// paper's 180-second run: 20%, then 80%, then 5%. The first phase
	// is long enough for the controller to converge at every scale.
	trace := secs(scale.TraceSeconds)
	phase2 := trace * 3 / 10
	phase3 := trace * 7 / 10
	start := pair.Clock.Now()
	for {
		elapsed := pair.Clock.Since(start)
		if elapsed >= trace {
			break
		}
		load := 20.0
		switch {
		case elapsed >= phase3:
			load = 5
		case elapsed >= phase2:
			load = 80
		}
		if err := bench.SetPercent(load); err != nil {
			return res, err
		}
		st, err := rep.RunCycle()
		if err != nil {
			return res, err
		}
		at := pair.Clock.Since(start)
		res.Load.Record(at, load)
		res.Period.Record(at, st.NextPeriod.Seconds())
		res.Degradation.Record(at, st.Degradation*100)
	}
	return res, nil
}

// Fig10 runs the dynamic period manager under YCSB workload A with
// D = 0.3, recording the same traces plus throughput versus baseline
// (the paper reports 28406 ops/s vs 42779, a ≈33.6% slowdown).
func Fig10(scale Scale) (TraceResult, error) {
	res := TraceResult{
		SetOverheadPct: 30,
		Period:         metrics.NewSeries("period"),
		Degradation:    metrics.NewSeries("degradation"),
	}
	pair, err := NewHeterogeneousPair()
	if err != nil {
		return res, err
	}
	vm, err := pair.ProtectedVM("fig10", GB(scale.LoadedGB), 4)
	if err != nil {
		return res, err
	}
	w, err := loadedYCSB(vm, ycsb.WorkloadA, scale)
	if err != nil {
		return res, err
	}
	res.Baseline = w.BaselineThroughput()
	pm, err := period.New(period.Config{
		D: 0.3, Tmax: scale.DynTmax, Sigma: scale.DynSigma, Start: scale.DynStart,
	})
	if err != nil {
		return res, err
	}
	rep, err := newReplicator(vm, pair, replication.Config{
		Engine:        replication.EngineHERE,
		PeriodManager: pm,
		Workload:      w,
	})
	if err != nil {
		return res, err
	}
	if _, err := rep.Seed(); err != nil {
		return res, err
	}

	trace := secs(scale.TraceSeconds)
	start := pair.Clock.Now()
	var ops int64
	for pair.Clock.Since(start) < trace {
		st, err := rep.RunCycle()
		if err != nil {
			return res, err
		}
		at := pair.Clock.Since(start)
		res.Period.Record(at, st.NextPeriod.Seconds())
		res.Degradation.Record(at, st.Degradation*100)
		ops = rep.Totals().WorkloadStats.Ops
	}
	res.Throughput = float64(ops) / pair.Clock.Since(start).Seconds()
	return res, nil
}

// loadedYCSB opens a store in vm sized for the scale's record count
// and loads it.
func loadedYCSB(vm *hypervisor.VM, kind ycsb.Kind, scale Scale) (*ycsb.Workload, error) {
	recordBytes := uint64(150 + 100) // header + key + value + slack
	region := uint64(scale.YCSBRecords)*recordBytes*2 + (1 << 20)
	if max := vm.Memory().SizeBytes() / 2; region > max {
		region = max
	}
	store, err := kvstore.Open(vm, memory.PageSize, region, scale.YCSBRecords/4+16)
	if err != nil {
		return nil, err
	}
	w, err := ycsb.New(store, ycsb.Config{
		Kind:        kind,
		RecordCount: scale.YCSBRecords,
		Seed:        scale.Seed,
	})
	if err != nil {
		return nil, err
	}
	if err := w.Load(0); err != nil {
		return nil, err
	}
	return w, nil
}

// RenderTrace formats a dynamic-period trace, sampling the series at
// regular offsets.
func RenderTrace(title string, r TraceResult, samples int) *metrics.Table {
	tab := metrics.NewTable(title, "t(s)", "Load(%)", "Period(s)", "Deg(%)", "Set(%)")
	if r.Period.Len() == 0 {
		return tab
	}
	last := r.Period.Points[r.Period.Len()-1].T
	if samples < 2 {
		samples = 2
	}
	for i := 0; i < samples; i++ {
		at := last * time.Duration(i) / time.Duration(samples-1)
		load := "-"
		if r.Load != nil {
			load = fmt.Sprintf("%.0f", r.Load.At(at))
		}
		tab.AddRow(fmt.Sprintf("%.0f", at.Seconds()), load,
			fmt.Sprintf("%.2f", r.Period.At(at)),
			fmt.Sprintf("%.1f", r.Degradation.At(at)),
			fmt.Sprintf("%.0f", r.SetOverheadPct))
	}
	return tab
}
