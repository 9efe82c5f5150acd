package experiments

import (
	"fmt"
	"time"

	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/metrics"
	"github.com/here-ft/here/internal/period"
	"github.com/here-ft/here/internal/replication"
	"github.com/here-ft/here/internal/spec"
	"github.com/here-ft/here/internal/workload"
	"github.com/here-ft/here/internal/ycsb"
)

// ReplicationSetup is one column of Table 6: a replication engine plus
// its period policy.
type ReplicationSetup struct {
	Label  string
	Engine replication.Engine // 0 means no replication (the Xen baseline)
	FixedT time.Duration      // fixed period via D = 0% (Table 6's T = Tmax rows)
	D      float64            // degradation budget for dynamic control
	Tmax   time.Duration      // 0 = unbounded (Tmax = ∞)
}

// Table 6 configurations.
var (
	SetupBaseline  = ReplicationSetup{Label: "Xen"}
	SetupHERE3s0   = ReplicationSetup{Label: "HERE(3Sec,0%)", Engine: replication.EngineHERE, FixedT: 3 * time.Second}
	SetupHERE5s0   = ReplicationSetup{Label: "HERE(5Sec,0%)", Engine: replication.EngineHERE, FixedT: 5 * time.Second}
	SetupRemus3s   = ReplicationSetup{Label: "Remus3Sec", Engine: replication.EngineRemus, FixedT: 3 * time.Second}
	SetupRemus5s   = ReplicationSetup{Label: "Remus5Sec", Engine: replication.EngineRemus, FixedT: 5 * time.Second}
	SetupHEREInf20 = ReplicationSetup{Label: "HERE(inf,20%)", Engine: replication.EngineHERE, D: 0.20}
	SetupHEREInf30 = ReplicationSetup{Label: "HERE(inf,30%)", Engine: replication.EngineHERE, D: 0.30}
	SetupHEREInf40 = ReplicationSetup{Label: "HERE(inf,40%)", Engine: replication.EngineHERE, D: 0.40}
	SetupHERE3s40  = ReplicationSetup{Label: "HERE(3sec,40%)", Engine: replication.EngineHERE, D: 0.40, Tmax: 3 * time.Second}
	SetupHERE5s30  = ReplicationSetup{Label: "HERE(5sec,30%)", Engine: replication.EngineHERE, D: 0.30, Tmax: 5 * time.Second}
)

// BenchResult is one (workload, setup) measurement.
type BenchResult struct {
	Workload   string
	Setup      string
	Throughput float64 // ops/sec (YCSB) or ops/sec rate (SPEC)
	Baseline   float64
	DegPct     float64 // observed degradation vs the baseline
}

// runReplicated measures a workload's throughput under one setup.
// The workload factory is called once the VM exists (it may need
// access to guest memory).
func runReplicated(setup ReplicationSetup, scale Scale, memGB int,
	makeWorkload func(vm vmHandle) (workload.Workload, float64, error)) (BenchResult, error) {

	var res BenchResult
	res.Setup = setup.Label

	var pair *Pair
	var err error
	switch setup.Engine {
	case replication.EngineRemus:
		pair, err = NewHomogeneousPair()
	default:
		pair, err = NewHeterogeneousPair()
	}
	if err != nil {
		return res, err
	}
	vm, err := pair.ProtectedVM("bench", GB(memGB), 4)
	if err != nil {
		return res, err
	}
	w, baseline, err := makeWorkload(vm)
	if err != nil {
		return res, err
	}
	res.Workload = w.Name()
	res.Baseline = baseline
	runWindow := secs(scale.RunSeconds)

	if setup.Engine == 0 {
		// Unreplicated baseline: execute the workload directly.
		var ops int64
		start := pair.Clock.Now()
		for pair.Clock.Since(start) < runWindow {
			pair.Clock.Sleep(time.Second)
			st, err := w.Step(vm, time.Second)
			if err != nil {
				return res, err
			}
			ops += st.Ops
		}
		res.Throughput = float64(ops) / pair.Clock.Since(start).Seconds()
		res.DegPct = 100 * (1 - res.Throughput/baseline)
		return res, nil
	}

	cfg, err := replicationConfig(setup)
	if err != nil {
		return res, err
	}
	cfg.Workload = w
	rep, err := newReplicator(vm, pair, cfg)
	if err != nil {
		return res, err
	}
	if _, err := rep.Seed(); err != nil {
		return res, err
	}
	// Dynamic-period setups measure steady state: let the controller
	// converge before the measurement window, as the paper's
	// multi-minute runs do.
	if cfg.PeriodManager != nil {
		if _, err := rep.RunFor(2 * runWindow); err != nil {
			return res, err
		}
	}
	opsBefore := rep.Totals().WorkloadStats.Ops
	start := pair.Clock.Now()
	if _, err := rep.RunFor(runWindow); err != nil {
		return res, err
	}
	elapsed := pair.Clock.Since(start)
	res.Throughput = float64(rep.Totals().WorkloadStats.Ops-opsBefore) / elapsed.Seconds()
	res.DegPct = 100 * (1 - res.Throughput/baseline)
	return res, nil
}

func startFor(setup ReplicationSetup) time.Duration {
	if setup.Tmax == 0 {
		return 5 * time.Second
	}
	return 0 // start at Tmax, Algorithm 1 line 1
}

// replicationConfig builds the replication configuration for one
// Table 6 setup (engine and period policy; the workload is set by the
// caller).
func replicationConfig(setup ReplicationSetup) (replication.Config, error) {
	cfg := replication.Config{Engine: setup.Engine}
	if setup.FixedT > 0 {
		cfg.Period = setup.FixedT
		return cfg, nil
	}
	pm, err := period.New(period.Config{
		D:    setup.D,
		Tmax: setup.Tmax,
		// With Tmax = ∞ the controller needs a practical starting
		// interval; 5 s converges within the observation window.
		Start: startFor(setup),
	})
	if err != nil {
		return cfg, err
	}
	cfg.PeriodManager = pm
	return cfg, nil
}

// newReplicator builds a replicator onto the pair's secondary host
// over the pair's link.
func newReplicator(vm *hypervisor.VM, pair *Pair, cfg replication.Config) (*replication.Replicator, error) {
	return replication.NewChain(vm, []replication.Secondary{{Host: pair.Secondary, Transport: pair.Link}}, cfg)
}

// vmHandle is the VM type passed to workload factories.
type vmHandle = *hypervisor.VM

// YCSBFigure measures YCSB workloads under a set of replication
// setups (Figs 11, 12, 13 depending on the setups given). A nil kinds
// slice runs all six workloads.
func YCSBFigure(kinds []ycsb.Kind, setups []ReplicationSetup, scale Scale) ([]BenchResult, error) {
	if kinds == nil {
		kinds = ycsb.Kinds()
	}
	var out []BenchResult
	for _, kind := range kinds {
		for _, setup := range setups {
			kind := kind
			res, err := runReplicated(setup, scale, scale.LoadedGB*2, func(vm vmHandle) (workload.Workload, float64, error) {
				w, err := loadedYCSB(vm, kind, scale)
				if err != nil {
					return nil, 0, err
				}
				return w, w.BaselineThroughput(), nil
			})
			if err != nil {
				return nil, fmt.Errorf("ycsb %s / %s: %w", kind, setup.Label, err)
			}
			out = append(out, res)
		}
	}
	return out, nil
}

// SPECFigure measures SPEC benchmarks under a set of replication
// setups (Figs 14, 15, 16). A nil names slice runs all four.
func SPECFigure(names []spec.Name, setups []ReplicationSetup, scale Scale) ([]BenchResult, error) {
	if names == nil {
		names = spec.Names()
	}
	var out []BenchResult
	for _, name := range names {
		for _, setup := range setups {
			name := name
			res, err := runReplicated(setup, scale, scale.LoadedGB*2, func(vm vmHandle) (workload.Workload, float64, error) {
				k, err := spec.New(name, scale.Seed)
				if err != nil {
					return nil, 0, err
				}
				base, err := spec.BaselineRate(name)
				if err != nil {
					return nil, 0, err
				}
				return k, base, nil
			})
			if err != nil {
				return nil, fmt.Errorf("spec %s / %s: %w", name, setup.Label, err)
			}
			out = append(out, res)
		}
	}
	return out, nil
}

// RenderBench formats (workload, setup) measurements as a figure
// table: throughput with the degradation percentage the paper prints
// above each bar.
func RenderBench(title string, rows []BenchResult) *metrics.Table {
	tab := metrics.NewTable(title, "Workload", "Setup", "Throughput(ops/s)", "Deg")
	for _, r := range rows {
		deg := r.DegPct
		if deg < 0 {
			deg = 0
		}
		tab.AddRow(r.Workload, r.Setup, r.Throughput, fmt.Sprintf("%.0f%%", deg))
	}
	return tab
}
