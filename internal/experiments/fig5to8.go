package experiments

import (
	"fmt"
	"time"

	"github.com/here-ft/here/internal/failover"
	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/metrics"
	"github.com/here-ft/here/internal/migration"
	"github.com/here-ft/here/internal/replication"
	"github.com/here-ft/here/internal/workload"
)

// pagesWorkload dirties exactly n distinct pages per execution step —
// the controlled dirty source behind Fig 5.
type pagesWorkload struct {
	n memory.PageNum
}

func (p pagesWorkload) Name() string { return "fixed-pages" }

func (p pagesWorkload) Step(vm *hypervisor.VM, d time.Duration) (workload.StepStats, error) {
	if d <= 0 {
		return workload.StepStats{}, nil
	}
	vcpus := vm.NumVCPUs()
	for i := memory.PageNum(0); i < p.n; i++ {
		if err := vm.TouchPage(int(i)%vcpus, i); err != nil {
			return workload.StepStats{}, err
		}
	}
	return workload.StepStats{Writes: int64(p.n)}, nil
}

// Fig5Result is the dirty-pages-vs-send-time relationship of Fig 5.
type Fig5Result struct {
	PagesK []int     // x axis, thousands of dirty pages
	Secs   []float64 // y axis, checkpoint send time
	Slope  float64   // fitted α (seconds per page)
	Cept   float64   // fitted constant C (seconds)
	R2     float64
}

// Fig5 measures checkpoint pause duration against the number of dirty
// pages and fits the linear model f(N) = αN + C (Fig 5, Eq. 4).
func Fig5(scale Scale) (Fig5Result, error) {
	var res Fig5Result
	pair, err := NewHeterogeneousPair()
	if err != nil {
		return res, err
	}
	vm, err := pair.ProtectedVM("fig5", GB(1), 4)
	if err != nil {
		return res, err
	}
	rep, err := newReplicator(vm, pair, replication.Config{
		Engine: replication.EngineHERE,
		Period: time.Second,
	})
	if err != nil {
		return res, err
	}
	if _, err := rep.Seed(); err != nil {
		return res, err
	}
	var xs, ys []float64
	for n := 10_000; n <= 100_000; n += 10_000 {
		rep.SetWorkload(pagesWorkload{n: memory.PageNum(n)})
		st, err := rep.RunCycle()
		if err != nil {
			return res, err
		}
		res.PagesK = append(res.PagesK, n/1000)
		res.Secs = append(res.Secs, st.Pause.Seconds())
		xs = append(xs, float64(n))
		ys = append(ys, st.Pause.Seconds())
	}
	res.Slope, res.Cept, res.R2 = metrics.LinearFit(xs, ys)
	return res, nil
}

// Render formats the Fig 5 result.
func (r Fig5Result) Render() *metrics.Table {
	tab := metrics.NewTable(
		fmt.Sprintf("Fig 5: dirty pages vs send time (fit t = %.1fns*N + %.2fms, r2 = %.4f)",
			r.Slope*1e9, r.Cept*1e3, r.R2),
		"DirtyPages(K)", "Time(ms)")
	for i := range r.PagesK {
		tab.AddRow(r.PagesK[i], r.Secs[i]*1e3)
	}
	return tab
}

// Fig6Row is one migration measurement.
type Fig6Row struct {
	Label    string // memory size or load level
	XenSecs  float64
	HERESecs float64
	GainPct  float64
}

// Fig6Result holds both panels of Fig 6.
type Fig6Result struct {
	Idle   []Fig6Row // left: idle VM, memory sweep
	Loaded []Fig6Row // right: memory benchmark, load sweep
}

// Fig6 measures migration times for idle VMs across memory sizes and
// for a loaded VM across load levels, stock Xen vs HERE.
func Fig6(scale Scale) (Fig6Result, error) {
	var res Fig6Result
	migrate := func(memBytes uint64, loadPct float64, mode migration.Mode) (time.Duration, error) {
		pair, err := NewHeterogeneousPair()
		if err != nil {
			return 0, err
		}
		vm, err := pair.ProtectedVM("fig6", memBytes, 4)
		if err != nil {
			return 0, err
		}
		cfg := migration.Config{Transport: pair.Link, Mode: mode}
		if loadPct > 0 {
			w, err := workload.NewMemoryBench(loadPct, scale.WriteRatePages, scale.Seed)
			if err != nil {
				return 0, err
			}
			cfg.Workload = w
		}
		r, err := migration.Migrate(vm, memory.NewGuestMemory(memBytes), cfg)
		if err != nil {
			return 0, err
		}
		return r.Duration, nil
	}

	for _, gb := range scale.MemoryGB {
		x, err := migrate(GB(gb), 0, migration.ModeXen)
		if err != nil {
			return res, err
		}
		h, err := migrate(GB(gb), 0, migration.ModeHERE)
		if err != nil {
			return res, err
		}
		res.Idle = append(res.Idle, Fig6Row{
			Label:    fmt.Sprintf("%d GB", gb),
			XenSecs:  x.Seconds(),
			HERESecs: h.Seconds(),
			GainPct:  100 * (1 - h.Seconds()/x.Seconds()),
		})
	}
	for _, load := range scale.LoadPercents {
		x, err := migrate(GB(scale.LoadedGB), load, migration.ModeXen)
		if err != nil {
			return res, err
		}
		h, err := migrate(GB(scale.LoadedGB), load, migration.ModeHERE)
		if err != nil {
			return res, err
		}
		res.Loaded = append(res.Loaded, Fig6Row{
			Label:    fmt.Sprintf("%.0f%%", load),
			XenSecs:  x.Seconds(),
			HERESecs: h.Seconds(),
			GainPct:  100 * (1 - h.Seconds()/x.Seconds()),
		})
	}
	return res, nil
}

// Render formats Fig 6.
func (r Fig6Result) Render() *metrics.Table {
	tab := metrics.NewTable("Fig 6: migration times, idle (left) and memory benchmark (right)",
		"Scenario", "Xen(s)", "HERE(s)", "Gain")
	for _, row := range r.Idle {
		tab.AddRow("idle "+row.Label, row.XenSecs, row.HERESecs,
			fmt.Sprintf("%.0f%%", row.GainPct))
	}
	for _, row := range r.Loaded {
		tab.AddRow("load "+row.Label, row.XenSecs, row.HERESecs,
			fmt.Sprintf("%.0f%%", row.GainPct))
	}
	return tab
}

// Fig7Row is one replica resumption measurement.
type Fig7Row struct {
	MemGB      int
	IdleMillis float64
	LoadMillis float64
}

// Fig7 measures replica VM resumption time after a primary failure,
// for idle and loaded VMs across memory sizes.
func Fig7(scale Scale) ([]Fig7Row, error) {
	resume := func(memBytes uint64, loaded bool) (time.Duration, error) {
		pair, err := NewHeterogeneousPair()
		if err != nil {
			return 0, err
		}
		vm, err := pair.ProtectedVM("fig7", memBytes, 4)
		if err != nil {
			return 0, err
		}
		cfg := replication.Config{
			Engine: replication.EngineHERE, Period: time.Second,
		}
		if loaded {
			w, err := workload.NewMemoryBench(30, scale.WriteRatePages, scale.Seed)
			if err != nil {
				return 0, err
			}
			cfg.Workload = w
		}
		rep, err := newReplicator(vm, pair, cfg)
		if err != nil {
			return 0, err
		}
		if _, err := rep.Seed(); err != nil {
			return 0, err
		}
		if _, err := rep.RunCycle(); err != nil {
			return 0, err
		}
		pair.Primary.Fail(hypervisor.Crashed, "fig7 injected failure")
		fr, err := failover.ActivateOpts(rep, "fig7-replica", failover.Options{})
		if err != nil {
			return 0, err
		}
		return fr.ResumeTime, nil
	}

	var rows []Fig7Row
	for _, gb := range scale.MemoryGB {
		idle, err := resume(GB(gb), false)
		if err != nil {
			return nil, err
		}
		loaded, err := resume(GB(gb), true)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig7Row{
			MemGB:      gb,
			IdleMillis: float64(idle) / float64(time.Millisecond),
			LoadMillis: float64(loaded) / float64(time.Millisecond),
		})
	}
	return rows, nil
}

// RenderFig7 formats Fig 7.
func RenderFig7(rows []Fig7Row) *metrics.Table {
	tab := metrics.NewTable("Fig 7: replica resumption times",
		"Memory", "Idle(ms)", "Loaded(ms)")
	for _, r := range rows {
		tab.AddRow(fmt.Sprintf("%d GB", r.MemGB), r.IdleMillis, r.LoadMillis)
	}
	return tab
}

// Fig8Row is one checkpoint-cost measurement at the fixed 8 s period.
type Fig8Row struct {
	MemGB       int
	RemusSecs   float64
	HERESecs    float64
	RemusDegPct float64
	HEREDegPct  float64
}

// Fig8Result holds both halves of Fig 8.
type Fig8Result struct {
	Idle   []Fig8Row // (a)/(c): idle VM
	Loaded []Fig8Row // (b)/(d): 30% memory benchmark
}

// Fig8 compares per-checkpoint memory transfer times and the derived
// degradation between Remus and HERE at a fixed 8-second period.
func Fig8(scale Scale) (Fig8Result, error) {
	const T = 8 * time.Second
	var res Fig8Result
	run := func(memBytes uint64, engine replication.Engine, loaded bool) (time.Duration, error) {
		var pair *Pair
		var err error
		if engine == replication.EngineHERE {
			pair, err = NewHeterogeneousPair()
		} else {
			pair, err = NewHomogeneousPair()
		}
		if err != nil {
			return 0, err
		}
		vm, err := pair.ProtectedVM("fig8", memBytes, 4)
		if err != nil {
			return 0, err
		}
		cfg := replication.Config{Engine: engine, Period: T}
		if loaded {
			w, err := workload.NewMemoryBench(30, scale.WriteRatePages, scale.Seed)
			if err != nil {
				return 0, err
			}
			cfg.Workload = w
		}
		rep, err := newReplicator(vm, pair, cfg)
		if err != nil {
			return 0, err
		}
		if _, err := rep.Seed(); err != nil {
			return 0, err
		}
		stats, err := rep.RunFor(secs(scale.RunSeconds))
		if err != nil {
			return 0, err
		}
		var total time.Duration
		for _, st := range stats {
			total += st.Pause
		}
		return total / time.Duration(len(stats)), nil
	}

	for _, gb := range scale.MemoryGB {
		for _, loaded := range []bool{false, true} {
			remus, err := run(GB(gb), replication.EngineRemus, loaded)
			if err != nil {
				return res, err
			}
			here, err := run(GB(gb), replication.EngineHERE, loaded)
			if err != nil {
				return res, err
			}
			row := Fig8Row{
				MemGB:       gb,
				RemusSecs:   remus.Seconds(),
				HERESecs:    here.Seconds(),
				RemusDegPct: 100 * remus.Seconds() / (remus.Seconds() + T.Seconds()),
				HEREDegPct:  100 * here.Seconds() / (here.Seconds() + T.Seconds()),
			}
			if loaded {
				res.Loaded = append(res.Loaded, row)
			} else {
				res.Idle = append(res.Idle, row)
			}
		}
	}
	return res, nil
}

// Render formats Fig 8.
func (r Fig8Result) Render() *metrics.Table {
	tab := metrics.NewTable("Fig 8: checkpoint transfer times and degradations (T = 8s)",
		"Scenario", "Remus(ms)", "HERE(ms)", "RemusDeg", "HEREDeg")
	for _, row := range r.Idle {
		tab.AddRow(fmt.Sprintf("idle %d GB", row.MemGB),
			row.RemusSecs*1e3, row.HERESecs*1e3,
			fmt.Sprintf("%.2f%%", row.RemusDegPct), fmt.Sprintf("%.2f%%", row.HEREDegPct))
	}
	for _, row := range r.Loaded {
		tab.AddRow(fmt.Sprintf("load %d GB", row.MemGB),
			row.RemusSecs*1e3, row.HERESecs*1e3,
			fmt.Sprintf("%.1f%%", row.RemusDegPct), fmt.Sprintf("%.1f%%", row.HEREDegPct))
	}
	return tab
}
