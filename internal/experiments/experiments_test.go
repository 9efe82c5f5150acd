package experiments_test

import (
	"fmt"
	"strings"
	"testing"

	"github.com/here-ft/here/internal/experiments"
	"github.com/here-ft/here/internal/spec"
	"github.com/here-ft/here/internal/ycsb"
)

func TestTablesRender(t *testing.T) {
	t1 := experiments.Table1()
	if renderedRows(t1) != 5 || !strings.Contains(t1.String(), "Xen") {
		t.Fatalf("Table 1:\n%s", t1)
	}
	t2 := experiments.Table2()
	if renderedRows(t2) != 5 {
		t.Fatalf("Table 2:\n%s", t2)
	}
	t5 := experiments.Table5()
	if renderedRows(t5) != 6 || !strings.Contains(t5.String(), "Applicable") {
		t.Fatalf("Table 5:\n%s", t5)
	}
}

// renderedRows counts the data rows of a rendered metrics.Table: the
// lines after its dashed header rule.
func renderedRows(table fmt.Stringer) int {
	_, body, _ := strings.Cut(table.String(), "-\n")
	return strings.Count(body, "\n")
}

func TestFig5Linear(t *testing.T) {
	res, err := experiments.Fig5(experiments.QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PagesK) != 10 {
		t.Fatalf("points = %d", len(res.PagesK))
	}
	// Fig 5's claim: the relationship is linear.
	if res.R2 < 0.99 {
		t.Fatalf("r² = %v, want near-perfect linearity\n%s", res.R2, res.Render())
	}
	if res.Slope <= 0 {
		t.Fatalf("slope = %v, want positive", res.Slope)
	}
	// Times grow monotonically with page count.
	for i := 1; i < len(res.Secs); i++ {
		if res.Secs[i] <= res.Secs[i-1] {
			t.Fatalf("send time not increasing:\n%s", res.Render())
		}
	}
}

func TestFig6MigrationGains(t *testing.T) {
	res, err := experiments.Fig6(experiments.QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	// Idle: gains grow with memory and land near 25% for larger VMs.
	last := res.Idle[len(res.Idle)-1]
	if last.GainPct < 10 || last.GainPct > 45 {
		t.Fatalf("idle gain at %s = %.0f%%, want ~25%%\n%s",
			last.Label, last.GainPct, res.Render())
	}
	// Loaded: gains near 49% and above the idle gain.
	for _, row := range res.Loaded {
		if row.GainPct < 30 || row.GainPct > 70 {
			t.Fatalf("loaded gain at %s = %.0f%%, want ~49%%\n%s",
				row.Label, row.GainPct, res.Render())
		}
		if row.GainPct <= last.GainPct {
			t.Fatalf("loaded gain (%.0f%%) not above idle gain (%.0f%%)",
				row.GainPct, last.GainPct)
		}
	}
	// Migration time grows with memory size.
	for i := 1; i < len(res.Idle); i++ {
		if res.Idle[i].XenSecs <= res.Idle[i-1].XenSecs {
			t.Fatalf("idle Xen times not increasing:\n%s", res.Render())
		}
	}
}

func TestFig7ResumptionMilliseconds(t *testing.T) {
	rows, err := experiments.Fig7(experiments.QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	first := rows[0]
	for _, r := range rows {
		if r.IdleMillis < 0.5 || r.IdleMillis > 50 {
			t.Fatalf("idle resumption %v ms at %d GB, want single-digit ms",
				r.IdleMillis, r.MemGB)
		}
		if r.LoadMillis < 0.5 || r.LoadMillis > 50 {
			t.Fatalf("loaded resumption %v ms at %d GB", r.LoadMillis, r.MemGB)
		}
		// Size independence (Fig 7's second claim).
		if r.IdleMillis != first.IdleMillis {
			t.Fatalf("resumption varies with memory size:\n%s", experiments.RenderFig7(rows))
		}
	}
}

func TestFig8CheckpointGains(t *testing.T) {
	res, err := experiments.Fig8(experiments.QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range res.Idle {
		// Constant pause costs dominate tiny VMs; the ~70% scan gain
		// (Fig 8a) shows at the larger sizes.
		if i == len(res.Idle)-1 {
			gain := 100 * (1 - row.HERESecs/row.RemusSecs)
			if gain < 55 || gain > 85 {
				t.Fatalf("idle %d GB checkpoint gain = %.0f%%, want ~70%%\n%s",
					row.MemGB, gain, res.Render())
			}
		}
		// Idle degradations are below 1% (Fig 8c).
		if row.RemusDegPct > 1.0 {
			t.Fatalf("idle Remus degradation = %.2f%%, want < 1%%", row.RemusDegPct)
		}
	}
	for i, row := range res.Loaded {
		gain := 100 * (1 - row.HERESecs/row.RemusSecs)
		if gain < 30 || gain > 65 {
			t.Fatalf("loaded %d GB checkpoint gain = %.0f%%, want ~49%%\n%s",
				row.MemGB, gain, res.Render())
		}
		// Loaded degradations become substantial at size (Fig 8d).
		if i == len(res.Loaded)-1 && row.RemusDegPct < 3 {
			t.Fatalf("loaded Remus degradation = %.1f%%, too small", row.RemusDegPct)
		}
		if row.HEREDegPct >= row.RemusDegPct {
			t.Fatal("HERE degradation not below Remus under load")
		}
	}
}

func TestFig9DynamicPeriodTracksLoad(t *testing.T) {
	scale := experiments.QuickScale()
	res, err := experiments.Fig9(scale)
	if err != nil {
		t.Fatal(err)
	}
	trace := res.Period.Points[res.Period.Len()-1].T
	// Sample the period late in each load phase (past the adjustment
	// transient). Phases switch at 30% and 70% of the trace.
	lowLoadT := res.Period.MeanBetween(trace*15/100, trace*30/100)
	highLoadT := res.Period.MeanBetween(trace*45/100, trace*70/100)
	tinyLoadT := res.Period.MeanBetween(trace*85/100, trace)
	if highLoadT <= lowLoadT*1.2 {
		t.Fatalf("period did not rise with load: 20%%→%.2f s, 80%%→%.2f s\n%s",
			lowLoadT, highLoadT, experiments.RenderTrace("fig9", res, 12))
	}
	if tinyLoadT >= highLoadT*0.9 {
		t.Fatalf("period did not fall when load dropped: 80%%→%.2f s, 5%%→%.2f s\n%s",
			highLoadT, tinyLoadT, experiments.RenderTrace("fig9", res, 12))
	}
	// The measured overhead tracks the 30% set-point during the
	// converged low-load phase (Fig 9 bottom; the high phase includes
	// the midpoint-jump transient, so it is looser).
	lowDeg := res.Degradation.MeanBetween(trace*15/100, trace*30/100)
	if lowDeg < 15 || lowDeg > 45 {
		t.Fatalf("low-phase degradation = %.1f%%, want ≈ 30%%\n%s",
			lowDeg, experiments.RenderTrace("fig9", res, 12))
	}
	highDeg := res.Degradation.MeanBetween(trace*45/100, trace*70/100)
	if highDeg < 5 || highDeg > 50 {
		t.Fatalf("high-phase degradation = %.1f%%, out of band\n%s",
			highDeg, experiments.RenderTrace("fig9", res, 12))
	}
}

func TestFig10YCSBDynamic(t *testing.T) {
	res, err := experiments.Fig10(experiments.QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	slowdown := 100 * (1 - res.Throughput/res.Baseline)
	// Paper: ≈33.6% slowdown at D = 0.3.
	if slowdown < 15 || slowdown > 45 {
		t.Fatalf("slowdown = %.1f%% (tput %.0f, base %.0f), want ≈ 33%%",
			slowdown, res.Throughput, res.Baseline)
	}
	deg := res.Degradation.MeanBetween(0, res.Period.Points[res.Period.Len()-1].T)
	if deg < 15 || deg > 45 {
		t.Fatalf("mean degradation = %.1f%%, want ≈ 30%%", deg)
	}
}

func TestSec87Overhead(t *testing.T) {
	res, err := experiments.Sec87(experiments.QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	// §8.7: ~62% of one core, a few hundred MB.
	if res.CPUPercent < 5 || res.CPUPercent > 100 {
		t.Fatalf("CPU = %.0f%%, want well below one core", res.CPUPercent)
	}
	if res.RSSMiB < 50 || res.RSSMiB > 1024 {
		t.Fatalf("RSS = %.0f MiB, want hundreds of MB", res.RSSMiB)
	}
}

func TestYCSBFigureShapes(t *testing.T) {
	scale := experiments.QuickScale()
	setups := []experiments.ReplicationSetup{
		experiments.SetupBaseline,
		experiments.SetupHERE3s0,
		experiments.SetupRemus3s,
	}
	rows, err := experiments.YCSBFigure(
		[]ycsb.Kind{ycsb.WorkloadA, ycsb.WorkloadC}, setups, scale)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]experiments.BenchResult{}
	for _, r := range rows {
		byKey[r.Workload+"/"+r.Setup] = r
	}
	for _, wl := range []string{"ycsb-A", "ycsb-C"} {
		base := byKey[wl+"/Xen"]
		here := byKey[wl+"/HERE(3Sec,0%)"]
		remus := byKey[wl+"/Remus3Sec"]
		// Baseline within 10% of the model's nominal rate.
		if d := base.DegPct; d < -10 || d > 10 {
			t.Fatalf("%s baseline off nominal by %.1f%%", wl, d)
		}
		// Fig 11's headline: HERE degrades less than Remus at equal T.
		if here.DegPct >= remus.DegPct {
			t.Fatalf("%s: HERE deg %.0f%% not below Remus %.0f%%\n%s",
				wl, here.DegPct, remus.DegPct,
				experiments.RenderBench("fig11", rows))
		}
		// Degradations are substantial (tens of percent).
		if remus.DegPct < 15 || remus.DegPct > 75 {
			t.Fatalf("%s: Remus3s deg = %.0f%%, want paper-scale tens of %%\n%s",
				wl, remus.DegPct, experiments.RenderBench("fig11", rows))
		}
		if here.DegPct < 8 || here.DegPct > 60 {
			t.Fatalf("%s: HERE3s deg = %.0f%%, out of band\n%s",
				wl, here.DegPct, experiments.RenderBench("fig11", rows))
		}
	}
}

func TestYCSBDefinedDegradationRespected(t *testing.T) {
	scale := experiments.QuickScale()
	rows, err := experiments.YCSBFigure(
		[]ycsb.Kind{ycsb.WorkloadA},
		[]experiments.ReplicationSetup{
			experiments.SetupHEREInf20, experiments.SetupHEREInf30,
		}, scale)
	if err != nil {
		t.Fatal(err)
	}
	// Fig 12: lower budgets are respected (within a transient margin);
	// observed degradation ordering follows the configured budgets.
	d20, d30 := rows[0].DegPct, rows[1].DegPct
	if d20 < 8 || d20 > 35 {
		t.Fatalf("D=20%% observed %.0f%%\n%s", d20,
			experiments.RenderBench("fig12", rows))
	}
	if d30 < 15 || d30 > 45 {
		t.Fatalf("D=30%% observed %.0f%%\n%s", d30,
			experiments.RenderBench("fig12", rows))
	}
	if d20 >= d30 {
		t.Fatalf("budget ordering violated: D20→%.0f%%, D30→%.0f%%", d20, d30)
	}
}

func TestSPECFigureShapes(t *testing.T) {
	scale := experiments.QuickScale()
	rows, err := experiments.SPECFigure(
		[]spec.Name{spec.NAMD, spec.CactuBSSN},
		[]experiments.ReplicationSetup{
			experiments.SetupHERE3s0, experiments.SetupRemus3s,
		}, scale)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]experiments.BenchResult{}
	for _, r := range rows {
		byKey[r.Workload+"/"+r.Setup] = r
	}
	// Fig 14: HERE below Remus; cactuBSSN (streaming) hit harder than
	// namd (cache-resident).
	for _, wl := range []string{"namd", "cactuBSSN"} {
		here := byKey[wl+"/HERE(3Sec,0%)"]
		remus := byKey[wl+"/Remus3Sec"]
		if here.DegPct >= remus.DegPct {
			t.Fatalf("%s: HERE deg %.0f%% not below Remus %.0f%%\n%s",
				wl, here.DegPct, remus.DegPct, experiments.RenderBench("fig14", rows))
		}
	}
	if byKey["cactuBSSN/HERE(3Sec,0%)"].DegPct <= byKey["namd/HERE(3Sec,0%)"].DegPct {
		t.Fatalf("cactuBSSN not hit harder than namd\n%s",
			experiments.RenderBench("fig14", rows))
	}
}

func TestFig17LatencyShapes(t *testing.T) {
	rows, err := experiments.Fig17(experiments.QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]experiments.Fig17Row{}
	for _, r := range rows {
		byKey[r.Load+"/"+r.Setup] = r
	}
	for _, load := range []string{"load a", "load b", "load c"} {
		base := byKey[load+"/Xen"]
		here3 := byKey[load+"/HERE(3sec,40%)"]
		remus3 := byKey[load+"/Remus3Sec"]
		remus5 := byKey[load+"/Remus5Sec"]
		// Baseline is microseconds; replication costs orders more.
		if base.LatencyUS > 1000 {
			t.Fatalf("%s baseline = %.0f us", load, base.LatencyUS)
		}
		if remus3.LatencyUS < 100*base.LatencyUS {
			t.Fatalf("%s: Remus latency (%.0f us) not orders above baseline (%.0f us)",
				load, remus3.LatencyUS, base.LatencyUS)
		}
		// Remus latency scales with the period.
		if remus5.LatencyUS <= remus3.LatencyUS {
			t.Fatalf("%s: Remus5s (%.0f us) not above Remus3s (%.0f us)",
				load, remus5.LatencyUS, remus3.LatencyUS)
		}
		// HERE's dynamic control keeps latency well below Remus
		// (paper: 129 ms vs 845 ms).
		if here3.LatencyUS >= remus3.LatencyUS/2 {
			t.Fatalf("%s: HERE (%.0f us) not well below Remus (%.0f us)\n%s",
				load, here3.LatencyUS, remus3.LatencyUS,
				experiments.RenderFig17(rows))
		}
		if here3.Replies == 0 {
			t.Fatalf("%s: no replies delivered under HERE", load)
		}
	}
}
