// Benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (§8). Each benchmark regenerates its artifact
// through internal/experiments and reports the headline quantities as
// custom benchmark metrics, so `go test -bench . -benchmem` doubles as
// a reproduction run.
//
// Benchmarks run at QuickScale by default; set HERE_SCALE=full to run
// the paper-sized experiments (several minutes), or use cmd/here-bench
// for the full tabular output.
package here_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/here-ft/here/internal/experiments"
	"github.com/here-ft/here/internal/ycsb"
)

func benchScale() experiments.Scale {
	if os.Getenv("HERE_SCALE") == "full" {
		return experiments.FullScale()
	}
	return experiments.QuickScale()
}

// renderedRows counts the data rows of a rendered metrics.Table: the
// lines after its dashed header rule.
func renderedRows(table fmt.Stringer) int {
	_, body, _ := strings.Cut(table.String(), "-\n")
	return strings.Count(body, "\n")
}

func BenchmarkTable1Vulns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if renderedRows(experiments.Table1()) != 5 {
			b.Fatal("table 1 wrong")
		}
	}
}

func BenchmarkTable2Coverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if renderedRows(experiments.Table2()) != 5 {
			b.Fatal("table 2 wrong")
		}
	}
}

func BenchmarkTable5Outcomes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if renderedRows(experiments.Table5()) != 6 {
			b.Fatal("table 5 wrong")
		}
	}
}

func BenchmarkFig5Linearity(b *testing.B) {
	scale := benchScale()
	var r2, slopeNS float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(scale)
		if err != nil {
			b.Fatal(err)
		}
		r2 = res.R2
		slopeNS = res.Slope * 1e9
	}
	b.ReportMetric(r2, "r2")
	b.ReportMetric(slopeNS, "ns/page")
}

func BenchmarkFig6Migration(b *testing.B) {
	scale := benchScale()
	var idleGain, loadGain float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(scale)
		if err != nil {
			b.Fatal(err)
		}
		idleGain = res.Idle[len(res.Idle)-1].GainPct
		loadGain = res.Loaded[len(res.Loaded)-1].GainPct
	}
	b.ReportMetric(idleGain, "idle-gain-%")
	b.ReportMetric(loadGain, "loaded-gain-%")
}

func BenchmarkFig7Resume(b *testing.B) {
	scale := benchScale()
	var ms float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig7(scale)
		if err != nil {
			b.Fatal(err)
		}
		ms = rows[len(rows)-1].IdleMillis
	}
	b.ReportMetric(ms, "resume-ms")
}

func BenchmarkFig8Checkpoint(b *testing.B) {
	scale := benchScale()
	var idleGain, loadGain float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8(scale)
		if err != nil {
			b.Fatal(err)
		}
		last := len(res.Idle) - 1
		idleGain = 100 * (1 - res.Idle[last].HERESecs/res.Idle[last].RemusSecs)
		loadGain = 100 * (1 - res.Loaded[last].HERESecs/res.Loaded[last].RemusSecs)
	}
	b.ReportMetric(idleGain, "idle-gain-%")
	b.ReportMetric(loadGain, "loaded-gain-%")
}

func BenchmarkFig9Dynamic(b *testing.B) {
	scale := benchScale()
	var lowT, highT float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9(scale)
		if err != nil {
			b.Fatal(err)
		}
		trace := res.Period.Points[res.Period.Len()-1].T
		lowT = res.Period.MeanBetween(trace*15/100, trace*30/100)
		highT = res.Period.MeanBetween(trace*45/100, trace*70/100)
	}
	b.ReportMetric(lowT, "lowload-T-s")
	b.ReportMetric(highT, "highload-T-s")
}

func BenchmarkFig10DynamicYCSB(b *testing.B) {
	scale := benchScale()
	var slowdown float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig10(scale)
		if err != nil {
			b.Fatal(err)
		}
		slowdown = 100 * (1 - res.Throughput/res.Baseline)
	}
	b.ReportMetric(slowdown, "slowdown-%")
}

// ycsbHeadline reports workload A's degradation under the given setup.
func ycsbHeadline(b *testing.B, setups []experiments.ReplicationSetup) (deg []float64) {
	b.Helper()
	scale := benchScale()
	rows, err := experiments.YCSBFigure([]ycsb.Kind{ycsb.WorkloadA}, setups, scale)
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range rows {
		if r.Workload == "ycsb-A" {
			deg = append(deg, r.DegPct)
		}
	}
	return deg
}

func BenchmarkFig11YCSBFixed(b *testing.B) {
	var deg []float64
	for i := 0; i < b.N; i++ {
		deg = ycsbHeadline(b, []experiments.ReplicationSetup{
			experiments.SetupHERE3s0, experiments.SetupRemus3s,
		})
	}
	b.ReportMetric(deg[0], "A-here3s-deg-%")
	b.ReportMetric(deg[1], "A-remus3s-deg-%")
}

func BenchmarkFig12YCSBDeg(b *testing.B) {
	var deg []float64
	for i := 0; i < b.N; i++ {
		deg = ycsbHeadline(b, []experiments.ReplicationSetup{
			experiments.SetupHEREInf20, experiments.SetupHEREInf30,
		})
	}
	b.ReportMetric(deg[0], "A-d20-deg-%")
	b.ReportMetric(deg[1], "A-d30-deg-%")
}

func BenchmarkFig13YCSBBoth(b *testing.B) {
	var deg []float64
	for i := 0; i < b.N; i++ {
		deg = ycsbHeadline(b, []experiments.ReplicationSetup{
			experiments.SetupHERE3s40, experiments.SetupHERE5s30,
		})
	}
	b.ReportMetric(deg[0], "A-3s40-deg-%")
	b.ReportMetric(deg[1], "A-5s30-deg-%")
}

// specHeadline reports each benchmark's degradation under one setup.
func specHeadline(b *testing.B, setup experiments.ReplicationSetup) map[string]float64 {
	b.Helper()
	scale := benchScale()
	rows, err := experiments.SPECFigure(nil, []experiments.ReplicationSetup{setup}, scale)
	if err != nil {
		b.Fatal(err)
	}
	out := make(map[string]float64, len(rows))
	for _, r := range rows {
		out[r.Workload] = r.DegPct
	}
	return out
}

func BenchmarkFig14SPECFixed(b *testing.B) {
	var deg map[string]float64
	for i := 0; i < b.N; i++ {
		deg = specHeadline(b, experiments.SetupHERE3s0)
	}
	b.ReportMetric(deg["gcc"], "gcc-deg-%")
	b.ReportMetric(deg["cactuBSSN"], "cactu-deg-%")
	b.ReportMetric(deg["namd"], "namd-deg-%")
	b.ReportMetric(deg["lbm"], "lbm-deg-%")
}

func BenchmarkFig15SPECDeg(b *testing.B) {
	var deg map[string]float64
	for i := 0; i < b.N; i++ {
		deg = specHeadline(b, experiments.SetupHEREInf30)
	}
	b.ReportMetric(deg["gcc"], "gcc-deg-%")
	b.ReportMetric(deg["lbm"], "lbm-deg-%")
}

func BenchmarkFig16SPECBoth(b *testing.B) {
	var deg map[string]float64
	for i := 0; i < b.N; i++ {
		deg = specHeadline(b, experiments.SetupHERE5s30)
	}
	b.ReportMetric(deg["gcc"], "gcc-deg-%")
	b.ReportMetric(deg["lbm"], "lbm-deg-%")
}

func BenchmarkFig17Sockperf(b *testing.B) {
	scale := benchScale()
	var hereMS, remusMS float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig17(scale)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Load != "load a" {
				continue
			}
			switch r.Setup {
			case "HERE(3sec,40%)":
				hereMS = r.LatencyUS / 1000
			case "Remus3Sec":
				remusMS = r.LatencyUS / 1000
			}
		}
	}
	b.ReportMetric(hereMS, "here-lat-ms")
	b.ReportMetric(remusMS, "remus-lat-ms")
}

func BenchmarkSec87Overhead(b *testing.B) {
	scale := benchScale()
	var cpu, rss float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Sec87(scale)
		if err != nil {
			b.Fatal(err)
		}
		cpu = res.CPUPercent
		rss = res.RSSMiB
	}
	b.ReportMetric(cpu, "cpu-%")
	b.ReportMetric(rss, "rss-MiB")
}

func BenchmarkAblationThreads(b *testing.B) {
	scale := benchScale()
	var speedup float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ThreadAblation(scale, []int{1, 4})
		if err != nil {
			b.Fatal(err)
		}
		speedup = rows[1].SpeedupX
	}
	b.ReportMetric(speedup, "4thread-speedup-x")
}

func BenchmarkAblationStreamShare(b *testing.B) {
	scale := benchScale()
	var gainWeak, gainSat float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.StreamShareAblation(scale, []float64{0.3, 1.0})
		if err != nil {
			b.Fatal(err)
		}
		gainWeak, gainSat = rows[0].GainPct, rows[1].GainPct
	}
	b.ReportMetric(gainWeak, "gain-share0.3-%")
	b.ReportMetric(gainSat, "gain-share1.0-%")
}

func BenchmarkAdaptiveRemusComparison(b *testing.B) {
	scale := benchScale()
	var hereRPO, adaptiveRPO float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AdaptiveComparison(scale)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Scenario != "membench" {
				continue
			}
			switch r.Policy {
			case "HERE(D=30%)":
				hereRPO = r.MeanPeriod
			case "AdaptiveRemus(5s/0.5s)":
				adaptiveRPO = r.MeanPeriod
			}
		}
	}
	b.ReportMetric(hereRPO, "here-rpo-s")
	b.ReportMetric(adaptiveRPO, "adaptive-rpo-s")
}

func BenchmarkCOLOComparison(b *testing.B) {
	scale := benchScale()
	var heteroSyncs, homoSyncs float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.COLOComparison(scale)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Model != "COLO (lock-stepping)" {
				continue
			}
			if r.Pair == "Xen->KVM" {
				heteroSyncs = r.SyncsPerSec
			} else {
				homoSyncs = r.SyncsPerSec
			}
		}
	}
	b.ReportMetric(homoSyncs, "homo-syncs/s")
	b.ReportMetric(heteroSyncs, "hetero-syncs/s")
}
