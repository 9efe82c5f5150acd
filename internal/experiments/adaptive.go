package experiments

import (
	"fmt"
	"time"

	"github.com/here-ft/here/internal/metrics"
	"github.com/here-ft/here/internal/period"
	"github.com/here-ft/here/internal/replication"
	"github.com/here-ft/here/internal/sockperf"
	"github.com/here-ft/here/internal/workload"
)

// AdaptiveRow is one policy measurement in the Adaptive Remus
// comparison.
type AdaptiveRow struct {
	Policy     string
	Scenario   string  // "sockperf" or "membench"
	MeanPeriod float64 // seconds — the effective recovery point objective
	DegPct     float64 // measured replication degradation
	LatencyMS  float64 // sockperf only: mean reply latency
}

// AdaptiveComparison contrasts three period policies — fixed Remus,
// Adaptive Remus (two-level, I/O-triggered) and HERE's budget
// controller — on an I/O workload and on a memory workload (§5.4).
//
// Adaptive Remus matches HERE on the I/O side (both shorten the
// interval, slashing buffering latency) but has no degradation budget:
// under pure memory load it sits at its default period regardless of
// cost, while HERE tunes the interval to the configured budget,
// checkpointing as often as the budget allows (a tighter RPO).
func AdaptiveComparison(scale Scale) ([]AdaptiveRow, error) {
	type policyFactory struct {
		name  string
		build func() (replication.PeriodPolicy, time.Duration, error)
	}
	policies := []policyFactory{
		{"Remus(5s fixed)", func() (replication.PeriodPolicy, time.Duration, error) {
			return nil, 5 * time.Second, nil
		}},
		{"AdaptiveRemus(5s/0.5s)", func() (replication.PeriodPolicy, time.Duration, error) {
			p, err := period.NewAdaptiveRemus(5*time.Second, 500*time.Millisecond)
			return p, 0, err
		}},
		{"HERE(D=30%)", func() (replication.PeriodPolicy, time.Duration, error) {
			p, err := period.New(period.Config{
				D: 0.3, Tmax: 5 * time.Second, Sigma: scale.DynSigma,
			})
			return p, 0, err
		}},
	}

	var out []AdaptiveRow
	for _, scenario := range []string{"sockperf", "membench"} {
		for _, pf := range policies {
			row, err := runAdaptive(scenario, pf.name, pf.build, scale)
			if err != nil {
				return nil, fmt.Errorf("adaptive %s/%s: %w", scenario, pf.name, err)
			}
			out = append(out, row)
		}
	}
	return out, nil
}

func runAdaptive(scenario, name string,
	build func() (replication.PeriodPolicy, time.Duration, error),
	scale Scale) (AdaptiveRow, error) {

	row := AdaptiveRow{Policy: name, Scenario: scenario}
	pair, err := NewHeterogeneousPair()
	if err != nil {
		return row, err
	}
	vm, err := pair.ProtectedVM("adaptive", GB(scale.LoadedGB), 4)
	if err != nil {
		return row, err
	}
	policy, fixed, err := build()
	if err != nil {
		return row, err
	}
	collector := sockperf.NewCollector()
	cfg := replication.Config{
		Engine:        replication.EngineHERE,
		Period:        fixed,
		PeriodManager: policy,
		Sink:          collector.Sink,
	}
	rep, err := newReplicator(vm, pair, cfg)
	if err != nil {
		return row, err
	}
	switch scenario {
	case "sockperf":
		w, err := sockperf.New(rep.IOBuffer(), sockperf.Config{Load: sockperf.LoadB})
		if err != nil {
			return row, err
		}
		rep.SetWorkload(w)
	default:
		w, err := workload.NewMemoryBench(30, scale.WriteRatePages, scale.Seed)
		if err != nil {
			return row, err
		}
		rep.SetWorkload(w)
	}
	if _, err := rep.Seed(); err != nil {
		return row, err
	}
	// Warm up so dynamic policies settle, then measure.
	if _, err := rep.RunFor(secs(scale.RunSeconds)); err != nil {
		return row, err
	}
	collector = sockperf.NewCollector()
	rep.SetSink(collector.Sink)
	before := rep.Totals()
	startPauses := before.TotalPause
	startRun := before.TotalRun
	stats, err := rep.RunFor(secs(scale.RunSeconds))
	if err != nil {
		return row, err
	}
	after := rep.Totals()

	var periodSum time.Duration
	for _, st := range stats {
		periodSum += st.RunPeriod
	}
	row.MeanPeriod = (periodSum / time.Duration(len(stats))).Seconds()
	pause := after.TotalPause - startPauses
	run := after.TotalRun - startRun
	row.DegPct = 100 * float64(pause) / float64(pause+run)
	if scenario == "sockperf" {
		row.LatencyMS = float64(collector.MeanLatency()) / float64(time.Millisecond)
	}
	return row, nil
}

// RenderAdaptive formats the comparison.
func RenderAdaptive(rows []AdaptiveRow) *metrics.Table {
	tab := metrics.NewTable("Adaptive Remus vs HERE period policies (sec 5.4)",
		"Scenario", "Policy", "MeanPeriod(s)", "Deg", "Latency(ms)")
	for _, r := range rows {
		lat := "-"
		if r.LatencyMS > 0 {
			lat = fmt.Sprintf("%.0f", r.LatencyMS)
		}
		tab.AddRow(r.Scenario, r.Policy, fmt.Sprintf("%.2f", r.MeanPeriod),
			fmt.Sprintf("%.1f%%", r.DegPct), lat)
	}
	return tab
}
