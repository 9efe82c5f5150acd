package experiments

import (
	"fmt"
	"time"

	"github.com/here-ft/here/internal/colo"
	"github.com/here-ft/here/internal/metrics"
	"github.com/here-ft/here/internal/period"
	"github.com/here-ft/here/internal/replication"
	"github.com/here-ft/here/internal/workload"
)

// COLORow is one replication-model measurement.
type COLORow struct {
	Model       string
	Pair        string // "Xen->Xen" or "Xen->KVM"
	DegPct      float64
	LatencyMS   float64 // mean output release latency
	SyncsPerSec float64 // forced synchronizations (LSR only)
}

// COLOComparison quantifies the paper's §3.1 design argument: COLO-
// style lock-stepping (LSR) beats asynchronous replication on latency
// and overhead when both sides run identical device models, but
// collapses across heterogeneous hypervisors, where outputs diverge
// structurally — which is why HERE is built on ASR.
func COLOComparison(scale Scale) ([]COLORow, error) {
	const outputRate = 100 // packets/sec fed to the comparator

	var out []COLORow
	for _, hetero := range []bool{false, true} {
		pairName := "Xen->Xen"
		var pair *Pair
		var err error
		if hetero {
			pairName = "Xen->KVM"
			pair, err = NewHeterogeneousPair()
		} else {
			pair, err = NewHomogeneousPair()
		}
		if err != nil {
			return nil, err
		}
		vm, err := pair.ProtectedVM("colo", GB(scale.LoadedGB), 4)
		if err != nil {
			return nil, err
		}
		w, err := workload.NewMemoryBench(20, scale.WriteRatePages/2, scale.Seed)
		if err != nil {
			return nil, err
		}
		lsr, err := colo.New(vm, pair.Secondary, colo.Config{
			Link: pair.Link, Workload: w, OutputRate: outputRate, Seed: scale.Seed,
		})
		if err != nil {
			return nil, err
		}
		st, err := lsr.RunFor(secs(scale.RunSeconds))
		if err != nil {
			return nil, err
		}
		out = append(out, COLORow{
			Model:       "COLO (lock-stepping)",
			Pair:        pairName,
			DegPct:      st.DegradationPct,
			LatencyMS:   st.MeanOutputLatMS,
			SyncsPerSec: float64(st.Divergences) / st.Elapsed.Seconds(),
		})
	}

	// HERE's ASR on the heterogeneous pair, for reference, with the
	// same output rate through the epoch buffer.
	pair, err := NewHeterogeneousPair()
	if err != nil {
		return nil, err
	}
	vm, err := pair.ProtectedVM("colo-asr", GB(scale.LoadedGB), 4)
	if err != nil {
		return nil, err
	}
	pm, err := period.New(period.Config{D: 0.3, Tmax: 5 * time.Second, Sigma: scale.DynSigma})
	if err != nil {
		return nil, err
	}
	w, err := workload.NewMemoryBench(20, scale.WriteRatePages/2, scale.Seed)
	if err != nil {
		return nil, err
	}
	rep, err := newReplicator(vm, pair, replication.Config{
		Engine:        replication.EngineHERE,
		PeriodManager: pm,
		Workload:      w,
	})
	if err != nil {
		return nil, err
	}
	if _, err := rep.Seed(); err != nil {
		return nil, err
	}
	if _, err := rep.RunFor(secs(scale.RunSeconds)); err != nil { // warm-up
		return nil, err
	}
	before := rep.Totals()
	stats, err := rep.RunFor(secs(scale.RunSeconds))
	if err != nil {
		return nil, err
	}
	after := rep.Totals()
	pause := after.TotalPause - before.TotalPause
	run := after.TotalRun - before.TotalRun
	var meanT time.Duration
	for _, st := range stats {
		meanT += st.RunPeriod
	}
	meanT /= time.Duration(len(stats))
	out = append(out, COLORow{
		Model:     "HERE (async)",
		Pair:      "Xen->KVM",
		DegPct:    100 * float64(pause) / float64(pause+run),
		LatencyMS: float64(meanT/2+pause/time.Duration(len(stats))) / float64(time.Millisecond),
	})
	return out, nil
}

// RenderCOLO formats the comparison.
func RenderCOLO(rows []COLORow) *metrics.Table {
	tab := metrics.NewTable("COLO lock-stepping vs HERE async replication (sec 3.1)",
		"Model", "Pair", "Deg", "OutputLat(ms)", "Syncs/s")
	for _, r := range rows {
		tab.AddRow(r.Model, r.Pair, fmt.Sprintf("%.1f%%", r.DegPct),
			r.LatencyMS, fmt.Sprintf("%.1f", r.SyncsPerSec))
	}
	return tab
}
