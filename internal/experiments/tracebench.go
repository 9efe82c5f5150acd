package experiments

import (
	"fmt"
	"time"

	"github.com/here-ft/here/internal/metrics"
	"github.com/here-ft/here/internal/replication"
	"github.com/here-ft/here/internal/trace"
	"github.com/here-ft/here/internal/workload"
)

// TraceBenchResult reports the fidelity of the trace one replication
// run produced: how many events it recorded and lost, and how closely
// the recorded stage spans account for each epoch's checkpoint pause.
// It is the committed BENCH_trace.json. Every field is virtual — what
// a recorded event costs in host time is BenchmarkTracerRecord's and
// bench/'s trace.overhead_ratio.
type TraceBenchResult struct {
	// Checkpoints and Events describe the traced run.
	Checkpoints int64 `json:"checkpoints"`
	Events      int   `json:"events"`
	Dropped     int64 `json:"dropped"`
	Epochs      int   `json:"epochs"`
	// MaxSpanGapPct is the largest per-epoch relative gap between the
	// summed scan+encode+transfer+ack spans and the epoch's recorded
	// pause. Under the virtual clock the stages partition the pause
	// exactly, so this should be ~0.
	MaxSpanGapPct float64 `json:"max_span_gap_pct"`
}

// TraceBench replicates a loaded VM on the paper's heterogeneous pair
// for the scale's window with the tracer on, and checks the span
// accounting of the trace it recorded.
func TraceBench(scale Scale) (TraceBenchResult, error) {
	var res TraceBenchResult
	pair, err := NewHeterogeneousPair()
	if err != nil {
		return res, err
	}
	vm, err := pair.ProtectedVM("tracebench", GB(1), 4)
	if err != nil {
		return res, err
	}
	w, err := workload.NewMemoryBench(30, scale.WriteRatePages, scale.Seed)
	if err != nil {
		return res, err
	}
	tr := trace.New(pair.Clock, 0)
	rep, err := replication.New(vm, pair.Secondary, replication.Config{
		Engine:    replication.EngineHERE,
		Transport: pair.Link,
		Period:    time.Second,
		Workload:  w,
		Tracer:    tr,
	})
	if err != nil {
		return res, err
	}
	if _, err := rep.Seed(); err != nil {
		return res, err
	}
	if _, err := rep.RunFor(secs(scale.RunSeconds)); err != nil {
		return res, err
	}
	events := tr.Events()
	res.Checkpoints = int64(rep.Totals().Checkpoints)
	res.Events = len(events)
	res.Dropped = int64(tr.Dropped())
	res.MaxSpanGapPct, res.Epochs = spanGap(events)
	return res, nil
}

// spanGap reassembles the per-epoch stage attribution and returns the
// largest relative gap (percent) between the summed lifecycle stages
// and the recorded pause, plus the number of epochs checked.
func spanGap(events []trace.Event) (float64, int) {
	breakdown := trace.EpochBreakdown(events)
	var worst float64
	n := 0
	for _, ep := range breakdown {
		if ep.Pause <= 0 {
			continue
		}
		n++
		gap := ep.StageSum() - ep.Pause
		if gap < 0 {
			gap = -gap
		}
		if pct := 100 * float64(gap) / float64(ep.Pause); pct > worst {
			worst = pct
		}
	}
	return worst, n
}

// RenderTraceBench formats the traced run's span accounting.
func RenderTraceBench(r TraceBenchResult) string {
	tab := metrics.NewTable("Tracing: events and span accounting of one traced run",
		"Ckpts", "Events", "Dropped", "Epochs", "MaxSpanGap")
	tab.AddRow(r.Checkpoints, r.Events, r.Dropped, r.Epochs,
		fmt.Sprintf("%.3f%%", r.MaxSpanGapPct))
	return tab.String()
}
