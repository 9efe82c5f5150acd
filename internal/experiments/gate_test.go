package experiments

import (
	"strings"
	"testing"
)

// wireRows is a two-row baseline with every gated column non-zero.
func wireRows() []WireJSONRow {
	return []WireJSONRow{
		{Workload: "idle", Codec: "raw", Checkpoints: 25, RawBytes: 45075, EncodedBytes: 46375,
			Ratio: 1.0288, PauseP50ms: 1.921, PauseP99ms: 1.921},
		{Workload: "ycsb-a", Codec: "content-aware", Checkpoints: 18, RawBytes: 30424121030,
			EncodedBytes: 34547130, Ratio: 0.0011, ZeroPages: 7413774, DeltaFrames: 13982,
			RawFrames: 7, PauseP50ms: 418.877, PauseP99ms: 419.886},
	}
}

func TestGateWirePassesOnIdenticalRows(t *testing.T) {
	g := GateWire(wireRows(), wireRows())
	if !g.OK() {
		t.Fatalf("gate failed on identical rows: %v", g.Failures)
	}
	if len(g.Checks) != 2 {
		t.Fatalf("expected 2 checks, got %v", g.Checks)
	}
}

// TestGateWireFailsOnAnyMovedColumn: the rows are deterministic, so
// one more frame, byte or microsecond of virtual pause — in either
// direction — fails the gate and names the row.
func TestGateWireFailsOnAnyMovedColumn(t *testing.T) {
	for name, move := range map[string]func(*WireJSONRow){
		"checkpoints":   func(r *WireJSONRow) { r.Checkpoints++ },
		"raw_bytes":     func(r *WireJSONRow) { r.RawBytes-- },
		"encoded_bytes": func(r *WireJSONRow) { r.EncodedBytes-- },
		"zero_pages":    func(r *WireJSONRow) { r.ZeroPages++ },
		"delta_frames":  func(r *WireJSONRow) { r.DeltaFrames-- },
		"raw_frames":    func(r *WireJSONRow) { r.RawFrames++ },
		"pause_p50_ms":  func(r *WireJSONRow) { r.PauseP50ms -= 0.001 },
		"pause_p99_ms":  func(r *WireJSONRow) { r.PauseP99ms += 0.001 },
	} {
		fresh := wireRows()
		move(&fresh[1])
		g := GateWire(wireRows(), fresh)
		if g.OK() || len(g.Failures) != 1 {
			t.Fatalf("%s moved: gate result %+v, want one failure", name, g)
		}
		if !strings.Contains(g.Failures[0], "ycsb-a/content-aware") {
			t.Fatalf("failure does not name the row: %v", g.Failures)
		}
	}
}

func TestGateWireSkipsUnknownRows(t *testing.T) {
	fresh := wireRows()
	fresh[0].Workload, fresh[0].RawBytes = "new-workload", 9999
	g := GateWire(wireRows(), fresh)
	if !g.OK() {
		t.Fatalf("unmatched row treated as a regression: %v", g.Failures)
	}
	if !strings.Contains(g.Checks[0], "no baseline row") {
		t.Fatalf("skip not reported: %v", g.Checks)
	}
}

func TestGateTrace(t *testing.T) {
	base := TraceJSONDoc{NsPerEvent: 100, OverheadPct: 1.0}

	ok := GateTrace(base, TraceJSONDoc{NsPerEvent: 110, OverheadPct: 1.2}, 0.25, 3.0)
	if !ok.OK() {
		t.Fatalf("gate failed inside tolerance: %v", ok.Failures)
	}

	// 2x ns/event regression.
	slow := GateTrace(base, TraceJSONDoc{NsPerEvent: 200, OverheadPct: 1.2}, 0.25, 3.0)
	if slow.OK() {
		t.Fatal("gate passed a 2x ns/event regression")
	}

	// Overhead beyond the bound with a steady ns/event is wall-clock
	// noise, not a tracing regression — reported, not gated.
	noisy := GateTrace(base, TraceJSONDoc{NsPerEvent: 100, OverheadPct: 8.0}, 0.25, 3.0)
	if !noisy.OK() {
		t.Fatalf("uncorroborated overhead noise gated: %v", noisy.Failures)
	}

	// Overhead beyond the bound AND a regressed ns/event is a real
	// tracing tax.
	heavy := GateTrace(base, TraceJSONDoc{NsPerEvent: 250, OverheadPct: 4.5}, 0.25, 3.0)
	if heavy.OK() || len(heavy.Failures) != 2 {
		t.Fatalf("corroborated overhead regression not gated: %+v", heavy)
	}

	// A committed baseline that itself violates the paper's bound must
	// fail until it is re-measured.
	badBase := GateTrace(TraceJSONDoc{NsPerEvent: 100, OverheadPct: 5.0},
		TraceJSONDoc{NsPerEvent: 100, OverheadPct: 1.0}, 0.25, 3.0)
	if badBase.OK() {
		t.Fatal("gate passed a baseline violating the overhead bound")
	}
}
