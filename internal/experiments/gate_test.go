package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGate holds the gate's rule against each committed file: its rows
// decoded and encoded again pass, one moved value fails naming the
// file and the field, and a row or key on one side only fails in
// either direction.
func TestGate(t *testing.T) {
	type variant struct {
		name  string
		fresh any
		field string // the field the failure must name; "" for a row or key on one side only
	}
	decode := func(t *testing.T, data []byte, v any) {
		t.Helper()
		if err := json.Unmarshal(data, v); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		file     string
		variants func(t *testing.T, committed []byte) (same any, vs []variant)
	}{
		{"BENCH_wire.json", func(t *testing.T, committed []byte) (any, []variant) {
			var rows, moved []WireBenchRow
			decode(t, committed, &rows)
			decode(t, committed, &moved)
			moved[len(moved)-1].EncodedBytes++
			return rows, []variant{
				{"moved", moved, "encoded_bytes"},
				{"added", append(rows[:len(rows):len(rows)], rows[0]), ""},
			}
		}},
		{"BENCH_trace.json", func(t *testing.T, committed []byte) (any, []variant) {
			var doc TraceBenchResult
			decode(t, committed, &doc)
			moved := doc
			moved.MaxSpanGapPct *= 1.0001
			added := struct {
				TraceBenchResult
				NsPerEvent float64 `json:"ns_per_event"`
			}{doc, 50}
			return doc, []variant{
				{"moved", moved, "max_span_gap_pct"},
				{"added", added, ""},
			}
		}},
		{"BENCH_recovery.json", func(t *testing.T, committed []byte) (any, []variant) {
			var rows, moved []RecoveryBenchRow
			decode(t, committed, &rows)
			decode(t, committed, &moved)
			moved[0].PagesResent--
			return rows, []variant{
				{"moved", moved, "pages_resent"},
				{"added", append(rows[:len(rows):len(rows)], rows[1]), ""},
			}
		}},
	} {
		t.Run(tc.file, func(t *testing.T) {
			committed, err := os.ReadFile(filepath.Join("..", "..", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			same, variants := tc.variants(t, committed)
			encode := func(v any) []byte {
				t.Helper()
				data, err := BenchJSON(v)
				if err != nil {
					t.Fatal(err)
				}
				return data
			}
			if err := GateDiff(tc.file, committed, encode(same)); err != nil {
				t.Fatalf("the committed rows, decoded and encoded again: %v", err)
			}
			for _, v := range variants {
				fresh := encode(v.fresh)
				for _, dir := range []struct {
					name             string
					committed, fresh []byte
				}{{"fresh", committed, fresh}, {"committed", fresh, committed}} {
					err := GateDiff(tc.file, dir.committed, dir.fresh)
					if err == nil {
						t.Fatalf("%s on the %s side passed the gate", v.name, dir.name)
					}
					if !strings.Contains(err.Error(), tc.file) || !strings.Contains(err.Error(), v.field) {
						t.Fatalf("%s on the %s side: %v does not name the file and field %q", v.name, dir.name, err, v.field)
					}
				}
			}
		})
	}
}

// wireRows reads the committed BENCH_wire.json and decodes its rows.
func wireRows(t *testing.T) (committed []byte, rows []WireBenchRow) {
	t.Helper()
	committed, err := os.ReadFile(filepath.Join("..", "..", "BENCH_wire.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(committed, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) < 2 {
		t.Fatalf("BENCH_wire.json holds %d rows, want at least 2", len(rows))
	}
	return committed, rows
}

// TestGateWirePassesOnIdenticalRows: the committed wire rows, decoded
// and encoded again, are the committed bytes, so a run that reproduces
// every row passes.
func TestGateWirePassesOnIdenticalRows(t *testing.T) {
	committed, rows := wireRows(t)
	fresh, err := BenchJSON(rows)
	if err != nil {
		t.Fatal(err)
	}
	if err := GateDiff("BENCH_wire.json", committed, fresh); err != nil {
		t.Fatalf("gate failed on identical rows: %v", err)
	}
}

// TestGateWireFailsOnAnyMovedColumn: the rows are deterministic, so
// one more frame, byte or microsecond of virtual pause — in either
// direction — fails the gate and names the file and the column.
func TestGateWireFailsOnAnyMovedColumn(t *testing.T) {
	for name, move := range map[string]func(*WireBenchRow){
		"checkpoints":   func(r *WireBenchRow) { r.Checkpoints++ },
		"raw_bytes":     func(r *WireBenchRow) { r.RawBytes-- },
		"encoded_bytes": func(r *WireBenchRow) { r.EncodedBytes-- },
		"ratio":         func(r *WireBenchRow) { r.Ratio += 1e-6 },
		"zero_pages":    func(r *WireBenchRow) { r.ZeroPages++ },
		"delta_frames":  func(r *WireBenchRow) { r.DeltaFrames-- },
		"raw_frames":    func(r *WireBenchRow) { r.RawFrames++ },
		"pause_p50_ms":  func(r *WireBenchRow) { r.PauseP50ms -= 0.001 },
		"pause_p99_ms":  func(r *WireBenchRow) { r.PauseP99ms += 0.001 },
	} {
		committed, rows := wireRows(t)
		move(&rows[1])
		fresh, err := BenchJSON(rows)
		if err != nil {
			t.Fatal(err)
		}
		err = GateDiff("BENCH_wire.json", committed, fresh)
		if err == nil {
			t.Fatalf("%s moved: the gate passed", name)
		}
		if !strings.Contains(err.Error(), "BENCH_wire.json") || !strings.Contains(err.Error(), `"`+name+`"`) {
			t.Fatalf("%s moved: %v does not name the file and the column", name, err)
		}
	}
}
