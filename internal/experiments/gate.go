package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// WireJSONRow is the machine-readable form of one WireBenchRow — the
// schema of BENCH_wire.json, shared by the writer (here-bench) and the
// regression gate.
type WireJSONRow struct {
	Workload     string  `json:"workload"`
	Codec        string  `json:"codec"`
	Checkpoints  int64   `json:"checkpoints"`
	RawBytes     int64   `json:"raw_bytes"`
	EncodedBytes int64   `json:"encoded_bytes"`
	Ratio        float64 `json:"ratio"`
	ZeroPages    int64   `json:"zero_pages"`
	DeltaFrames  int64   `json:"delta_frames"`
	RawFrames    int64   `json:"raw_frames"`
	PauseP50ms   float64 `json:"pause_p50_ms"`
	PauseP99ms   float64 `json:"pause_p99_ms"`
}

// TraceJSONDoc is the machine-readable form of a TraceBenchResult —
// the schema of BENCH_trace.json.
type TraceJSONDoc struct {
	Checkpoints    int64   `json:"checkpoints"`
	Events         int     `json:"events"`
	Dropped        int64   `json:"dropped"`
	Epochs         int     `json:"epochs"`
	NsPerEvent     float64 `json:"ns_per_event"`
	RecordSamples  int     `json:"record_samples"`
	TracedMillis   float64 `json:"traced_ms"`
	UntracedMillis float64 `json:"untraced_ms"`
	OverheadPct    float64 `json:"overhead_pct"`
	MaxSpanGapPct  float64 `json:"max_span_gap_pct"`
}

// FleetJSONRow is the machine-readable form of one FleetBenchRow —
// the schema of BENCH_fleet.json.
type FleetJSONRow struct {
	Protections int     `json:"protections"`
	Groups      int     `json:"groups"`
	TickP50ms   float64 `json:"tick_p50_ms"`
	TickP99ms   float64 `json:"tick_p99_ms"`
	StatusP50us float64 `json:"status_p50_us"`
	StatusP99us float64 `json:"status_p99_us"`
	ListP50ms   float64 `json:"list_p50_ms"`
	ListP99ms   float64 `json:"list_p99_ms"`
	ProtectMs   float64 `json:"protect_ms"`
}

// RecoveryJSONRow is the machine-readable form of one RecoveryBenchRow
// — the schema of BENCH_recovery.json.
type RecoveryJSONRow struct {
	Strategy         string  `json:"strategy"`
	RecoveryMS       float64 `json:"recovery_ms"`
	Ticks            int     `json:"ticks"`
	EpochsRolledBack uint64  `json:"epochs_rolled_back"`
	PagesResent      int64   `json:"pages_resent"`
	Attempts         int64   `json:"attempts"`
	InPlace          int64   `json:"inplace"`
	Escalations      int64   `json:"escalations"`
	Generation       int     `json:"generation"`
}

// WireRowsJSON converts bench rows to their exported JSON schema.
func WireRowsJSON(rows []WireBenchRow) []WireJSONRow {
	out := make([]WireJSONRow, 0, len(rows))
	for _, r := range rows {
		codec := "raw"
		if r.ContentAware {
			codec = "content-aware"
		}
		out = append(out, WireJSONRow{
			Workload:     r.Workload,
			Codec:        codec,
			Checkpoints:  r.Checkpoints,
			RawBytes:     r.RawBytes,
			EncodedBytes: r.EncodedBytes,
			Ratio:        r.Ratio,
			ZeroPages:    r.ZeroPages,
			DeltaFrames:  r.DeltaFrames,
			RawFrames:    r.RawFrames,
			PauseP50ms:   float64(r.PauseP50.Microseconds()) / 1e3,
			PauseP99ms:   float64(r.PauseP99.Microseconds()) / 1e3,
		})
	}
	return out
}

// TraceResultJSON converts a trace-bench result to its exported JSON
// schema.
func TraceResultJSON(res TraceBenchResult) TraceJSONDoc {
	return TraceJSONDoc{
		Checkpoints:    res.Checkpoints,
		Events:         res.Events,
		Dropped:        res.Dropped,
		Epochs:         res.Epochs,
		NsPerEvent:     res.NsPerEvent,
		RecordSamples:  res.RecordSamples,
		TracedMillis:   res.TracedMillis,
		UntracedMillis: res.UntracedMillis,
		OverheadPct:    res.OverheadPct,
		MaxSpanGapPct:  res.MaxSpanGapPct,
	}
}

// LoadWireBaseline reads a committed BENCH_wire.json.
func LoadWireBaseline(path string) ([]WireJSONRow, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rows []WireJSONRow
	if err := json.Unmarshal(data, &rows); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rows, nil
}

// FleetRowsJSON converts fleet-bench rows to their exported JSON
// schema.
func FleetRowsJSON(rows []FleetBenchRow) []FleetJSONRow {
	out := make([]FleetJSONRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, FleetJSONRow{
			Protections: r.Protections,
			Groups:      r.Groups,
			TickP50ms:   float64(r.TickP50.Microseconds()) / 1e3,
			TickP99ms:   float64(r.TickP99.Microseconds()) / 1e3,
			StatusP50us: float64(r.StatusP50.Nanoseconds()) / 1e3,
			StatusP99us: float64(r.StatusP99.Nanoseconds()) / 1e3,
			ListP50ms:   float64(r.ListP50.Microseconds()) / 1e3,
			ListP99ms:   float64(r.ListP99.Microseconds()) / 1e3,
			ProtectMs:   r.ProtectMs,
		})
	}
	return out
}

// LoadFleetBaseline reads a committed BENCH_fleet.json.
func LoadFleetBaseline(path string) ([]FleetJSONRow, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rows []FleetJSONRow
	if err := json.Unmarshal(data, &rows); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rows, nil
}

// RecoveryRowsJSON converts recovery-bench rows to their exported
// JSON schema.
func RecoveryRowsJSON(rows []RecoveryBenchRow) []RecoveryJSONRow {
	out := make([]RecoveryJSONRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, RecoveryJSONRow{
			Strategy:         r.Strategy,
			RecoveryMS:       float64(r.RecoverySim.Microseconds()) / 1e3,
			Ticks:            r.Ticks,
			EpochsRolledBack: r.EpochsRolledBack,
			PagesResent:      r.PagesResent,
			Attempts:         r.Attempts,
			InPlace:          r.InPlace,
			Escalations:      r.Escalations,
			Generation:       r.Generation,
		})
	}
	return out
}

// LoadRecoveryBaseline reads a committed BENCH_recovery.json.
func LoadRecoveryBaseline(path string) ([]RecoveryJSONRow, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rows []RecoveryJSONRow
	if err := json.Unmarshal(data, &rows); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rows, nil
}

// LoadTraceBaseline reads a committed BENCH_trace.json.
func LoadTraceBaseline(path string) (TraceJSONDoc, error) {
	var doc TraceJSONDoc
	data, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// GateResult is the outcome of a bench regression gate: every check
// that ran and every failure, human-readable.
type GateResult struct {
	Checks   []string
	Failures []string
}

// OK reports whether the gate passed.
func (g GateResult) OK() bool { return len(g.Failures) == 0 }

// check records one comparison: fresh must not exceed baseline by more
// than tol (a fraction, e.g. 0.25 = +25%). Baselines at or below zero
// are skipped — a degenerate committed row can't anchor a ratio.
func (g *GateResult) check(name string, baseline, fresh, tol float64) {
	if baseline <= 0 {
		g.Checks = append(g.Checks, fmt.Sprintf("%s: skipped (baseline %.3g)", name, baseline))
		return
	}
	limit := baseline * (1 + tol)
	verdict := "ok"
	if fresh > limit {
		verdict = "FAIL"
		g.Failures = append(g.Failures, fmt.Sprintf(
			"%s regressed: %.1f vs baseline %.1f (limit %.1f, +%.0f%%)",
			name, fresh, baseline, limit, 100*(fresh/baseline-1)))
	}
	g.Checks = append(g.Checks, fmt.Sprintf("%s: %.1f vs %.1f (%s)", name, fresh, baseline, verdict))
}

// GateWire compares a fresh wire-bench run against the committed
// baseline. Every column of a row is deterministic — checkpoints, raw
// and encoded bytes, the frame mix, the virtual-clock pause percentiles
// — so a row must equal its committed row exactly, at the same scale
// (BENCH_wire.json is a -quick run); there is no tolerance. A moved
// column means the codec or the pause model changed what it ships:
// regenerate the file with `make bench` if that was the intent. Rows
// present in only one side are skipped (workload set drift).
func GateWire(baseline, fresh []WireJSONRow) GateResult {
	var g GateResult
	base := make(map[string]WireJSONRow, len(baseline))
	for _, r := range baseline {
		base[r.Workload+"/"+r.Codec] = r
	}
	for _, f := range fresh {
		key := f.Workload + "/" + f.Codec
		b, ok := base[key]
		switch {
		case !ok:
			g.Checks = append(g.Checks, fmt.Sprintf("wire %s: skipped (no baseline row)", key))
		case b != f:
			g.Failures = append(g.Failures, fmt.Sprintf("wire %s moved: %+v vs baseline %+v", key, f, b))
			g.Checks = append(g.Checks, fmt.Sprintf("wire %s: differs from the baseline row (FAIL)", key))
		default:
			g.Checks = append(g.Checks, fmt.Sprintf("wire %s: equals the baseline row (ok)", key))
		}
	}
	return g
}

// TickNsPerProtection is the gate's fleet figure of merit: median
// round nanoseconds per protection. Normalising by fleet size makes
// the quick sweep's points comparable with the full one's.
func (r FleetJSONRow) TickNsPerProtection() float64 {
	if r.Protections <= 0 {
		return 0
	}
	return r.TickP50ms * 1e6 / float64(r.Protections)
}

// GateFleet compares a fresh fleet-bench sweep against the committed
// baseline: per (protections, groups) point, median tick ns per
// protection and median status-read latency must stay within tol.
// Medians, not p99s, anchor the gate — the committed p99 columns are
// the scaling evidence, but a shared CI box's tail is too noisy to
// fail builds on. Points present on only one side are skipped (sweep
// drift is not a perf regression).
func GateFleet(baseline, fresh []FleetJSONRow, tol float64) GateResult {
	var g GateResult
	base := make(map[string]FleetJSONRow, len(baseline))
	for _, r := range baseline {
		base[fmt.Sprintf("%d/%d", r.Protections, r.Groups)] = r
	}
	for _, f := range fresh {
		key := fmt.Sprintf("%d/%d", f.Protections, f.Groups)
		b, ok := base[key]
		if !ok {
			g.Checks = append(g.Checks, fmt.Sprintf("fleet %s: skipped (no baseline row)", key))
			continue
		}
		g.check("fleet "+key+" tick ns/protection", b.TickNsPerProtection(), f.TickNsPerProtection(), tol)
		g.check("fleet "+key+" status p50 µs", b.StatusP50us, f.StatusP50us, tol)
	}
	return g
}

// GateRecovery compares a fresh recovery-bench run against the
// committed baseline and enforces the bench's structural claims. Per
// strategy, recovery time and pages re-sent must stay within tol of
// the baseline (the scenario is simulated-time deterministic, so these
// are stable figures). Across strategies, the in-place row must
// actually beat the failover row on both recovery latency and pages
// re-shipped, keep its fencing generation, and never escalate — if the
// microreboot path stops winning, the tentpole claim is broken
// regardless of how either row moved against its baseline.
func GateRecovery(baseline, fresh []RecoveryJSONRow, tol float64) GateResult {
	var g GateResult
	byStrategy := func(rows []RecoveryJSONRow) map[string]RecoveryJSONRow {
		m := make(map[string]RecoveryJSONRow, len(rows))
		for _, r := range rows {
			m[r.Strategy] = r
		}
		return m
	}
	base, cur := byStrategy(baseline), byStrategy(fresh)
	for _, strategy := range []string{"in-place", "failover"} {
		f, ok := cur[strategy]
		if !ok {
			g.Failures = append(g.Failures, fmt.Sprintf("recovery bench: missing %q row", strategy))
			continue
		}
		b, ok := base[strategy]
		if !ok {
			g.Checks = append(g.Checks, fmt.Sprintf("recovery %s: skipped (no baseline row)", strategy))
			continue
		}
		g.check("recovery "+strategy+" ms", b.RecoveryMS, f.RecoveryMS, tol)
		g.check("recovery "+strategy+" pages resent", float64(b.PagesResent), float64(f.PagesResent), tol)
	}
	ip, okIP := cur["in-place"]
	fo, okFO := cur["failover"]
	if okIP && okFO {
		claim := func(name string, holds bool) {
			verdict := "ok"
			if !holds {
				verdict = "FAIL"
				g.Failures = append(g.Failures, "recovery claim broken: "+name)
			}
			g.Checks = append(g.Checks, fmt.Sprintf("recovery claim %s (%s)", name, verdict))
		}
		claim(fmt.Sprintf("in-place faster (%.1f ms vs %.1f ms)", ip.RecoveryMS, fo.RecoveryMS),
			ip.RecoveryMS < fo.RecoveryMS)
		claim(fmt.Sprintf("in-place ships fewer pages (%d vs %d)", ip.PagesResent, fo.PagesResent),
			ip.PagesResent < fo.PagesResent)
		claim("in-place keeps generation 0", ip.Generation == 0)
		claim("failover bumps generation", fo.Generation > 0)
		claim("in-place never escalated", ip.Escalations == 0)
		claim("in-place recovered in place", ip.InPlace >= 1)
	}
	return g
}

// GateTrace compares a fresh trace-bench run against the committed
// baseline. The per-event record cost (a direct microbenchmark) must
// stay within tol, and the committed baseline must honor the absolute
// traced-overhead bound the paper claims (<maxOverheadPct). The fresh
// run's end-to-end overhead is a 5-second wall-clock difference and
// swings by ±10 points with machine load, so exceeding the bound only
// fails the gate when the ns/event microbenchmark regressed too — a
// real tracing tax shows up in both, noise in just one.
func GateTrace(baseline, fresh TraceJSONDoc, tol, maxOverheadPct float64) GateResult {
	var g GateResult
	if baseline.OverheadPct >= maxOverheadPct {
		g.Failures = append(g.Failures, fmt.Sprintf(
			"committed baseline overhead %.2f%% violates the %.0f%% bound — re-run `make bench` on a quiet machine",
			baseline.OverheadPct, maxOverheadPct))
	}
	g.check("trace ns/event", baseline.NsPerEvent, fresh.NsPerEvent, tol)
	nsRegressed := len(g.Failures) > 0 && strings.Contains(g.Failures[len(g.Failures)-1], "ns/event")
	verdict := "ok"
	switch {
	case fresh.OverheadPct >= maxOverheadPct && nsRegressed:
		verdict = "FAIL"
		g.Failures = append(g.Failures, fmt.Sprintf(
			"trace overhead %.2f%% exceeds the %.0f%% bound (corroborated by the ns/event regression)",
			fresh.OverheadPct, maxOverheadPct))
	case fresh.OverheadPct >= maxOverheadPct:
		verdict = "noisy, ns/event steady — not gated"
	}
	g.Checks = append(g.Checks, fmt.Sprintf("trace overhead: %.2f%% (bound %.0f%%) (%s)",
		fresh.OverheadPct, maxOverheadPct, verdict))
	return g
}
