package experiments

import (
	"time"

	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/metrics"
	"github.com/here-ft/here/internal/replication"
	"github.com/here-ft/here/internal/wire"
	"github.com/here-ft/here/internal/workload"
	"github.com/here-ft/here/internal/ycsb"
)

// WireBenchRow is one wire-codec measurement: a workload replicated
// with the codec in raw or content-aware mode, reporting what the link
// actually carried during steady-state checkpoints (seeding excluded).
// It is one row of the committed BENCH_wire.json. Every column is
// deterministic — bytes, frames and virtual-clock pauses; what the
// encoder costs in host wall time is bench/'s
// wire.encode_*_ns_per_page.
type WireBenchRow struct {
	Workload     string `json:"workload"`
	Codec        string `json:"codec"` // "raw" or "content-aware"
	Checkpoints  int64  `json:"checkpoints"`
	RawBytes     int64  `json:"raw_bytes"`
	EncodedBytes int64  `json:"encoded_bytes"`
	// Ratio is measured EncodedBytes/RawBytes — the number that
	// replaced the old flat CompressionRatio constant.
	Ratio       float64 `json:"ratio"`
	ZeroPages   int64   `json:"zero_pages"`
	DeltaFrames int64   `json:"delta_frames"`
	RawFrames   int64   `json:"raw_frames"`
	// PauseP50ms and PauseP99ms are the modeled (virtual-clock) pause
	// percentiles in milliseconds, at microsecond resolution.
	PauseP50ms float64 `json:"pause_p50_ms"`
	PauseP99ms float64 `json:"pause_p99_ms"`
}

// WireBench measures the checkpoint wire codec across workloads and
// both encoder modes on the paper's heterogeneous pair. The idle guest
// is the headline case: its checkpoints are all zero-elided or
// delta'd, so encoded bytes collapse to frame overhead.
func WireBench(scale Scale) ([]WireBenchRow, error) {
	workloads := []struct {
		name  string
		build func(vm *hypervisor.VM) (workload.Workload, error)
	}{
		{"idle", func(*hypervisor.VM) (workload.Workload, error) { return nil, nil }},
		{"membench", func(*hypervisor.VM) (workload.Workload, error) {
			return workload.NewMemoryBench(30, scale.WriteRatePages, scale.Seed)
		}},
		{"ycsb-a", func(vm *hypervisor.VM) (workload.Workload, error) {
			return loadedYCSB(vm, ycsb.WorkloadA, scale)
		}},
	}
	var rows []WireBenchRow
	for _, wl := range workloads {
		for _, aware := range []bool{false, true} {
			row, err := runWireBench(scale, wl.name, aware, wl.build)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// runWireBench replicates one workload for the scale's window and
// reports the codec's steady-state measurements.
func runWireBench(scale Scale, name string, aware bool,
	build func(vm *hypervisor.VM) (workload.Workload, error)) (WireBenchRow, error) {

	var row WireBenchRow
	pair, err := NewHeterogeneousPair()
	if err != nil {
		return row, err
	}
	vm, err := pair.ProtectedVM("wire-"+name, GB(scale.LoadedGB), 4)
	if err != nil {
		return row, err
	}
	w, err := build(vm)
	if err != nil {
		return row, err
	}
	rep, err := newReplicator(vm, pair, replication.Config{
		Engine:      replication.EngineHERE,
		Period:      time.Second,
		Workload:    w,
		Compression: aware,
	})
	if err != nil {
		return row, err
	}
	if _, err := rep.Seed(); err != nil {
		return row, err
	}
	seeded := rep.Totals().Wire
	stats, err := rep.RunFor(secs(scale.RunSeconds))
	if err != nil {
		return row, err
	}
	var pauses metrics.Summary
	for _, st := range stats {
		pauses.AddDuration(st.Pause)
	}
	total := rep.Totals()
	ckpt := wire.Stats{
		RawBytes:     total.Wire.RawBytes - seeded.RawBytes,
		EncodedBytes: total.Wire.EncodedBytes - seeded.EncodedBytes,
		ZeroPages:    total.Wire.ZeroPages - seeded.ZeroPages,
		DeltaFrames:  total.Wire.DeltaFrames - seeded.DeltaFrames,
		RawFrames:    total.Wire.RawFrames - seeded.RawFrames,
	}
	codec := "raw"
	if aware {
		codec = "content-aware"
	}
	return WireBenchRow{
		Workload:     name,
		Codec:        codec,
		Checkpoints:  int64(total.Checkpoints),
		RawBytes:     ckpt.RawBytes,
		EncodedBytes: ckpt.EncodedBytes,
		Ratio:        ckpt.Ratio(),
		ZeroPages:    ckpt.ZeroPages,
		DeltaFrames:  ckpt.DeltaFrames,
		RawFrames:    ckpt.RawFrames,
		PauseP50ms:   millis(time.Duration(pauses.Percentile(50) * float64(time.Second))),
		PauseP99ms:   millis(time.Duration(pauses.Percentile(99) * float64(time.Second))),
	}, nil
}

// RenderWireBench formats the codec measurements.
func RenderWireBench(rows []WireBenchRow) *metrics.Table {
	tab := metrics.NewTable("Wire codec: measured bytes on the link per workload",
		"Workload", "Codec", "Raw(MB)", "Wire(MB)", "Ratio",
		"ZeroPg", "Delta", "RawFr", "PauseP50(ms)", "PauseP99(ms)")
	for _, r := range rows {
		tab.AddRow(r.Workload, r.Codec,
			float64(r.RawBytes)/(1<<20), float64(r.EncodedBytes)/(1<<20),
			r.Ratio, r.ZeroPages, r.DeltaFrames, r.RawFrames,
			r.PauseP50ms, r.PauseP99ms)
	}
	return tab
}
