package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"github.com/here-ft/here/bench/harness"
)

// gate is the direction and regression bound of one end-to-end metric.
// BENCHMARK.json carries the same table for the acceptance driver; a
// test keeps the two equal.
type gate struct {
	name   string
	higher bool    // higher is better
	bound  float64 // share of the baseline median the metric may worsen by
}

// The issue that specified the benchmark asked for 0.10 on every
// timing. A bound can only be as tight as the runs repeat: the
// acceptance driver refuses a benchmark whose ten-seed spread reaches
// the bound, asks for a third of it and caps it at 0.25, and on the
// shared 2-vCPU box this was written on a whole process runs up to 8 %
// faster or slower than the next, on every metric at once (README, "On
// the bounds"). Beside each bound is the widest inter-quartile spread,
// as a share of the median, in four sets of ten seeds per workload. A
// timing keeps 0.10 where that is about a third of it; the others take
// the ceiling.
var gates = []gate{
	{"setup_s", false, 0.25},              // 12.8 %
	{"round_ms_p50", false, 0.25},         // 7.4 %
	{"ckpt_per_s", true, 0.25},            // 8.1 %
	{"wire_bytes_per_page", false, 0.001}, // 0.0003 %: exact for a seed
	{"cpu_ms_per_round", false, 0.25},     // 7.9 %
	{"status_us_p50", false, 0.10},        // 3.4 %
	{"list_ms_p50", false, 0.25},          // 10.3 %
	{"protect_ms_p50", false, 0.25},       // 12.1 %
	{"failover_ms_p50", false, 0.25},      // 12.7 %
	{"recover_ms_p50", false, 0.25},       // 7.6 %
	{"live_heap_mb", false, 0.02},         // 0.001 %
}

// readSet reads a file of runs, one JSON result per line, and groups
// the end-to-end values by workload and metric.
func readSet(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r Result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Traced || r.Smoke {
			continue // no end-to-end numbers to compare
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s:%d: run of %s was not correct", path, line, r.Workload)
		}
		if set[r.Workload] == nil {
			set[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.EndToEnd {
			set[r.Workload][name] = append(set[r.Workload][name], m.Value)
		}
	}
	return set, sc.Err()
}

// verdict applies one gate to the two sides' runs: "unresolved" when
// either side's own spread exceeds the bound (the runs cannot tell a
// change of that size from noise), "worse" when B's median is worse
// than A's by more than the bound, "same" otherwise.
func verdict(g gate, a, b []float64) (string, float64) {
	ma, mb := harness.Median(a), harness.Median(b)
	change := (mb - ma) / ma // > 0 means B is larger
	if g.higher {
		change = -change
	}
	if harness.Spread(a) > g.bound || harness.Spread(b) > g.bound {
		return "unresolved", change
	}
	if change > g.bound {
		return "worse", change
	}
	return "same", change
}

// compareSets prints one row per workload x end-to-end metric and
// fails if any row is worse.
func compareSets(w io.Writer, pathA, pathB string) error {
	a, err := readSet(pathA)
	if err != nil {
		return err
	}
	b, err := readSet(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-12s %-20s %4s %12s %8s %4s %12s %8s %8s %7s  %s\n",
		"workload", "metric", "nA", "medianA", "spreadA", "nB", "medianB", "spreadB", "worse-by", "bound", "verdict")
	worse := 0
	for _, wl := range workloads {
		for _, g := range gates {
			va, vb := a[wl.Name][g.name], b[wl.Name][g.name]
			if len(va) == 0 && len(vb) == 0 {
				continue // neither set ran this workload
			}
			if len(va) == 0 || len(vb) == 0 {
				return fmt.Errorf("%s/%s: missing from one set", wl.Name, g.name)
			}
			v, change := verdict(g, va, vb)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(w, "%-12s %-20s %4d %12.4f %7.2f%% %4d %12.4f %7.2f%% %+7.2f%% %6.1f%%  %s\n",
				wl.Name, g.name, len(va), harness.Median(va), 100*harness.Spread(va),
				len(vb), harness.Median(vb), 100*harness.Spread(vb), 100*change, 100*g.bound, v)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d workload x metric rows are worse than their bound", worse)
	}
	return nil
}
