package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
)

// Metric is one measured number. Every number this benchmark reports
// is wall time (or a count) of the Go code; none is virtual time.
type Metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Clock   string  `json:"clock"`
	Samples int     `json:"samples,omitempty"`
}

// Header records where and on what a run was taken.
type Header struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GitSHA     string `json:"git_sha"`
	StateFS    string `json:"state_dir_fs"`
	Loop       string `json:"loop"`
}

// Result is one run of one workload.
type Result struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`
	Smoke    bool    `json:"smoke"`
	Header   Header  `json:"header"`

	Correct      bool     `json:"correct"`
	OpsAttempted int      `json:"ops_attempted"`
	OpsFailed    int      `json:"ops_failed"`
	Errors       []string `json:"errors,omitempty"`
	// Warnings do not fail the run: a traced run whose tick attribution
	// is not what the workload was chosen for says so here.
	Warnings []string `json:"warnings,omitempty"`

	// EndToEnd comes from a pass with probes off; PerLayer from the
	// traced pass (and is empty in an untraced run).
	EndToEnd map[string]Metric `json:"end_to_end,omitempty"`
	PerLayer map[string]Metric `json:"per_layer,omitempty"`
	// Inputs are the counts that must repeat exactly for a seed.
	Inputs map[string]float64 `json:"inputs"`
	// PhaseSeconds is how long each phase ran.
	PhaseSeconds map[string]float64 `json:"phase_seconds"`
	// Extra holds what is measured but not in BENCHMARK.json, because a
	// run of the default length cannot produce it: fleet.round_ms_p99.
	Extra map[string]Metric `json:"extra,omitempty"`
	// TickShares attributes the traced run's fleet.tick to layers.
	TickShares map[string]float64 `json:"tick_shares,omitempty"`
}

func (r *Result) e2e(name string, v float64, unit string, n int) {
	r.EndToEnd[name] = Metric{Value: v, Unit: unit, Clock: "wall", Samples: n}
}

func (r *Result) layer(name string, v float64, unit string, n int) {
	r.PerLayer[name] = Metric{Value: v, Unit: unit, Clock: "wall", Samples: n}
}

func newHeader(stateDir string) Header {
	h := Header{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GitSHA:     "unknown",
		StateFS:    fsName(stateDir),
		Loop:       "closed, 1 client, no think time",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.GitSHA = s.Value
			}
		}
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsName names the filesystem holding dir: journal fsync cost depends
// on it, so a run records it.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// print writes every metric by name with its unit.
func (r *Result) print(w io.Writer) {
	fmt.Fprintf(w, "== %s  seed=%d seconds=%g traced=%v smoke=%v\n", r.Workload, r.Seed, r.Seconds, r.Traced, r.Smoke)
	h := r.Header
	fmt.Fprintf(w, "   %s GOMAXPROCS=%d nproc=%d cpu=%q git=%s state-fs=%s clock=wall loop=%q\n",
		h.GoVersion, h.GOMAXPROCS, h.NumCPU, h.CPUModel, h.GitSHA, h.StateFS, h.Loop)
	printMetrics(w, "end-to-end", r.EndToEnd)
	printMetrics(w, "per-layer", r.PerLayer)
	printMetrics(w, "not in BENCHMARK.json", r.Extra)
	printFloats(w, "share of fleet.tick (traced run)", r.TickShares, "%8.3f")
	printFloats(w, "inputs", r.Inputs, "%12.0f")
	printFloats(w, "phase seconds", r.PhaseSeconds, "%8.2f")
	fmt.Fprintf(w, "   ops_attempted=%d ops_failed=%d correct=%v\n", r.OpsAttempted, r.OpsFailed, r.Correct)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "   ERROR %s\n", e)
	}
	for _, e := range r.Warnings {
		fmt.Fprintf(w, "   WARN %s\n", e)
	}
}

func printMetrics(w io.Writer, title string, ms map[string]Metric) {
	if len(ms) == 0 {
		return
	}
	fmt.Fprintf(w, "   -- %s\n", title)
	for _, name := range sortedKeys(ms) {
		m := ms[name]
		fmt.Fprintf(w, "   %-40s %14.4f %-6s n=%d\n", name, m.Value, m.Unit, m.Samples)
	}
}

func printFloats(w io.Writer, title string, fs map[string]float64, format string) {
	if len(fs) == 0 {
		return
	}
	fmt.Fprintf(w, "   -- %s\n", title)
	for _, name := range sortedKeys(fs) {
		fmt.Fprintf(w, "   %-40s "+format+"\n", name, fs[name])
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// contractLine is the one JSON object the acceptance driver reads from
// the last line of standard output: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one. The driver runs
// one workload at a time; when several ran, the line covers them all,
// with each metric named workload/metric.
func contractLine(results []*Result) ([]byte, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{Correct: true, Metrics: map[string]val{}}
	for _, r := range results {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.OpsAttempted
		out.Failed += r.OpsFailed
		src, prefix := r.EndToEnd, ""
		if r.Traced {
			src = r.PerLayer
		}
		if len(results) > 1 {
			prefix = r.Workload + "/"
		}
		for name, m := range src {
			out.Metrics[prefix+name] = val{m.Value, m.Unit}
		}
	}
	return json.Marshal(out)
}

// appendJSONL appends the result as one line: a set of runs for
// -compare is such a file.
func (r *Result) appendJSONL(path string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	raw, err := json.Marshal(r)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(raw, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
