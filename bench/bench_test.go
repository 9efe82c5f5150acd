package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"github.com/here-ft/here/bench/harness"
)

// benchmarkJSON is the contract file at the root of the repository.
type benchmarkJSON struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func smoke(t *testing.T, wl Workload, traced bool) *Result {
	t.Helper()
	res, err := runWorkload(wl, runOpts{seed: 7, traced: traced, smoke: true, outDir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s: %v", wl.Name, err)
	}
	if !res.Correct || res.OpsFailed != 0 || res.OpsAttempted == 0 {
		t.Fatalf("%s: attempted %d failed %d: %v", wl.Name, res.OpsAttempted, res.OpsFailed, res.Errors)
	}
	return res
}

// checkMetrics: every declared metric is present with its declared
// unit and a non-zero finite value, nothing undeclared is emitted, and
// no two timings are byte-identical (a copied or defaulted metric is).
func checkMetrics(t *testing.T, what string, got map[string]Metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			t.Errorf("%s: %s missing", what, name)
		case m.Unit != unit:
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", what, name, m.Unit, unit)
		case m.Value == 0 && strings.HasPrefix(name, "runtime.gc_"):
			// A few smoke rounds may see no collection at all.
		case m.Value == 0 || math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s = %v", what, name, m.Value)
		case m.Clock != "wall":
			t.Errorf("%s: %s has clock %q", what, name, m.Clock)
		}
	}
	seen := map[float64]string{}
	for name, m := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: %s is not in BENCHMARK.json", what, name)
		}
		if !timeUnits[m.Unit] {
			continue
		}
		if other, dup := seen[m.Value]; dup {
			t.Errorf("%s: %s and %s are byte-identical (%v)", what, name, other, m.Value)
		}
		seen[m.Value] = name
	}
}

var timeUnits = map[string]bool{"ns": true, "us": true, "ms": true, "s": true}

func TestSmokeEveryWorkloadEveryMetric(t *testing.T) {
	bj := readBenchmarkJSON(t)
	e2e, layer := map[string]string{}, map[string]string{}
	for _, m := range bj.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range bj.PerLayer {
		layer[m.Name] = m.Unit
	}
	for _, wl := range workloads {
		t.Run(wl.Name, func(t *testing.T) {
			res := smoke(t, wl, false)
			checkMetrics(t, "end-to-end", res.EndToEnd, e2e)
			if len(res.PerLayer) != 0 {
				t.Errorf("untraced run emitted per-layer metrics")
			}
			line, err := contractLine([]*Result{res})
			if err != nil {
				t.Fatal(err)
			}
			var contract struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal(line, &contract); err != nil {
				t.Fatal(err)
			}
			if !contract.Correct || contract.Attempted < 1 || len(contract.Metrics) != len(e2e) {
				t.Errorf("contract line = %s", line)
			}
		})
		t.Run(wl.Name+"/traced", func(t *testing.T) {
			res := smoke(t, wl, true)
			checkMetrics(t, "per-layer", res.PerLayer, layer)
			if len(res.EndToEnd) != 0 {
				t.Errorf("traced run emitted end-to-end metrics")
			}
			if err := attribution(wl, res.TickShares); err != nil {
				t.Errorf("%v (shares %v)", err, res.TickShares)
			}
		})
	}
}

// TestPagePoolOutOfStepWithTheWalks: where a guest's walk returns to a
// page after a whole number of rounds, the images drawn in between must
// not be a multiple of the pool, or the page is overwritten with the
// bytes it already holds (see harness.PoolPages).
func TestPagePoolOutOfStepWithTheWalks(t *testing.T) {
	for _, wl := range workloads {
		for _, sc := range []Scale{wl.Full, wl.Smoke} {
			stores := wl.FullPages + wl.SmallWrites // per guest per round
			populated := sc.GuestMiB << 20 / 4096 * wl.PopulatePct / 100
			if populated%stores != 0 {
				continue // the walk returns at a different point of the round each time
			}
			if between := populated / stores * sc.Guests * stores; between%harness.PoolPages == 0 {
				t.Errorf("%s with %d x %d MiB guests: %d draws between two stores to a page, a multiple of the pool's %d",
					wl.Name, sc.Guests, sc.GuestMiB, between, harness.PoolPages)
			}
		}
	}
}

// TestStoresLandAndAMissedCheckpointShows drives more rounds than any
// walk is long: every round must change exactly the pages it stores to
// (storesLand), a replica that has not been sent the round must fail
// the integrity check, and the tick must make it pass again.
func TestStoresLandAndAMissedCheckpointShows(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.Name, func(t *testing.T) {
			counts := &ops{}
			b, _, err := setUp(wl, wl.Smoke, 7, t.TempDir(), counts)
			if err != nil {
				t.Fatal(err)
			}
			defer b.st.close()
			for round := 0; round < 20; round++ {
				if err := b.storesLand(); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				if b.replicasEqual() == nil {
					t.Fatalf("round %d: replicas that missed a checkpoint pass the integrity check", round)
				}
				if err := b.st.sched.Tick(); err != nil {
					t.Fatal(err)
				}
				if err := b.replicasEqual(); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
			}
			if counts.failed != 0 {
				t.Errorf("failed operations: %v", counts.errs)
			}
		})
	}
}

// TestSameSeedSameInputs is the determinism guard: what the benchmark
// feeds the program, and what the program's exact counters make of it,
// repeat for a seed, and the memory held repeats within 2 %.
func TestSameSeedSameInputs(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.Name, func(t *testing.T) {
			a, b := smoke(t, wl, false), smoke(t, wl, false)
			for name, v := range a.Inputs {
				if b.Inputs[name] != v {
					t.Errorf("input %s: %v then %v", name, v, b.Inputs[name])
				}
			}
			if x, y := a.EndToEnd["wire_bytes_per_page"].Value, b.EndToEnd["wire_bytes_per_page"].Value; x != y {
				t.Errorf("wire_bytes_per_page: %v then %v", x, y)
			}
			if x, y := a.EndToEnd["live_heap_mb"].Value, b.EndToEnd["live_heap_mb"].Value; math.Abs(x-y)/x > 0.02 {
				t.Errorf("live_heap_mb: %v then %v", x, y)
			}
		})
	}
}

// TestGatesMatchBenchmarkJSON keeps -compare's table and the contract
// file the acceptance driver reads in step, along with the workload
// list and the run length.
func TestGatesMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, defaultSeconds %d", bj.RunSeconds, defaultSeconds)
	}
	var names, want []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		want = append(want, w.Name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("workloads %v, BENCHMARK.json has %v", want, names)
	}
	if len(bj.EndToEnd) != len(gates) {
		t.Fatalf("%d gates, %d end_to_end metrics", len(gates), len(bj.EndToEnd))
	}
	for i, g := range gates {
		m := bj.EndToEnd[i]
		better := "lower"
		if g.higher {
			better = "higher"
		}
		if m.Name != g.name || m.Better != better || m.Bound != g.bound {
			t.Errorf("gate %d: %+v vs BENCHMARK.json %+v", i, g, m)
		}
	}
}

func TestVerdict(t *testing.T) {
	g := gate{name: "round_ms_p50", bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		b    []float64
		want string
	}{
		{[]float64{104, 105, 103, 104, 106}, "same"},
		{[]float64{114, 115, 113, 114, 116}, "worse"},
		{[]float64{80, 81, 79, 80, 82}, "same"}, // better is not a regression
		{[]float64{90, 140, 100, 160, 95}, "unresolved"},
	} {
		if got, _ := verdict(g, steady, c.b); got != c.want {
			t.Errorf("verdict(%v) = %s, want %s", c.b, got, c.want)
		}
	}
	up := gate{name: "ckpt_per_s", higher: true, bound: 0.10}
	if got, _ := verdict(up, steady, []float64{85, 86, 84, 85, 87}); got != "worse" {
		t.Errorf("a drop of a higher-is-better metric is %s, want worse", got)
	}
}
