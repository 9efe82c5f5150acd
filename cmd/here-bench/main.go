// here-bench regenerates every table and figure of the paper's
// evaluation section (§8) and prints them in the paper's row/series
// layout. Use -quick for a fast reduced-scale run and -only to select
// specific artifacts.
//
//	here-bench                   # full scale, everything
//	here-bench -quick            # reduced scale, everything
//	here-bench -only fig6,fig8   # selected artifacts
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/here-ft/here/internal/experiments"
	"github.com/here-ft/here/internal/metrics"
)

func main() {
	log.SetFlags(0)
	if err := run(); err != nil {
		log.Fatal("here-bench: ", err)
	}
}

func run() error {
	var (
		quick     = flag.Bool("quick", false, "reduced-scale run")
		only      = flag.String("only", "", "comma-separated artifact list (table1,table2,table5,fig5..fig17,sec87,tenants,colo,adaptive,ablation,wire,trace,fleet,recovery)")
		csvDir    = flag.String("csv", "", "directory to write fig9/fig10 trace CSVs into")
		wireJSON  = flag.String("wirejson", "BENCH_wire.json", "path for the wire artifact's machine-readable output (empty = don't write)")
		traceJSON = flag.String("tracejson", "BENCH_trace.json", "path for the trace artifact's machine-readable output (empty = don't write)")
		fleetJSON = flag.String("fleetjson", "BENCH_fleet.json", "path for the fleet artifact's machine-readable output (empty = don't write)")
		recJSON   = flag.String("recoveryjson", "BENCH_recovery.json", "path for the recovery artifact's machine-readable output (empty = don't write)")
		gate      = flag.Bool("gate", false, "regression gate: run a fresh wire+trace+fleet+recovery bench, compare against the committed baselines, exit non-zero on regression (never overwrites the baselines)")
		gateTol   = flag.Float64("gate-tol", 0.25, "gate tolerance as a fraction (0.25 = fresh may be up to 25% worse than baseline); wire rows are deterministic and must match exactly regardless")
	)
	flag.Parse()

	scale := experiments.FullScale()
	if *quick {
		scale = experiments.QuickScale()
	}
	if *gate {
		return runGate(scale, *wireJSON, *traceJSON, *fleetJSON, *recJSON, *gateTol)
	}
	want := map[string]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			want[strings.TrimSpace(strings.ToLower(k))] = true
		}
	}
	selected := func(key string) bool { return len(want) == 0 || want[key] }

	type artifact struct {
		key string
		run func() error
	}
	artifacts := []artifact{
		{"table1", func() error { fmt.Println(experiments.Table1()); return nil }},
		{"table2", func() error { fmt.Println(experiments.Table2()); return nil }},
		{"table5", func() error { fmt.Println(experiments.Table5()); return nil }},
		{"fig5", func() error {
			res, err := experiments.Fig5(scale)
			if err != nil {
				return err
			}
			fmt.Println(res.Render())
			return nil
		}},
		{"fig6", func() error {
			res, err := experiments.Fig6(scale)
			if err != nil {
				return err
			}
			fmt.Println(res.Render())
			return nil
		}},
		{"fig7", func() error {
			rows, err := experiments.Fig7(scale)
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderFig7(rows))
			return nil
		}},
		{"fig8", func() error {
			res, err := experiments.Fig8(scale)
			if err != nil {
				return err
			}
			fmt.Println(res.Render())
			return nil
		}},
		{"fig9", func() error {
			res, err := experiments.Fig9(scale)
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderTrace(
				"Fig 9: dynamic period and overhead vs load (D = 30%)", res, 16))
			return writeTraceCSV(*csvDir, "fig9.csv", res.Load, res.Period, res.Degradation)
		}},
		{"fig10", func() error {
			res, err := experiments.Fig10(scale)
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderTrace(
				"Fig 10: dynamic period under YCSB workload A (D = 30%)", res, 16))
			fmt.Printf("throughput %.0f ops/s vs baseline %.0f ops/s (slowdown %.1f%%)\n\n",
				res.Throughput, res.Baseline, 100*(1-res.Throughput/res.Baseline))
			return writeTraceCSV(*csvDir, "fig10.csv", nil, res.Period, res.Degradation)
		}},
		{"fig11", func() error {
			rows, err := experiments.YCSBFigure(nil, []experiments.ReplicationSetup{
				experiments.SetupBaseline, experiments.SetupHERE3s0, experiments.SetupHERE5s0,
				experiments.SetupRemus3s, experiments.SetupRemus5s,
			}, scale)
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderBench(
				"Fig 11: YCSB, Remus vs HERE at equal checkpoint periods", rows))
			return nil
		}},
		{"fig12", func() error {
			rows, err := experiments.YCSBFigure(nil, []experiments.ReplicationSetup{
				experiments.SetupBaseline, experiments.SetupHEREInf20,
				experiments.SetupHEREInf30, experiments.SetupHEREInf40,
			}, scale)
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderBench(
				"Fig 12: YCSB with defined degradation (Tmax = inf)", rows))
			return nil
		}},
		{"fig13", func() error {
			rows, err := experiments.YCSBFigure(nil, []experiments.ReplicationSetup{
				experiments.SetupBaseline, experiments.SetupHERE3s40, experiments.SetupHERE5s30,
			}, scale)
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderBench(
				"Fig 13: YCSB with defined degradation and Tmax", rows))
			return nil
		}},
		{"fig14", func() error {
			rows, err := experiments.SPECFigure(nil, []experiments.ReplicationSetup{
				experiments.SetupBaseline, experiments.SetupHERE3s0, experiments.SetupHERE5s0,
				experiments.SetupRemus3s, experiments.SetupRemus5s,
			}, scale)
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderBench(
				"Fig 14: SPEC CPU 2006, Remus vs HERE", rows))
			return nil
		}},
		{"fig15", func() error {
			rows, err := experiments.SPECFigure(nil, []experiments.ReplicationSetup{
				experiments.SetupBaseline, experiments.SetupHEREInf20,
				experiments.SetupHEREInf30, experiments.SetupHEREInf40,
			}, scale)
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderBench(
				"Fig 15: SPEC CPU 2006 with defined degradation", rows))
			return nil
		}},
		{"fig16", func() error {
			rows, err := experiments.SPECFigure(nil, []experiments.ReplicationSetup{
				experiments.SetupBaseline, experiments.SetupHERE3s40, experiments.SetupHERE5s30,
			}, scale)
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderBench(
				"Fig 16: SPEC CPU 2006 with defined degradation and Tmax", rows))
			return nil
		}},
		{"fig17", func() error {
			rows, err := experiments.Fig17(scale)
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderFig17(rows))
			return nil
		}},
		{"sec87", func() error {
			res, err := experiments.Sec87(scale)
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderSec87(res))
			return nil
		}},
		{"tenants", func() error {
			cap, err := experiments.TenantScaling(scale, nil)
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderTenants(cap))
			return nil
		}},
		{"colo", func() error {
			rows, err := experiments.COLOComparison(scale)
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderCOLO(rows))
			return nil
		}},
		{"adaptive", func() error {
			rows, err := experiments.AdaptiveComparison(scale)
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderAdaptive(rows))
			return nil
		}},
		{"wire", func() error {
			rows, err := experiments.WireBench(scale)
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderWireBench(rows))
			return writeWireJSON(*wireJSON, rows)
		}},
		{"trace", func() error {
			res, err := experiments.TraceBench(scale)
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderTraceBench(res))
			return writeTraceJSON(*traceJSON, res)
		}},
		{"fleet", func() error {
			rows, err := experiments.FleetBench(scale)
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderFleetBench(rows))
			return writeFleetJSON(*fleetJSON, rows)
		}},
		{"recovery", func() error {
			rows, err := experiments.RecoveryBench(scale)
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderRecoveryBench(rows))
			return writeRecoveryJSON(*recJSON, rows)
		}},
		{"ablation", func() error {
			threads, err := experiments.ThreadAblation(scale, nil)
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderThreadAblation(threads))
			shares, err := experiments.StreamShareAblation(scale, nil)
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderStreamShareAblation(shares))
			rings, err := experiments.RingAblation(scale, nil)
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderRingAblation(rings))
			comp, err := experiments.CompressionAblation(scale)
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderCompression(comp))
			return nil
		}},
	}

	for _, a := range artifacts {
		if !selected(a.key) {
			continue
		}
		start := time.Now()
		if err := a.run(); err != nil {
			return fmt.Errorf("%s: %w", a.key, err)
		}
		fmt.Printf("[%s done in %v]\n\n", a.key, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// runGate is the bench regression gate: run a fresh
// wire+trace+fleet+recovery bench at the given scale, load the
// committed baselines, and fail (non-zero exit) if the fresh figures
// of merit regressed beyond the tolerance — or, for the deterministic
// wire rows, moved at all. The committed baseline files are never
// overwritten.
func runGate(scale experiments.Scale, wirePath, tracePath, fleetPath, recPath string, tol float64) error {
	baseWire, err := experiments.LoadWireBaseline(wirePath)
	if err != nil {
		return fmt.Errorf("gate: wire baseline: %w", err)
	}
	baseTrace, err := experiments.LoadTraceBaseline(tracePath)
	if err != nil {
		return fmt.Errorf("gate: trace baseline: %w", err)
	}
	baseFleet, err := experiments.LoadFleetBaseline(fleetPath)
	if err != nil {
		return fmt.Errorf("gate: fleet baseline: %w", err)
	}
	baseRec, err := experiments.LoadRecoveryBaseline(recPath)
	if err != nil {
		return fmt.Errorf("gate: recovery baseline: %w", err)
	}

	fmt.Println("gate: fresh wire bench (exact)...")
	rows, err := experiments.WireBench(scale)
	if err != nil {
		return fmt.Errorf("gate: wire bench: %w", err)
	}
	fmt.Println("gate: fresh trace bench...")
	res, err := experiments.TraceBench(scale)
	if err != nil {
		return fmt.Errorf("gate: trace bench: %w", err)
	}
	fmt.Println("gate: fresh fleet bench...")
	fleetRows, err := experiments.FleetBench(scale)
	if err != nil {
		return fmt.Errorf("gate: fleet bench: %w", err)
	}
	fmt.Println("gate: fresh recovery bench...")
	recRows, err := experiments.RecoveryBench(scale)
	if err != nil {
		return fmt.Errorf("gate: recovery bench: %w", err)
	}

	g := experiments.GateWire(baseWire, experiments.WireRowsJSON(rows))
	gt := experiments.GateTrace(baseTrace, experiments.TraceResultJSON(res), tol, 3.0)
	g.Checks = append(g.Checks, gt.Checks...)
	g.Failures = append(g.Failures, gt.Failures...)
	gf := experiments.GateFleet(baseFleet, experiments.FleetRowsJSON(fleetRows), tol)
	g.Checks = append(g.Checks, gf.Checks...)
	g.Failures = append(g.Failures, gf.Failures...)
	gr := experiments.GateRecovery(baseRec, experiments.RecoveryRowsJSON(recRows), tol)
	g.Checks = append(g.Checks, gr.Checks...)
	g.Failures = append(g.Failures, gr.Failures...)

	for _, c := range g.Checks {
		fmt.Println("  " + c)
	}
	if !g.OK() {
		for _, f := range g.Failures {
			fmt.Fprintln(os.Stderr, "gate FAIL: "+f)
		}
		return fmt.Errorf("bench gate failed: %d regression(s)", len(g.Failures))
	}
	fmt.Printf("gate PASS: %d checks\n", len(g.Checks))
	return nil
}

// writeWireJSON stores the wire-codec rows machine-readably: raw vs
// encoded bytes, the frame mix and virtual-clock pause percentiles per
// workload × codec mode.
func writeWireJSON(path string, rows []experiments.WireBenchRow) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(experiments.WireRowsJSON(rows), "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("[wrote %s]\n", path)
	return nil
}

// writeTraceJSON stores the tracing-overhead measurement machine-
// readably: per-event recording cost, traced vs untraced wall-clock,
// the overhead percentage, and the span-accounting check.
func writeTraceJSON(path string, res experiments.TraceBenchResult) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(experiments.TraceResultJSON(res), "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("[wrote %s]\n", path)
	return nil
}

// writeFleetJSON stores the fleet scaling sweep machine-readably:
// tick and API read latency percentiles per protection count.
func writeFleetJSON(path string, rows []experiments.FleetBenchRow) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(experiments.FleetRowsJSON(rows), "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("[wrote %s]\n", path)
	return nil
}

// writeRecoveryJSON stores the in-place versus failover incident
// comparison machine-readably: recovery latency, epochs rolled back,
// pages re-shipped, and the recovery counters per strategy.
func writeRecoveryJSON(path string, rows []experiments.RecoveryBenchRow) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(experiments.RecoveryRowsJSON(rows), "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("[wrote %s]\n", path)
	return nil
}

// writeTraceCSV stores a trace's series as CSV under dir (a no-op when
// no -csv directory was given).
func writeTraceCSV(dir, name string, series ...*metrics.Series) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var present []*metrics.Series
	for _, s := range series {
		if s != nil {
			present = append(present, s)
		}
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := metrics.WriteCSVMulti(f, present...); err != nil {
		return err
	}
	fmt.Printf("[wrote %s]\n", filepath.Join(dir, name))
	return nil
}
