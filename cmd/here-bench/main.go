// here-bench regenerates every table and figure of the paper's
// evaluation section (§8) and prints them in the paper's row/series
// layout. Use -quick for a fast reduced-scale run and -only to select
// specific artifacts.
//
//	here-bench                   # full scale, everything
//	here-bench -quick            # reduced scale, everything
//	here-bench -only fig6,fig8   # selected artifacts
//	here-bench -gate             # hold the committed BENCH_*.json files
//
// The wire, trace and recovery benches hold only virtual rows; a -quick
// run writes them to the committed BENCH_*.json files, which -gate
// regenerates in memory and compares byte for byte.
package main

import (
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
		quick  = flag.Bool("quick", false, "reduced-scale run; writes the wire, trace and recovery rows to the committed BENCH_*.json files")
		only   = flag.String("only", "", "comma-separated artifact list (table1,table2,table5,fig5..fig17,sec87,tenants,colo,adaptive,ablation,wire,trace,recovery)")
		csvDir = flag.String("csv", "", "directory to write fig9/fig10 trace CSVs into")
		gate   = flag.Bool("gate", false, "regression gate: rerun the wire, trace and recovery benches at the quick scale and exit non-zero unless each equals its committed BENCH_*.json byte for byte (never writes them)")
	)
	flag.Parse()

	if *gate {
		return runGate()
	}
	scale := experiments.FullScale()
	if *quick {
		scale = experiments.QuickScale()
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
	for _, f := range experiments.BenchFiles() {
		artifacts = append(artifacts, artifact{f.Key, func() error {
			rows, table, err := f.Run(scale)
			if err != nil {
				return err
			}
			fmt.Println(table)
			if !*quick {
				// The committed files are quick-scale rows: the gate
				// holds them to a quick run's bytes.
				return nil
			}
			data, err := experiments.BenchJSON(rows)
			if err != nil {
				return err
			}
			if err := os.WriteFile(f.Name, data, 0o644); err != nil {
				return err
			}
			fmt.Printf("[wrote %s]\n", f.Name)
			return nil
		}})
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

// runGate is the bench regression gate: it reruns every committed
// bench at the quick scale, encodes its rows as a -quick run writes
// them, and fails unless each equals its committed file byte for byte.
// It never writes the files.
func runGate() error {
	files, failed := experiments.BenchFiles(), 0
	for _, f := range files {
		rows, _, err := f.Run(experiments.QuickScale())
		if err != nil {
			return fmt.Errorf("gate: %s bench: %w", f.Key, err)
		}
		fresh, err := experiments.BenchJSON(rows)
		if err != nil {
			return err
		}
		committed, err := os.ReadFile(f.Name)
		if err != nil {
			return fmt.Errorf("gate: %w", err)
		}
		if err := experiments.GateDiff(f.Name, committed, fresh); err != nil {
			fmt.Fprintln(os.Stderr, "gate FAIL: "+err.Error())
			failed++
			continue
		}
		fmt.Printf("gate: %s equals a fresh run\n", f.Name)
	}
	if failed > 0 {
		return fmt.Errorf("bench gate failed: %d of %d files differ", failed, len(files))
	}
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
