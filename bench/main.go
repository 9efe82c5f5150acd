// Command bench is the wall-clock benchmark of HERE's Go code: it
// builds the stack the way cmd/hered does, plays the guest itself, and
// measures what replication, the control plane, failover and crash
// recovery cost in wall time. See README.md in this directory.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "all", "workload to run: tcp-bulk, tcp-fleet, local-chain or all")
		seed     = fs.Int64("seed", 1, "seed of the generated guest writes")
		seconds  = fs.Float64("seconds", defaultSeconds, "measuring time of one workload")
		traced   = fs.Int("trace", 0, "1 = traced run: per-layer probes and spans, prints the per-layer metrics")
		smoke    = fs.Bool("smoke", false, "tiny fixed-count scale: every phase, every metric, a few seconds")
		outDir   = fs.String("out", "out", "directory for result.json, trace files and the scratch state directories")
		compare  = fs.Bool("compare", false, "compare two sets of runs: bench -compare a.jsonl b.jsonl")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare needs two files of runs")
		}
		return compareSets(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	var todo []Workload
	if *workload == "all" {
		todo = workloads
	} else {
		wl, ok := workloadByName(*workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", *workload)
		}
		todo = []Workload{wl}
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	resultPath := filepath.Join(*outDir, "result.json")
	if err := os.Remove(resultPath); err != nil && !os.IsNotExist(err) {
		return err
	}
	var results []*Result
	for _, wl := range todo {
		res, err := runWorkload(wl, runOpts{
			seed: *seed, seconds: *seconds, traced: *traced != 0, smoke: *smoke, outDir: *outDir,
		})
		if err != nil {
			return fmt.Errorf("%s: %w", wl.Name, err)
		}
		res.print(os.Stdout)
		if err := res.appendJSONL(resultPath); err != nil {
			return err
		}
		results = append(results, res)
	}
	line, err := contractLine(results)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	for _, res := range results {
		if !res.Correct {
			return fmt.Errorf("%s failed: see the ERROR lines above", res.Workload)
		}
	}
	return nil
}
