package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"github.com/here-ft/here/bench/harness"
)

// runOpts are the knobs of one run.
type runOpts struct {
	seed    int64
	seconds float64
	traced  bool
	smoke   bool
	outDir  string
}

func share(seconds, part float64) time.Duration {
	return time.Duration(seconds * part * float64(time.Second))
}

// runWorkload executes the six phases of one workload and returns what
// they measured. An untraced run yields the end-to-end metrics; a
// traced run spends the steady budget on a probes-off stretch followed
// by a traced stretch and yields the per-layer metrics.
func runWorkload(wl Workload, o runOpts) (*Result, error) {
	sc := wl.Full
	if o.smoke {
		sc = wl.Smoke
		o.seconds = 0
	}
	stateRoot := filepath.Join(o.outDir, "state", fmt.Sprintf("%s-%d", wl.Name, os.Getpid()))
	defer os.RemoveAll(stateRoot)
	if err := os.MkdirAll(stateRoot, 0o755); err != nil {
		return nil, err
	}
	res := &Result{
		Workload: wl.Name, Seed: o.seed, Seconds: o.seconds, Traced: o.traced, Smoke: o.smoke,
		Header:   newHeader(stateRoot),
		EndToEnd: map[string]Metric{}, PerLayer: map[string]Metric{},
		Inputs: map[string]float64{}, PhaseSeconds: map[string]float64{},
	}
	counts := &ops{}

	// Phase 1, several times over: setup_s is the median, so one slow
	// set-up (a page-cache miss, a GC at the wrong moment) does not
	// decide it. The last stack built is the one the phases run on.
	setups := sc.Setups
	if o.traced {
		setups = 1 // setup_s is an end-to-end metric; a traced run does not report it
	}
	var (
		b       *bench
		setupsS []float64
	)
	for i := 0; i < setups; i++ {
		if b != nil {
			b.st.close()
			b = nil
			settle()
		}
		nb, d, err := setUp(wl, sc, o.seed, filepath.Join(stateRoot, fmt.Sprintf("a%d", i)), counts)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		b = nb
		setupsS = append(setupsS, d.Seconds())
	}
	defer func() { b.st.close() }()
	res.PhaseSeconds["1-setup"] = harness.Median(setupsS)
	res.Inputs["guests"] = float64(sc.Guests)
	res.Inputs["pages_dirtied_per_round"] = float64(b.pagesPerRound)

	// Phase 2.
	settle()
	var plain steadyStats
	if o.traced {
		plain = b.steady(share(o.seconds, tracedPlainShare), sc.Rounds/3, nil)
		settle()
		pr, err := newProbes(b, filepath.Join(stateRoot, "probe"))
		if err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		defer pr.close()
		settle()
		traced := b.steady(share(o.seconds, tracedShare), max(sc.Rounds/4, 4), pr)
		pr.report(res, &plain, &traced, b)
		if err := pr.writeTrace(filepath.Join(o.outDir, "trace-"+wl.Name+".jsonl"),
			filepath.Join(o.outDir, "layers-"+wl.Name+".txt")); err != nil {
			return nil, err
		}
		res.PhaseSeconds["2-steady-traced"] = traced.wall.Seconds()
	} else {
		plain = b.steady(share(o.seconds, steadyShare), sc.Rounds, nil)
	}
	res.PhaseSeconds["2-steady"] = plain.wall.Seconds()
	// A percentile means something with ten samples beyond it: p99 takes
	// a thousand rounds, several times what the default -seconds runs.
	if n := plain.rounds.Len(); n >= 1000 {
		res.Extra = map[string]Metric{"fleet.round_ms_p99": {
			Value: plain.rounds.P(99, time.Millisecond), Unit: "ms", Clock: "wall", Samples: n,
		}}
	}
	res.Inputs["rounds"] = float64(plain.rounds.Len())
	counts.check("stores reach the replicas", b.storesLand())
	counts.check("tick", b.st.sched.Tick())
	counts.check("steady integrity", b.replicasEqual())
	counts.check("transport reconnects", b.reconnects())
	heapMB := liveHeapMB()

	// Phases 3 to 6.
	t3 := time.Now()
	protects := b.protect(share(o.seconds, protectShare), sc.Protects)
	res.PhaseSeconds["3-protect"] = time.Since(t3).Seconds()
	settle()
	fails, failWall := b.failover(share(o.seconds, failoverShare), sc.Fails, sc.GuestMiB)
	res.PhaseSeconds["4-failover"] = failWall.Seconds()
	settle()
	// Phase 5: a restart straight after a forced failover, before any
	// checkpoint of the new generation is acked, ends in
	// ErrReplicaDiverged over TCP (see README); two rounds settle it.
	for i := 0; i < 2; i++ {
		b.dirty()
		counts.check("tick", b.st.sched.Tick())
	}
	settle()
	t6 := time.Now()
	restarts := b.restart(sc.Restarts)
	res.PhaseSeconds["6-restart"] = time.Since(t6).Seconds()

	ms, us := time.Millisecond, time.Microsecond
	if o.traced {
		res.layer("orchestrator.protect_ms_p90", protects.P(90, ms), "ms", protects.Len())
		res.layer("orchestrator.failover_ms_p90", fails.P(90, ms), "ms", fails.Len())
		res.layer("orchestrator.recover_ms", restarts.recover.P(50, ms), "ms", restarts.recover.Len())
		res.layer("orchestrator.resync_tick_ms", restarts.resync.P(50, ms), "ms", restarts.resync.Len())
		res.layer("journal.replay_ms", restarts.replay.P(50, ms), "ms", restarts.replay.Len())
		res.layer("journal.replay_records", float64(restarts.replayed), "count", 1)
		rss, _ := harness.PeakRSSBytes()
		res.layer("runtime.peak_rss_mb", float64(rss)/(1<<20), "MB", 1)
	} else {
		n := plain.rounds.Len()
		res.e2e("setup_s", harness.Median(setupsS), "s", len(setupsS))
		res.e2e("round_ms_p50", plain.rounds.P(50, ms), "ms", n)
		res.e2e("ckpt_per_s", float64(plain.ckpts)/plain.rounds.Sum().Seconds(), "1/s", n)
		res.e2e("wire_bytes_per_page", float64(plain.bytes)/float64(plain.pages), "B", int(plain.pages))
		res.e2e("cpu_ms_per_round", plain.cpu.Mean(ms), "ms", n)
		res.e2e("status_us_p50", plain.status.P(50, us), "us", plain.status.Len())
		res.e2e("list_ms_p50", plain.list.P(50, ms), "ms", plain.list.Len())
		res.e2e("protect_ms_p50", protects.P(50, ms), "ms", protects.Len())
		res.e2e("failover_ms_p50", fails.P(50, ms), "ms", fails.Len())
		res.e2e("recover_ms_p50", restarts.total.P(50, ms), "ms", restarts.total.Len())
		res.e2e("live_heap_mb", heapMB, "MB", 1)
		res.Inputs["journal_records_per_ckpt"] = float64(plain.records) / float64(plain.ckpts)
	}

	// Floors: a full-scale run that misses one is not a measurement.
	if !o.smoke && !o.traced {
		floor := func(what string, ok bool) {
			var err error
			if !ok {
				err = fmt.Errorf("below its floor; run with -seconds >= %d", defaultSeconds)
			}
			counts.check("floor: "+what, err)
		}
		floor(fmt.Sprintf("steady %.1fs < %.0fs", plain.wall.Seconds(), steadyFloorS), plain.wall.Seconds() >= steadyFloorS)
		floor(fmt.Sprintf("failover %.1fs, %d samples", failWall.Seconds(), fails.Len()),
			failWall.Seconds() >= failoverFloorS || fails.Len() >= failoverFloorN)
		floor(fmt.Sprintf("setup %.2fs < %.0fs", harness.Median(setupsS), setupFloorS), harness.Median(setupsS) >= setupFloorS)
		floor(fmt.Sprintf("status samples %d < %d", plain.status.Len(), statusFloorN), plain.status.Len() >= statusFloorN)
		floor(fmt.Sprintf("list samples %d < %d", plain.list.Len(), listFloorN), plain.list.Len() >= listFloorN)
	}
	for _, set := range []map[string]Metric{res.EndToEnd, res.PerLayer} {
		for name, m := range set {
			var err error
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				err = fmt.Errorf("not a number")
				m.Value = -1 // JSON cannot carry NaN; the run is marked incorrect
				set[name] = m
			}
			counts.check("metric "+name, err)
		}
	}

	res.OpsAttempted, res.OpsFailed, res.Errors = counts.attempted, counts.failed, counts.errs
	res.Correct = counts.failed == 0
	return res, nil
}
