package here_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	here "github.com/here-ft/here"
	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/kvm"
	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/orchestrator"
	"github.com/here-ft/here/internal/trace"
	"github.com/here-ft/here/internal/vclock"
	"github.com/here-ft/here/internal/xen"
)

// kindCount tallies trace events by kind name.
func kindCount(events []here.TraceEvent) map[string]int {
	n := map[string]int{}
	for _, ev := range events {
		n[ev.Kind.String()]++
	}
	return n
}

// TestTelemetryEndToEnd is the acceptance test for the tracing and
// metrics subsystem: a protected run under deterministic fault
// injection must produce a JSONL-exportable trace in which every
// checkpoint epoch's pause/scan/encode/transfer/ack spans sum to the
// epoch's recorded wall-clock pause (within 5%), retries and rollbacks
// appear as discrete events matching the recovery counters, injected
// faults and heartbeat misses are recorded, and the metrics registry's
// Prometheus exposition agrees with the run's totals.
func TestTelemetryEndToEnd(t *testing.T) {
	const seed = 42

	plan, clk := here.NewFaultPlan(seed)
	t0 := clk.Now()
	el := func() time.Duration { return clk.Now().Sub(t0) }

	cluster, err := here.NewCluster(here.ClusterConfig{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	plan.AttachLink(cluster.Link())

	vm, err := cluster.CreateProtectedVM(here.VMSpec{
		Name: "tele", MemoryBytes: 32 << 20, VCPUs: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	w, _, err := here.NewYCSBWorkload(vm, "A", 2000, seed)
	if err != nil {
		t.Fatal(err)
	}
	prot, err := cluster.Protect(vm, here.ProtectOptions{
		FixedPeriod:  time.Second,
		Workload:     w,
		DegradedMode: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := prot.Trace()
	if tr == nil {
		t.Fatal("tracing is on by default; Trace() = nil")
	}
	plan.Instrument(tr, cluster.Metrics())

	// Flaps exercise the retry path; the 5 s outage exhausts the retry
	// budget (rollback), drops to degraded mode, and resyncs.
	plan.LinkFlap(el()+900*time.Millisecond, 3, 200*time.Millisecond, 800*time.Millisecond)
	for i := 0; i < 4; i++ {
		if _, err := prot.Checkpoint(); err != nil {
			t.Fatalf("flap cycle %d: %v", i, err)
		}
	}
	plan.LinkOutage(el()+500*time.Millisecond, 5*time.Second)
	for i := 0; i < 12; i++ {
		if _, err := prot.Checkpoint(); err != nil {
			t.Fatalf("outage cycle %d: %v", i, err)
		}
	}

	rec := prot.Recovery()
	if rec.Retries == 0 || rec.Rollbacks == 0 {
		t.Fatalf("storm too tame: retries=%d rollbacks=%d, need both > 0",
			rec.Retries, rec.Rollbacks)
	}

	// Crash the primary so detection and failover telemetry fire too.
	plan.HostCrash(el()+200*time.Millisecond, cluster.Primary(), "exploit")
	for i := 0; ; i++ {
		if _, err := prot.Checkpoint(); err != nil {
			break
		}
		if i > 3 {
			t.Fatal("scheduled crash never stopped replication")
		}
	}
	if _, err := prot.DetectFailure(10 * time.Second); err != nil {
		t.Fatalf("detection: %v", err)
	}
	if _, err := prot.Failover(); err != nil {
		t.Fatalf("failover: %v", err)
	}

	events := tr.Events()
	if tr.Dropped() != 0 {
		t.Fatalf("default ring capacity dropped %d events in a short run", tr.Dropped())
	}

	// --- Span accounting: stages partition every epoch's pause. ------
	// An epoch that rolled back and later succeeded (or resynced) holds
	// the accumulated durations of all its attempts on both sides of the
	// comparison, so the invariant survives retries.
	breakdown := prot.StageBreakdown()
	completed := 0
	for _, ep := range breakdown {
		if ep.Pause <= 0 {
			continue // epoch aborted mid-cycle by the crash
		}
		if ep.Outcome == "ok" || ep.Outcome == "resync" {
			completed++
			// A completed epoch traced its whole lifecycle; an epoch the
			// crash left rolled back has no ack span to demand.
			for stage, d := range map[string]time.Duration{
				"scan": ep.Scan, "encode": ep.Encode,
				"transfer": ep.Transfer, "ack": ep.Ack,
			} {
				if d <= 0 {
					t.Errorf("epoch %d: %s span missing", ep.Epoch, stage)
				}
			}
		}
		gap := ep.StageSum() - ep.Pause
		if gap < 0 {
			gap = -gap
		}
		if float64(gap) > 0.05*float64(ep.Pause) {
			t.Errorf("epoch %d: stages sum to %v but pause is %v (gap %.1f%% > 5%%)",
				ep.Epoch, ep.StageSum(), ep.Pause, 100*float64(gap)/float64(ep.Pause))
		}
	}
	if totals := prot.Totals(); completed != int(totals.Checkpoints) {
		t.Errorf("breakdown shows %d completed epochs, totals report %d checkpoints",
			completed, totals.Checkpoints)
	}

	// --- Discrete events match the recovery counters. ----------------
	kinds := kindCount(events)
	if int64(kinds["retry"]) != rec.Retries {
		t.Errorf("retry events = %d, recovery counter = %d", kinds["retry"], rec.Retries)
	}
	if int64(kinds["rollback"]) != rec.Rollbacks {
		t.Errorf("rollback events = %d, recovery counter = %d", kinds["rollback"], rec.Rollbacks)
	}
	if kinds["mode-change"] == 0 {
		t.Error("degraded-mode transitions recorded no mode-change events")
	}
	if got, want := kinds["fault"], len(plan.Applied()); got != want {
		t.Errorf("fault events = %d, plan applied %d", got, want)
	}
	if kinds["heartbeat-miss"] < 3 {
		t.Errorf("heartbeat-miss events = %d, want >= the 3-miss threshold", kinds["heartbeat-miss"])
	}
	if kinds["seed-round"] == 0 {
		t.Error("seeding migration recorded no seed-round spans")
	}
	for _, phase := range []string{"discard", "decode", "restore", "replug", "resume"} {
		found := false
		for _, ev := range events {
			if ev.Kind.String() == "failover" && ev.Note == phase {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("failover phase %q not traced", phase)
		}
	}

	// --- JSONL export: one valid object per event, in order. ---------
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	lines := 0
	prevSeq := int64(-1)
	for sc.Scan() {
		var obj map[string]any
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatalf("line %d is not JSON: %v", lines+1, err)
		}
		seq := int64(obj["seq"].(float64))
		if seq <= prevSeq {
			t.Fatalf("line %d: seq %d not increasing after %d", lines+1, seq, prevSeq)
		}
		prevSeq = seq
		if _, ok := obj["kind"].(string); !ok {
			t.Fatalf("line %d: missing kind", lines+1)
		}
		lines++
	}
	if lines != len(events) {
		t.Fatalf("JSONL export wrote %d lines for %d events", lines, len(events))
	}

	// --- Prometheus exposition agrees with the run. ------------------
	var prom bytes.Buffer
	if err := cluster.Metrics().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	text := prom.String()
	for metric, want := range map[string]int64{
		"here_replication_checkpoints_total": int64(prot.Totals().Checkpoints),
		"here_replication_retries_total":     rec.Retries,
		"here_replication_rollbacks_total":   rec.Rollbacks,
		"here_faults_injected_total":         int64(len(plan.Applied())),
		"here_trace_events_total":            int64(len(events)),
	} {
		line := fmt.Sprintf("%s %d\n", metric, want)
		if !strings.Contains(text, line) {
			t.Errorf("exposition missing %q", strings.TrimSpace(line))
		}
	}
	if !strings.Contains(text, "here_replication_pause_seconds_bucket{le=\"+Inf\"}") {
		t.Error("pause histogram missing from exposition")
	}
}

// TestTelemetryDisabled: NoTrace must null out the tracer without
// touching the replication behaviour.
func TestTelemetryDisabled(t *testing.T) {
	cluster, err := here.NewCluster(here.ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	vm, err := cluster.CreateProtectedVM(here.VMSpec{
		Name: "quiet", MemoryBytes: 16 << 20, VCPUs: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	prot, err := cluster.Protect(vm, here.ProtectOptions{
		FixedPeriod: time.Second,
		NoTrace:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if prot.Trace() != nil {
		t.Fatal("NoTrace still returned a tracer")
	}
	if prot.StageBreakdown() != nil {
		t.Fatal("NoTrace still produced a stage breakdown")
	}
	if _, err := prot.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := prot.Totals().Checkpoints; got != 1 {
		t.Fatalf("checkpoints = %d, want 1", got)
	}
}

// TestTelemetryReprotectSeeds: the fleet's scrape says how each
// re-protect was seeded. A forced failover of a healthy pair reverses it
// and converges the fenced primary's copy (warm, the handful of pages
// stored since the last checkpoint); the same failover with that host
// crashed has no copy to keep and fills a replica elsewhere (cold, the
// whole guest).
func TestTelemetryReprotectSeeds(t *testing.T) {
	const pages = 256
	clk := vclock.NewSim()
	reg := trace.NewRegistry()
	m, err := orchestrator.New(orchestrator.Config{Clock: clk, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	x0, _ := xen.New("x0", clk)
	k1, _ := kvm.New("k1", clk)
	k2, _ := kvm.New("k2", clk)
	for _, h := range []*hypervisor.Host{x0, k1, k2} {
		if err := m.AddHost(h); err != nil {
			t.Fatal(err)
		}
	}
	scrape := func() string {
		var prom bytes.Buffer
		if err := reg.WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		return prom.String()
	}
	expect := func(when string, lines ...string) {
		t.Helper()
		text := scrape()
		for _, line := range lines {
			if !strings.Contains(text, line+"\n") {
				t.Errorf("%s: exposition missing %q", when, line)
			}
		}
	}
	expect("before any re-protect",
		`here_reprotect_seeds_total{seed="warm"} 0`,
		`here_reprotect_seeds_total{seed="cold"} 0`,
		"here_reprotect_seed_pages_total 0",
		"here_reprotect_seed_later_pages_total 0")

	p, err := m.Protect(orchestrator.VMSpec{Name: "vm", MemoryBytes: pages * memory.PageSize, VCPUs: 1})
	if err != nil {
		t.Fatal(err)
	}
	store := func(what string, pgs ...int) {
		t.Helper()
		for _, n := range pgs {
			if err := p.VM().WriteGuest(0, memory.Addr(n)*memory.PageSize, []byte(what)); err != nil {
				t.Fatal(err)
			}
		}
	}
	store("checkpointed", 1, 2, 3)
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	store("lost with the old primary", 2, 9) // after the last checkpoint: what the warm seed ships
	if _, err := m.Failover("vm"); err != nil {
		t.Fatal(err)
	}
	expect("after the warm re-protect",
		`here_reprotect_seeds_total{seed="warm"} 1`,
		`here_reprotect_seeds_total{seed="cold"} 0`,
		"here_reprotect_seed_pages_total 2")

	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	k1.Fail(hypervisor.Crashed, "test") // the primary now; its copy dies with it
	if _, err := m.Failover("vm"); err != nil {
		t.Fatal(err)
	}
	expect("after the cold re-protect",
		`here_reprotect_seeds_total{seed="warm"} 1`,
		`here_reprotect_seeds_total{seed="cold"} 1`,
		fmt.Sprintf("here_reprotect_seed_pages_total %d", 2+pages),
		"here_reprotect_seed_later_pages_total 0") // an idle guest: no seed had a later round
}
