package ycsb_test

import (
	"math"
	"testing"
	"time"

	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/kvstore"
	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/vclock"
	"github.com/here-ft/here/internal/xen"
	"github.com/here-ft/here/internal/ycsb"
)

func newStore(t *testing.T) (*hypervisor.VM, *kvstore.Store) {
	t.Helper()
	h, err := xen.New("a", vclock.NewSim())
	if err != nil {
		t.Fatal(err)
	}
	vm, err := h.CreateVM(hypervisor.VMConfig{
		Name: "vm", MemBytes: 64 << 20, VCPUs: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := kvstore.Open(vm, memory.PageSize, 48<<20, 4096)
	if err != nil {
		t.Fatal(err)
	}
	return vm, s
}

func TestMixesSumToOne(t *testing.T) {
	for _, k := range ycsb.Kinds() {
		mix, err := ycsb.MixFor(k)
		if err != nil {
			t.Fatal(err)
		}
		sum := mix.Read + mix.Update + mix.Insert + mix.Scan + mix.RMW
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("workload %s mix sums to %v", k, sum)
		}
	}
	if _, err := ycsb.MixFor("Z"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestNewValidation(t *testing.T) {
	_, s := newStore(t)
	if _, err := ycsb.New(nil, ycsb.Config{Kind: ycsb.WorkloadA, RecordCount: 10}); err == nil {
		t.Fatal("nil store accepted")
	}
	if _, err := ycsb.New(s, ycsb.Config{Kind: ycsb.WorkloadA}); err == nil {
		t.Fatal("zero records accepted")
	}
	if _, err := ycsb.New(s, ycsb.Config{Kind: ycsb.WorkloadA, RecordCount: 10, SampleRate: -1}); err == nil {
		t.Fatal("negative sample rate accepted")
	}
	if _, err := ycsb.New(s, ycsb.Config{Kind: "Q", RecordCount: 10}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestBaselineThroughputsShapedLikePaper(t *testing.T) {
	_, s := newStore(t)
	tput := map[ycsb.Kind]float64{}
	for _, k := range ycsb.Kinds() {
		w, err := ycsb.New(s, ycsb.Config{Kind: k, RecordCount: 100})
		if err != nil {
			t.Fatal(err)
		}
		tput[k] = w.BaselineThroughput()
	}
	// Fig 11 shape: C (pure reads) is the fastest; E (scans) by far
	// the slowest; A ≈ F in the tens of kops.
	if tput[ycsb.WorkloadC] < tput[ycsb.WorkloadB] || tput[ycsb.WorkloadB] < tput[ycsb.WorkloadA] {
		t.Fatalf("ordering wrong: %v", tput)
	}
	if tput[ycsb.WorkloadE] > tput[ycsb.WorkloadA]/2 {
		t.Fatalf("scans not the slowest: %v", tput)
	}
	if a := tput[ycsb.WorkloadA]; a < 30_000 || a > 70_000 {
		t.Fatalf("workload A baseline = %.0f ops/s, want ≈ 43k", a)
	}
	if f := tput[ycsb.WorkloadF]; math.Abs(f-tput[ycsb.WorkloadA]) > 0.3*tput[ycsb.WorkloadA] {
		t.Fatalf("F (%0.f) should be near A (%.0f)", f, tput[ycsb.WorkloadA])
	}
}

func TestStepRequiresLoad(t *testing.T) {
	vm, s := newStore(t)
	w, err := ycsb.New(s, ycsb.Config{Kind: ycsb.WorkloadA, RecordCount: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Step(vm, time.Second); err == nil {
		t.Fatal("Step before Load succeeded")
	}
}

func TestLoadAndStepExecuteOps(t *testing.T) {
	vm, s := newStore(t)
	w, err := ycsb.New(s, ycsb.Config{
		Kind: ycsb.WorkloadA, RecordCount: 500, SampleRate: 4, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Load(0); err != nil {
		t.Fatal(err)
	}
	if !w.Loaded() {
		t.Fatal("Loaded() false after Load")
	}
	n, err := s.Len()
	if err != nil || n != 500 {
		t.Fatalf("store Len = %d, %v", n, err)
	}
	vm.Tracker().Bitmap().Snapshot()
	stats, err := w.Step(vm, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	want := w.BaselineThroughput()
	if math.Abs(float64(stats.Ops)-want) > want*0.02 {
		t.Fatalf("ops in 1s = %d, want ≈ %.0f", stats.Ops, want)
	}
	if stats.Writes == 0 {
		t.Fatal("workload A produced no writes")
	}
	if vm.Tracker().Bitmap().Count() == 0 {
		t.Fatal("no pages dirtied by database traffic")
	}
}

func TestStepZeroDuration(t *testing.T) {
	vm, s := newStore(t)
	w, err := ycsb.New(s, ycsb.Config{Kind: ycsb.WorkloadC, RecordCount: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Load(0); err != nil {
		t.Fatal(err)
	}
	stats, err := w.Step(vm, 0)
	if err != nil || stats.Ops != 0 {
		t.Fatalf("zero step = %+v, %v", stats, err)
	}
}

func TestWorkloadCIsReadOnly(t *testing.T) {
	vm, s := newStore(t)
	w, err := ycsb.New(s, ycsb.Config{
		Kind: ycsb.WorkloadC, RecordCount: 200, SampleRate: 2, Seed: 5,
		DisableChurn: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Load(0); err != nil {
		t.Fatal(err)
	}
	vm.Tracker().Bitmap().Snapshot()
	stats, err := w.Step(vm, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Writes != 0 {
		t.Fatalf("read-only workload wrote %d times", stats.Writes)
	}
	if vm.Tracker().Bitmap().Count() != 0 {
		t.Fatal("read-only workload dirtied pages with churn disabled")
	}
}

func TestCacheChurnDirtiesBeyondStore(t *testing.T) {
	vm, s := newStore(t)
	w, err := ycsb.New(s, ycsb.Config{
		Kind: ycsb.WorkloadC, RecordCount: 200, SampleRate: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Load(0); err != nil {
		t.Fatal(err)
	}
	vm.Tracker().Bitmap().Snapshot()
	if _, err := w.Step(vm, 200*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Even pure reads churn the guest page cache (Fig 11's premise).
	_, size := s.Region()
	storeEnd := memory.Addr(size).Page() + 1
	var beyond bool
	for _, p := range vm.Tracker().Bitmap().Peek() {
		if p > storeEnd {
			beyond = true
			break
		}
	}
	if !beyond {
		t.Fatal("no cache churn outside the store region")
	}
}

func TestWorkloadEScans(t *testing.T) {
	vm, s := newStore(t)
	w, err := ycsb.New(s, ycsb.Config{
		Kind: ycsb.WorkloadE, RecordCount: 300, SampleRate: 8, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Load(1); err != nil {
		t.Fatal(err)
	}
	stats, err := w.Step(vm, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Ops == 0 {
		t.Fatal("no scan ops executed")
	}
	// Scans dominate: few kops/s.
	if stats.Ops > 20_000 {
		t.Fatalf("workload E too fast: %d ops", stats.Ops)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	run := func() int64 {
		vm, s := newStore(t)
		w, err := ycsb.New(s, ycsb.Config{
			Kind: ycsb.WorkloadA, RecordCount: 300, SampleRate: 4, Seed: 77,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Load(0); err != nil {
			t.Fatal(err)
		}
		stats, err := w.Step(vm, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return stats.Writes
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic: %d vs %d writes", a, b)
	}
}

func TestNames(t *testing.T) {
	_, s := newStore(t)
	w, err := ycsb.New(s, ycsb.Config{Kind: ycsb.WorkloadD, RecordCount: 10})
	if err != nil {
		t.Fatal(err)
	}
	if w.Name() != "ycsb-D" {
		t.Fatalf("Name = %q", w.Name())
	}
}
