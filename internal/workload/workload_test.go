package workload_test

import (
	"errors"
	"testing"
	"time"

	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/vclock"
	"github.com/here-ft/here/internal/workload"
	"github.com/here-ft/here/internal/xen"
)

func newVM(t *testing.T, pages int) *hypervisor.VM {
	t.Helper()
	h, err := xen.New("a", vclock.NewSim())
	if err != nil {
		t.Fatal(err)
	}
	vm, err := h.CreateVM(hypervisor.VMConfig{
		Name: "vm", MemBytes: uint64(pages) * memory.PageSize, VCPUs: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return vm
}

func TestMemoryBenchValidation(t *testing.T) {
	if _, err := workload.NewMemoryBench(-1, 0, 1); err == nil {
		t.Fatal("negative percent accepted")
	}
	if _, err := workload.NewMemoryBench(101, 0, 1); err == nil {
		t.Fatal("percent > 100 accepted")
	}
	if _, err := workload.NewMemoryBench(50, -5, 1); err == nil {
		t.Fatal("negative rate accepted")
	}
	b, err := workload.NewMemoryBench(30, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if b.Percent() != 30 {
		t.Fatalf("Percent = %v", b.Percent())
	}
	if b.Name() != "membench" {
		t.Fatalf("Name = %q", b.Name())
	}
}

func TestMemoryBenchDirtiesWithinWorkingSet(t *testing.T) {
	vm := newVM(t, 1000)
	b, err := workload.NewMemoryBench(30, 100_000, 42)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := b.Step(vm, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Writes != 10_000 {
		t.Fatalf("Writes = %d, want 10000", stats.Writes)
	}
	dirty := vm.Tracker().Bitmap().Peek()
	if len(dirty) == 0 {
		t.Fatal("no pages dirtied")
	}
	for _, p := range dirty {
		if p >= 300 {
			t.Fatalf("page %d outside 30%% working set of 1000 pages", p)
		}
	}
}

func TestMemoryBenchSaturatingStep(t *testing.T) {
	vm := newVM(t, 100)
	b, err := workload.NewMemoryBench(50, 1_000_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 1M writes/s for 1s over a 50-page working set: saturates it.
	if _, err := b.Step(vm, time.Second); err != nil {
		t.Fatal(err)
	}
	if got := vm.Tracker().Bitmap().Count(); got != 50 {
		t.Fatalf("dirty pages = %d, want full 50-page working set", got)
	}
}

func TestMemoryBenchZeroCases(t *testing.T) {
	vm := newVM(t, 100)
	b, err := workload.NewMemoryBench(0, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Step(vm, time.Second); err != nil {
		t.Fatal(err)
	}
	if vm.Tracker().Bitmap().Count() != 0 {
		t.Fatal("0% working set dirtied pages")
	}
	if _, err := b.Step(vm, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Step(vm, -time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryBenchSetPercentMidRun(t *testing.T) {
	vm := newVM(t, 1000)
	b, err := workload.NewMemoryBench(10, 50_000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Step(vm, 50*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	vm.Tracker().Bitmap().Snapshot()
	if err := b.SetPercent(80); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Step(vm, 500*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	var beyond bool
	for _, p := range vm.Tracker().Bitmap().Peek() {
		if p >= 100 {
			beyond = true
		}
		if p >= 800 {
			t.Fatalf("page %d outside 80%% working set", p)
		}
	}
	if !beyond {
		t.Fatal("raising the percentage did not widen the working set")
	}
	if err := b.SetPercent(150); err == nil {
		t.Fatal("SetPercent(150) accepted")
	}
}

func TestMemoryBenchStoppedVM(t *testing.T) {
	vm := newVM(t, 100)
	vm.Pause()
	b, err := workload.NewMemoryBench(50, 10_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Step(vm, time.Second); !errors.Is(err, workload.ErrStopped) {
		t.Fatalf("Step on paused VM: err = %v, want ErrStopped", err)
	}
}

func TestMemoryBenchDeterministic(t *testing.T) {
	run := func() []memory.PageNum {
		vm := newVM(t, 1000)
		b, err := workload.NewMemoryBench(40, 20_000, 99)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Step(vm, 100*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		return vm.Tracker().Bitmap().Peek()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic: %d vs %d pages", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("non-deterministic dirty sets")
		}
	}
}

func TestIdle(t *testing.T) {
	vm := newVM(t, 100)
	var w workload.Idle
	if w.Name() != "idle" {
		t.Fatalf("Name = %q", w.Name())
	}
	stats, err := w.Step(vm, time.Hour)
	if err != nil || stats != (workload.StepStats{}) {
		t.Fatalf("Step = %+v, %v", stats, err)
	}
	if vm.Tracker().Bitmap().Count() != 0 {
		t.Fatal("idle workload dirtied pages")
	}
	vm.Pause()
	if _, err := w.Step(vm, time.Second); !errors.Is(err, workload.ErrStopped) {
		t.Fatalf("idle on paused VM: %v", err)
	}
}

func TestCPUKernelValidation(t *testing.T) {
	if _, err := workload.NewCPUKernel("", time.Microsecond, 1, 10, 1); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := workload.NewCPUKernel("k", 0, 1, 10, 1); err == nil {
		t.Fatal("zero op cost accepted")
	}
	if _, err := workload.NewCPUKernel("k", time.Microsecond, -1, 10, 1); err == nil {
		t.Fatal("negative dirty pages accepted")
	}
	if _, err := workload.NewCPUKernel("k", time.Microsecond, 1, 0, 1); err == nil {
		t.Fatal("dirtying kernel with zero working set accepted")
	}
}

func TestCPUKernelOpsScaleWithTime(t *testing.T) {
	vm := newVM(t, 1000)
	k, err := workload.NewCPUKernel("gcc", 250*time.Millisecond, 2, 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := k.Step(vm, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Ops != 4 {
		t.Fatalf("Ops = %d, want 4", stats.Ops)
	}
	if stats.Writes != 8 {
		t.Fatalf("Writes = %d, want 8", stats.Writes)
	}
	// Sub-op step: no progress.
	stats, err = k.Step(vm, 100*time.Millisecond)
	if err != nil || stats.Ops != 0 {
		t.Fatalf("sub-op step = %+v, %v", stats, err)
	}
}

func TestCPUKernelDirtyPagesStayInWorkingSet(t *testing.T) {
	vm := newVM(t, 1000)
	k, err := workload.NewCPUKernel("lbm", time.Millisecond, 3, 50, 11)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Step(vm, time.Second); err != nil {
		t.Fatal(err)
	}
	for _, p := range vm.Tracker().Bitmap().Peek() {
		if p >= 50 {
			t.Fatalf("page %d outside 50-page working set", p)
		}
	}
}

func TestStepStatsAdd(t *testing.T) {
	a := workload.StepStats{Ops: 1, Writes: 2, BytesOut: 3}
	a.Add(workload.StepStats{Ops: 10, Writes: 20, BytesOut: 30})
	if a.Ops != 11 || a.Writes != 22 || a.BytesOut != 33 {
		t.Fatalf("Add = %+v", a)
	}
}
