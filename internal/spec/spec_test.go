package spec_test

import (
	"math"
	"testing"
	"time"

	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/spec"
	"github.com/here-ft/here/internal/vclock"
	"github.com/here-ft/here/internal/xen"
)

func TestAllBenchmarksConstruct(t *testing.T) {
	for _, name := range spec.Names() {
		k, err := spec.New(name, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if k.Name() != string(name) {
			t.Fatalf("name = %q", k.Name())
		}
	}
	if _, err := spec.New("povray", 1); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestBaselineRatesShapedLikeFig14(t *testing.T) {
	rate := map[spec.Name]float64{}
	for _, n := range spec.Names() {
		r, err := spec.BaselineRate(n)
		if err != nil {
			t.Fatal(err)
		}
		rate[n] = r
	}
	// Fig 14 Xen bars: lbm > namd >> gcc > cactuBSSN.
	if !(rate[spec.LBM] > rate[spec.NAMD] && rate[spec.NAMD] > rate[spec.GCC] &&
		rate[spec.GCC] > rate[spec.CactuBSSN]) {
		t.Fatalf("rate ordering wrong: %v", rate)
	}
	if rate[spec.GCC] < 0.8 || rate[spec.GCC] > 2 {
		t.Fatalf("gcc rate = %.2f ops/s, want ≈ 1.2", rate[spec.GCC])
	}
	if _, err := spec.BaselineRate("x"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestKernelsExecuteOnVM(t *testing.T) {
	h, err := xen.New("a", vclock.NewSim())
	if err != nil {
		t.Fatal(err)
	}
	vm, err := h.CreateVM(hypervisor.VMConfig{Name: "vm", MemBytes: 8 << 30, VCPUs: 4})
	if err != nil {
		t.Fatal(err)
	}
	k, err := spec.New(spec.LBM, 3)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := k.Step(vm, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	wantOps, err := spec.BaselineRate(spec.LBM)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(stats.Ops)-wantOps*10) > 2 {
		t.Fatalf("ops in 10s = %d, want ≈ %.0f", stats.Ops, wantOps*10)
	}
	if vm.Tracker().Bitmap().Count() == 0 {
		t.Fatal("lbm dirtied no pages")
	}
}
