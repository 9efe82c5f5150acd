package colo_test

import (
	"testing"
	"time"

	"github.com/here-ft/here/internal/colo"
	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/kvm"
	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/simnet"
	"github.com/here-ft/here/internal/translate"
	"github.com/here-ft/here/internal/vclock"
	"github.com/here-ft/here/internal/workload"
	"github.com/here-ft/here/internal/xen"
)

type rig struct {
	clk  *vclock.SimClock
	vm   *hypervisor.VM
	dst  *hypervisor.Host
	link *simnet.Link
}

func newRig(t *testing.T, heterogeneous bool) *rig {
	t.Helper()
	clk := vclock.NewSim()
	xh, err := xen.New("a", clk)
	if err != nil {
		t.Fatal(err)
	}
	var dst *hypervisor.Host
	if heterogeneous {
		dst, err = kvm.New("b", clk)
	} else {
		dst, err = xen.New("b", clk)
	}
	if err != nil {
		t.Fatal(err)
	}
	vm, err := xh.CreateVM(hypervisor.VMConfig{
		Name: "vm", MemBytes: 4096 * memory.PageSize, VCPUs: 2,
		Features: translate.CompatibleFeaturesAll(xh, dst),
	})
	if err != nil {
		t.Fatal(err)
	}
	link, err := simnet.NewLink(simnet.OmniPath100(), clk)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{clk: clk, vm: vm, dst: dst, link: link}
}

func TestNewValidation(t *testing.T) {
	r := newRig(t, false)
	if _, err := colo.New(nil, r.dst, colo.Config{Link: r.link, OutputRate: 10}); err == nil {
		t.Fatal("nil vm accepted")
	}
	if _, err := colo.New(r.vm, nil, colo.Config{Link: r.link, OutputRate: 10}); err == nil {
		t.Fatal("nil dst accepted")
	}
	if _, err := colo.New(r.vm, r.dst, colo.Config{OutputRate: 10}); err == nil {
		t.Fatal("nil link accepted")
	}
	if _, err := colo.New(r.vm, r.dst, colo.Config{Link: r.link}); err == nil {
		t.Fatal("zero output rate accepted")
	}
}

func TestHomogeneousLockSteppingIsCheap(t *testing.T) {
	r := newRig(t, false)
	w, err := workload.NewMemoryBench(20, 50_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := colo.New(r.vm, r.dst, colo.Config{
		Link: r.link, Workload: w, OutputRate: 100, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := rep.RunFor(60 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.OutputsReleased != st.OutputsCompared {
		t.Fatalf("outputs lost: %d compared, %d released",
			st.OutputsCompared, st.OutputsReleased)
	}
	// The paper's premise: LSR has low overhead and low latency with
	// matching device models.
	if st.MeanOutputLatMS > 10 {
		t.Fatalf("homogeneous LSR latency = %.1f ms, want near-instant", st.MeanOutputLatMS)
	}
	if st.DegradationPct > 10 {
		t.Fatalf("homogeneous LSR degradation = %.1f%%, want small", st.DegradationPct)
	}
	// Divergences stay rare: ~0.5% of 100 pkt/s over 60s ≈ 30.
	if st.Divergences > 100 {
		t.Fatalf("too many divergences on matching models: %d", st.Divergences)
	}
}

func TestHeterogeneousLockSteppingCollapses(t *testing.T) {
	run := func(hetero bool) colo.Stats {
		r := newRig(t, hetero)
		w, err := workload.NewMemoryBench(20, 50_000, 1)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := colo.New(r.vm, r.dst, colo.Config{
			Link: r.link, Workload: w, OutputRate: 100, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := rep.RunFor(60 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	homo := run(false)
	hetero := run(true)
	// Across hypervisors nearly every output diverges → a forced sync
	// per packet → the degradation explodes relative to the
	// homogeneous case. This is exactly why HERE uses ASR (§3.1).
	if hetero.Divergences < 50*homo.Divergences {
		t.Fatalf("hetero divergences = %d, homo = %d: expected a sync storm",
			hetero.Divergences, homo.Divergences)
	}
	if hetero.DegradationPct < 5*homo.DegradationPct {
		t.Fatalf("hetero degradation %.2f%% not far above homo %.2f%%",
			hetero.DegradationPct, homo.DegradationPct)
	}
}

func TestMaxIntervalForcesPeriodicSync(t *testing.T) {
	r := newRig(t, false)
	rep, err := colo.New(r.vm, r.dst, colo.Config{
		Link: r.link, OutputRate: 1000, Seed: 42,
		MaxInterval: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := rep.RunFor(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.Divergences < 10 {
		t.Fatalf("periodic flush missing: %d syncs in 30s at MaxInterval 2s",
			st.Divergences)
	}
}

func TestRunForRequiresRunningVM(t *testing.T) {
	r := newRig(t, false)
	rep, err := colo.New(r.vm, r.dst, colo.Config{Link: r.link, OutputRate: 10})
	if err != nil {
		t.Fatal(err)
	}
	r.vm.Pause()
	if _, err := rep.RunFor(time.Second); err == nil {
		t.Fatal("lock-stepping a paused VM succeeded")
	}
}

func TestLinkFailureAborts(t *testing.T) {
	r := newRig(t, true) // heterogeneous → sync on ~every packet
	rep, err := colo.New(r.vm, r.dst, colo.Config{Link: r.link, OutputRate: 100, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	r.link.SetDown(true)
	if _, err := rep.RunFor(10 * time.Second); err == nil {
		t.Fatal("lock-stepping over a dead link succeeded")
	}
}
