package replication_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/here-ft/here/internal/arch"
	"github.com/here-ft/here/internal/devices"
	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/kvm"
	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/period"
	"github.com/here-ft/here/internal/replication"
	"github.com/here-ft/here/internal/simnet"
	"github.com/here-ft/here/internal/translate"
	"github.com/here-ft/here/internal/vclock"
	"github.com/here-ft/here/internal/workload"
	"github.com/here-ft/here/internal/xen"
)

type rig struct {
	clk  *vclock.SimClock
	xh   *hypervisor.Host
	kh   *hypervisor.Host
	vm   *hypervisor.VM
	link *simnet.Link
}

func newRig(t *testing.T, memBytes uint64, vcpus int) *rig {
	t.Helper()
	clk := vclock.NewSim()
	xh, err := xen.New("host-a", clk)
	if err != nil {
		t.Fatal(err)
	}
	kh, err := kvm.New("host-b", clk)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := xh.CreateVM(hypervisor.VMConfig{
		Name: "protected", MemBytes: memBytes, VCPUs: vcpus,
		Features: translate.CompatibleFeatures(xh, kh),
		Devices: []hypervisor.DeviceSpec{
			{Class: arch.DeviceNet, ID: "net0", MAC: "52:54:00:00:00:01"},
			{Class: arch.DeviceBlock, ID: "disk0", CapacityB: 8 << 30},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	link, err := simnet.NewLink(simnet.OmniPath100(), clk)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{clk: clk, xh: xh, kh: kh, vm: vm, link: link}
}

func (r *rig) here(t *testing.T, cfg replication.Config) *replication.Replicator {
	t.Helper()
	cfg.Engine = replication.EngineHERE
	cfg.Transport = r.link
	rep, err := replication.New(r.vm, r.kh, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestNewValidation(t *testing.T) {
	r := newRig(t, 1<<22, 2)
	valid := replication.Config{
		Engine: replication.EngineHERE, Transport: r.link, Period: time.Second,
	}
	if _, err := replication.New(nil, r.kh, valid); err == nil {
		t.Fatal("nil vm accepted")
	}
	if _, err := replication.New(r.vm, nil, valid); err == nil {
		t.Fatal("nil dst accepted")
	}
	bad := valid
	bad.Transport = nil
	if _, err := replication.New(r.vm, r.kh, bad); err == nil {
		t.Fatal("nil link accepted")
	}
	bad = valid
	bad.Engine = 0
	if _, err := replication.New(r.vm, r.kh, bad); err == nil {
		t.Fatal("zero engine accepted")
	}
	bad = valid
	bad.Period = 0
	if _, err := replication.New(r.vm, r.kh, bad); err == nil {
		t.Fatal("no period source accepted")
	}
	// Remus with a dynamic policy is allowed: that combination is
	// exactly the Adaptive Remus baseline of §5.4.
	pm, err := period.NewAdaptiveRemus(5*time.Second, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	ok := valid
	ok.Engine = replication.EngineRemus
	ok.Period = 0
	ok.PeriodManager = pm
	// Use a homogeneous destination so feature checks pass.
	if _, err := replication.New(r.vm, r.kh, ok); err != nil {
		t.Fatalf("Adaptive-Remus-style config rejected: %v", err)
	}
}

func TestNewRejectsIncompatibleFeatureBoot(t *testing.T) {
	clk := vclock.NewSim()
	xh, err := xen.New("a", clk)
	if err != nil {
		t.Fatal(err)
	}
	kh, err := kvm.New("b", clk)
	if err != nil {
		t.Fatal(err)
	}
	// Booted with Xen's full feature set (includes PCID): cannot be
	// protected onto kvmtool.
	vm, err := xh.CreateVM(hypervisor.VMConfig{Name: "vm", MemBytes: 1 << 20, VCPUs: 1})
	if err != nil {
		t.Fatal(err)
	}
	link, err := simnet.NewLink(simnet.OmniPath100(), clk)
	if err != nil {
		t.Fatal(err)
	}
	_, err = replication.New(vm, kh, replication.Config{
		Engine: replication.EngineHERE, Transport: link, Period: time.Second,
	})
	if !errors.Is(err, translate.ErrFeatureMismatch) {
		t.Fatalf("err = %v, want ErrFeatureMismatch", err)
	}
}

func TestCycleBeforeSeedFails(t *testing.T) {
	r := newRig(t, 1<<22, 2)
	rep := r.here(t, replication.Config{Period: time.Second})
	if _, err := rep.RunCycle(); !errors.Is(err, replication.ErrNotSeeded) {
		t.Fatalf("err = %v, want ErrNotSeeded", err)
	}
	if _, _, err := rep.ReplicaImage(); !errors.Is(err, replication.ErrNotSeeded) {
		t.Fatalf("ReplicaImage err = %v, want ErrNotSeeded", err)
	}
}

func TestSeedThenCheckpointReplicatesContent(t *testing.T) {
	r := newRig(t, 512*memory.PageSize, 2)
	payload := []byte("pre-seed data")
	if err := r.vm.WriteGuest(0, 7*memory.PageSize, payload); err != nil {
		t.Fatal(err)
	}
	rep := r.here(t, replication.Config{Period: 500 * time.Millisecond})
	if _, err := rep.Seed(); err != nil {
		t.Fatal(err)
	}
	if !r.vm.Running() {
		t.Fatal("VM not resumed after seeding")
	}
	_, mem, err := rep.ReplicaImage()
	if err != nil {
		t.Fatal(err)
	}
	if r.vm.Memory().Hash() != mem.Hash() {
		t.Fatal("replica memory differs after seeding")
	}

	// Mutate the guest, run a cycle, verify the delta replicated.
	post := []byte("post-seed write")
	if err := r.vm.WriteGuest(1, 100*memory.PageSize, post); err != nil {
		t.Fatal(err)
	}
	st, err := rep.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	if st.DirtyPages == 0 {
		t.Fatal("checkpoint saw no dirty pages")
	}
	if r.vm.Memory().Hash() != mem.Hash() {
		t.Fatal("replica memory differs after checkpoint")
	}
	got := make([]byte, len(post))
	if err := mem.Read(100*memory.PageSize, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(post) {
		t.Fatalf("replicated %q", got)
	}
	if !r.vm.Running() {
		t.Fatal("VM not resumed after checkpoint")
	}
}

func TestCheckpointImageLoadsOnKVM(t *testing.T) {
	r := newRig(t, 512*memory.PageSize, 2)
	rep := r.here(t, replication.Config{Period: time.Second})
	if _, err := rep.Seed(); err != nil {
		t.Fatal(err)
	}
	if _, err := rep.RunCycle(); err != nil {
		t.Fatal(err)
	}
	image, mem, err := rep.ReplicaImage()
	if err != nil {
		t.Fatal(err)
	}
	state, err := r.kh.DecodeState(image)
	if err != nil {
		t.Fatalf("checkpoint image not kvmtool-native: %v", err)
	}
	if state.IRQChip.Kind != arch.IRQChipIOAPIC {
		t.Fatal("image not translated to IOAPIC")
	}
	if _, err := r.kh.RestoreVM(hypervisor.VMConfig{
		Name: "replica", MemBytes: mem.SizeBytes(), VCPUs: 2, Features: state.Features,
	}, state, mem); err != nil {
		t.Fatalf("replica restore failed: %v", err)
	}
}

func TestRunForProducesCheckpointTrain(t *testing.T) {
	r := newRig(t, 1024*memory.PageSize, 2)
	w, err := workload.NewMemoryBench(20, 50_000, 4)
	if err != nil {
		t.Fatal(err)
	}
	rep := r.here(t, replication.Config{Period: time.Second, Workload: w})
	if _, err := rep.Seed(); err != nil {
		t.Fatal(err)
	}
	stats, err := rep.RunFor(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) < 8 || len(stats) > 11 {
		t.Fatalf("checkpoints in 10s at T=1s: %d", len(stats))
	}
	for i, st := range stats {
		if st.Seq != uint64(i) {
			t.Fatalf("sequence gap: %+v", st)
		}
		if st.DirtyPages == 0 {
			t.Fatalf("checkpoint %d: no dirty pages under write load", i)
		}
		if st.Degradation <= 0 || st.Degradation >= 1 {
			t.Fatalf("checkpoint %d: degradation %v", i, st.Degradation)
		}
	}
	totals := rep.Totals()
	if totals.Checkpoints != uint64(len(stats)) {
		t.Fatalf("Totals.Checkpoints = %d", totals.Checkpoints)
	}
	if totals.MeanDegradation() <= 0 {
		t.Fatal("no mean degradation recorded")
	}
	if got := len(rep.History()); got != len(stats) {
		t.Fatalf("History = %d entries", got)
	}
}

// TestHistoryIsBounded: a daemon runs for months, so the per-cycle
// history is a ring of the last 128 cycles, not a log.
func TestHistoryIsBounded(t *testing.T) {
	const historyCap = 128 // replication's unexported constant
	r := newRig(t, 64*memory.PageSize, 1)
	rep := r.here(t, replication.Config{Period: 10 * time.Millisecond})
	if _, err := rep.Seed(); err != nil {
		t.Fatal(err)
	}
	var last replication.CheckpointStats
	for i := 0; i < 10*historyCap; i++ {
		writePage(t, r.vm, uint64(i%64), fmt.Sprint("cycle ", i))
		st, err := rep.RunCycle()
		if err != nil {
			t.Fatal(err)
		}
		last = st
		if got, want := len(rep.History()), min(i+1, historyCap); got != want {
			t.Fatalf("after %d cycles History holds %d entries, want %d", i+1, got, want)
		}
	}
	h := rep.History()
	if h[len(h)-1] != last || last.Seq != 10*historyCap-1 {
		t.Fatalf("newest entry = %+v, want the last cycle %+v", h[len(h)-1], last)
	}
	for i, st := range h {
		if want := uint64(9*historyCap + i); st.Seq != want {
			t.Fatalf("History[%d].Seq = %d, want %d (oldest first)", i, st.Seq, want)
		}
	}
}

func TestIOBufferReleasedOnAckOnly(t *testing.T) {
	r := newRig(t, 512*memory.PageSize, 2)
	var delivered []devices.Packet
	rep := r.here(t, replication.Config{
		Period: time.Second,
		Sink:   func(p []devices.Packet) { delivered = append(delivered, p...) },
	})
	if _, err := rep.Seed(); err != nil {
		t.Fatal(err)
	}
	rep.IOBuffer().Buffer(128, []byte("response-1"))
	if len(delivered) != 0 {
		t.Fatal("output escaped before checkpoint")
	}
	st, err := rep.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	if st.PacketsReleased != 1 || len(delivered) != 1 {
		t.Fatalf("released = %d, delivered = %d", st.PacketsReleased, len(delivered))
	}
	if string(delivered[0].Payload) != "response-1" {
		t.Fatalf("payload %q", delivered[0].Payload)
	}
	if delivered[0].Delay <= 0 {
		t.Fatal("no buffering delay recorded")
	}
}

func TestDynamicPeriodShrinksWhenIdle(t *testing.T) {
	r := newRig(t, 1024*memory.PageSize, 2)
	pm, err := period.New(period.Config{D: 0.3, Tmax: 8 * time.Second, Sigma: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	rep := r.here(t, replication.Config{PeriodManager: pm})
	if _, err := rep.Seed(); err != nil {
		t.Fatal(err)
	}
	if rep.Period() != 8*time.Second {
		t.Fatalf("initial period = %v", rep.Period())
	}
	stats, err := rep.RunFor(40 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// An idle guest has negligible pauses, so the controller tightens
	// the interval toward σ.
	last := stats[len(stats)-1]
	if last.NextPeriod > 2*time.Second {
		t.Fatalf("period did not shrink on idle guest: %v", last.NextPeriod)
	}
}

func TestLinkFailureLeavesLastCheckpointIntact(t *testing.T) {
	r := newRig(t, 512*memory.PageSize, 2)
	rep := r.here(t, replication.Config{Period: time.Second})
	if _, err := rep.Seed(); err != nil {
		t.Fatal(err)
	}
	if _, err := rep.RunCycle(); err != nil {
		t.Fatal(err)
	}
	_, mem, err := rep.ReplicaImage()
	if err != nil {
		t.Fatal(err)
	}
	hashBefore := mem.Hash()

	// Dirty the guest, then kill the link mid-run.
	if err := r.vm.WriteGuest(0, 50*memory.PageSize, []byte("lost update")); err != nil {
		t.Fatal(err)
	}
	r.link.SetDown(true)
	if _, err := rep.RunCycle(); err == nil {
		t.Fatal("cycle over dead link succeeded")
	}
	if _, mem2, err := rep.ReplicaImage(); err != nil || mem2.Hash() != hashBefore {
		t.Fatal("failed checkpoint corrupted the replica")
	}
}

func TestPrimaryCrashStopsReplication(t *testing.T) {
	r := newRig(t, 512*memory.PageSize, 2)
	rep := r.here(t, replication.Config{Period: time.Second})
	if _, err := rep.Seed(); err != nil {
		t.Fatal(err)
	}
	r.xh.Fail(hypervisor.Crashed, "CVE exploit")
	if _, err := rep.RunCycle(); !errors.Is(err, replication.ErrPrimaryDown) {
		t.Fatalf("err = %v, want ErrPrimaryDown", err)
	}
}

// Fig 8 shape: HERE's checkpoint transfer beats Remus, strongly when
// idle (threaded bitmap scan) and clearly under load (threaded copy +
// multi-stream transfer).
func TestHERECheckpointFasterThanRemus(t *testing.T) {
	run := func(engine replication.Engine, loaded bool) time.Duration {
		clk := vclock.NewSim()
		xh, err := xen.New("a", clk)
		if err != nil {
			t.Fatal(err)
		}
		var dst *hypervisor.Host
		if engine == replication.EngineHERE {
			dst, err = kvm.New("b", clk)
		} else {
			dst, err = xen.New("b", clk)
		}
		if err != nil {
			t.Fatal(err)
		}
		vm, err := xh.CreateVM(hypervisor.VMConfig{
			Name: "vm", MemBytes: 2 << 30, VCPUs: 4,
			Features: translate.CompatibleFeatures(xh, dst),
		})
		if err != nil {
			t.Fatal(err)
		}
		link, err := simnet.NewLink(simnet.OmniPath100(), clk)
		if err != nil {
			t.Fatal(err)
		}
		cfg := replication.Config{
			Engine: engine, Transport: link, Period: 8 * time.Second,
		}
		if loaded {
			w, err := workload.NewMemoryBench(30, workload.DefaultWriteRate, 5)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Workload = w
		}
		rep, err := replication.New(vm, dst, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rep.Seed(); err != nil {
			t.Fatal(err)
		}
		stats, err := rep.RunFor(40 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		var total time.Duration
		for _, st := range stats {
			total += st.Pause
		}
		return total / time.Duration(len(stats))
	}

	remusIdle := run(replication.EngineRemus, false)
	hereIdle := run(replication.EngineHERE, false)
	idleGain := 1 - hereIdle.Seconds()/remusIdle.Seconds()
	if idleGain < 0.50 || idleGain > 0.85 {
		t.Fatalf("idle checkpoint gain = %.0f%% (remus %v, here %v), want ~70%%",
			idleGain*100, remusIdle, hereIdle)
	}

	remusLoad := run(replication.EngineRemus, true)
	hereLoad := run(replication.EngineHERE, true)
	loadGain := 1 - hereLoad.Seconds()/remusLoad.Seconds()
	if loadGain < 0.30 || loadGain > 0.65 {
		t.Fatalf("loaded checkpoint gain = %.0f%% (remus %v, here %v), want ~49%%",
			loadGain*100, remusLoad, hereLoad)
	}
	if idleGain <= loadGain {
		t.Fatalf("idle gain (%.0f%%) should exceed loaded gain (%.0f%%), as in Fig 8",
			idleGain*100, loadGain*100)
	}
}

func TestOverheadWithinPaperBands(t *testing.T) {
	// §8.7: 4 vCPUs, 16 GB, microbenchmark, T = 1s: ~62% of one core
	// and a few hundred MB of RSS.
	r := newRig(t, 16<<30, 4)
	w, err := workload.NewMemoryBench(30, workload.DefaultWriteRate, 8)
	if err != nil {
		t.Fatal(err)
	}
	rep := r.here(t, replication.Config{Period: time.Second, Workload: w})
	start := r.clk.Now()
	if _, err := rep.Seed(); err != nil {
		t.Fatal(err)
	}
	if _, err := rep.RunFor(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	totals := rep.Totals()
	elapsed := r.clk.Since(start)
	cpu := totals.CPUPercent(elapsed)
	if cpu <= 1 || cpu >= 100 {
		t.Fatalf("replication CPU = %.1f%%, want well below one core", cpu)
	}
	rss := totals.RSSBytes
	if rss < 50<<20 || rss > 1<<30 {
		t.Fatalf("modeled RSS = %d MiB, want hundreds of MB", rss>>20)
	}
}

func TestEngineString(t *testing.T) {
	if replication.EngineRemus.String() != "remus" || replication.EngineHERE.String() != "here" {
		t.Fatal("engine names wrong")
	}
	if replication.Engine(9).String() == "" {
		t.Fatal("unknown engine must render")
	}
}

// TestConcurrentReplicators replicates several VMs over one shared
// link and clock from separate goroutines — the multi-tenant setup of
// §7.7 — and checks that every replica converges to its own VM's
// content with no interference.
func TestConcurrentReplicators(t *testing.T) {
	clk := vclock.NewSim()
	xh, err := xen.New("host-a", clk)
	if err != nil {
		t.Fatal(err)
	}
	kh, err := kvm.New("host-b", clk)
	if err != nil {
		t.Fatal(err)
	}
	link, err := simnet.NewLink(simnet.OmniPath100(), clk)
	if err != nil {
		t.Fatal(err)
	}

	const nVMs = 4
	reps := make([]*replication.Replicator, nVMs)
	vms := make([]*hypervisor.VM, nVMs)
	for i := 0; i < nVMs; i++ {
		vm, err := xh.CreateVM(hypervisor.VMConfig{
			Name:     fmt.Sprintf("tenant-%d", i),
			MemBytes: 256 * memory.PageSize,
			VCPUs:    2,
			Features: translate.CompatibleFeatures(xh, kh),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := vm.WriteGuest(0, memory.Addr((10+i)*memory.PageSize),
			[]byte(fmt.Sprintf("tenant %d data", i))); err != nil {
			t.Fatal(err)
		}
		rep, err := replication.New(vm, kh, replication.Config{
			Engine: replication.EngineHERE, Transport: link, Period: time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		vms[i], reps[i] = vm, rep
	}

	var wg sync.WaitGroup
	errs := make([]error, nVMs)
	for i := 0; i < nVMs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := reps[i].Seed(); err != nil {
				errs[i] = err
				return
			}
			for c := 0; c < 5; c++ {
				if err := vms[i].WriteGuest(c%2,
					memory.Addr((50+c)*memory.PageSize),
					[]byte(fmt.Sprintf("vm%d-epoch%d", i, c))); err != nil {
					errs[i] = err
					return
				}
				if _, err := reps[i].RunCycle(); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("vm %d: %v", i, err)
		}
	}
	for i := 0; i < nVMs; i++ {
		_, mem, err := reps[i].ReplicaImage()
		if err != nil {
			t.Fatal(err)
		}
		if mem.Hash() != vms[i].Memory().Hash() {
			t.Fatalf("vm %d replica diverged", i)
		}
	}
}

// Property: after every checkpoint, the replica's memory is logically
// identical to the primary's, whatever write pattern the guest issued
// — the fundamental ASR invariant.
func TestReplicaConsistencyProperty(t *testing.T) {
	f := func(ops []struct {
		Page uint16
		Data [5]byte
		Cp   bool
	}) bool {
		r := newRig(t, 1<<14*memory.PageSize, 2)
		rep := r.here(t, replication.Config{Period: 100 * time.Millisecond})
		if _, err := rep.Seed(); err != nil {
			return false
		}
		for _, op := range ops {
			page := memory.PageNum(op.Page) % r.vm.Memory().NumPages()
			addr := memory.Addr(page) * memory.PageSize
			if err := r.vm.WriteGuest(int(op.Page)%2, addr, op.Data[:]); err != nil {
				return false
			}
			if op.Cp {
				if _, err := rep.RunCycle(); err != nil {
					return false
				}
				_, mem, err := rep.ReplicaImage()
				if err != nil || mem.Hash() != r.vm.Memory().Hash() {
					return false
				}
			}
		}
		if _, err := rep.RunCycle(); err != nil {
			return false
		}
		_, mem, err := rep.ReplicaImage()
		return err == nil && mem.Hash() == r.vm.Memory().Hash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
