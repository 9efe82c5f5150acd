package failover_test

import (
	"errors"
	"testing"
	"time"

	"github.com/here-ft/here/internal/arch"
	"github.com/here-ft/here/internal/devices"
	"github.com/here-ft/here/internal/failover"
	"github.com/here-ft/here/internal/faults"
	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/kvm"
	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/replication"
	"github.com/here-ft/here/internal/simnet"
	"github.com/here-ft/here/internal/translate"
	"github.com/here-ft/here/internal/vclock"
	"github.com/here-ft/here/internal/workload"
	"github.com/here-ft/here/internal/xen"
)

type rig struct {
	clk *vclock.SimClock
	xh  *hypervisor.Host
	kh  *hypervisor.Host
	vm  *hypervisor.VM
	rep *replication.Replicator
}

func newRig(t *testing.T, memBytes uint64) *rig {
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
		Name: "protected", MemBytes: memBytes, VCPUs: 2,
		Features: translate.CompatibleFeatures(xh, kh),
		Devices: []hypervisor.DeviceSpec{
			{Class: arch.DeviceNet, ID: "net0", MAC: "52:54:00:00:00:01"},
			{Class: arch.DeviceBlock, ID: "disk0", CapacityB: 4 << 30},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	link, err := simnet.NewLink(simnet.OmniPath100(), clk)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := replication.New(vm, kh, replication.Config{
		Engine: replication.EngineHERE, Transport: link, Period: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &rig{clk: clk, xh: xh, kh: kh, vm: vm, rep: rep}
}

func TestMonitorValidation(t *testing.T) {
	r := newRig(t, 1<<22)
	if _, err := failover.NewMonitor(nil, 0, 0); err == nil {
		t.Fatal("nil primary accepted")
	}
	if _, err := failover.NewMonitor(r.xh, -1, 0); err == nil {
		t.Fatal("negative interval accepted")
	}
	if _, err := failover.NewMonitor(r.xh, 0, -1); err == nil {
		t.Fatal("negative timeout accepted")
	}
}

func TestMonitorHealthyTimesOut(t *testing.T) {
	r := newRig(t, 1<<22)
	m, err := failover.NewMonitor(r.xh, 100*time.Millisecond, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.WaitForFailure(2 * time.Second); !errors.Is(err, failover.ErrNoFailure) {
		t.Fatalf("err = %v, want ErrNoFailure", err)
	}
}

func TestMonitorDetectsAllFailureModes(t *testing.T) {
	for _, state := range []hypervisor.HealthState{
		hypervisor.Crashed, hypervisor.Hung, hypervisor.Starved,
	} {
		t.Run(state.String(), func(t *testing.T) {
			r := newRig(t, 1<<22)
			m, err := failover.NewMonitor(r.xh, 100*time.Millisecond, 300*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			r.xh.Fail(state, "injected")
			detect, err := m.WaitForFailure(10 * time.Second)
			if err != nil {
				t.Fatal(err)
			}
			// Detection latency is the missed-heartbeat timeout (the
			// failure predates the first poll here).
			if detect < 300*time.Millisecond || detect > time.Second {
				t.Fatalf("detection latency = %v", detect)
			}
		})
	}
}

func TestActivateRestoresExactGuestContent(t *testing.T) {
	r := newRig(t, 1024*memory.PageSize)
	record := []byte("committed transaction #42")
	if err := r.vm.WriteGuest(0, 33*memory.PageSize, record); err != nil {
		t.Fatal(err)
	}
	if _, err := r.rep.Seed(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.rep.RunCycle(); err != nil {
		t.Fatal(err)
	}
	primaryHash := r.vm.Memory().Hash()

	// The primary dies; activate the replica on kvmtool.
	r.xh.Fail(hypervisor.Crashed, "CVE-2020-XXXX DoS")
	res, err := failover.ActivateOpts(r.rep, "protected-replica", failover.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.VM.Running() {
		t.Fatal("replica not running after activation")
	}
	if res.VM.Hypervisor().Kind() != hypervisor.KindKVM {
		t.Fatal("replica not on the secondary hypervisor")
	}
	if res.VM.Memory().Hash() != primaryHash {
		t.Fatal("replica memory differs from the last checkpoint")
	}
	got := make([]byte, len(record))
	if err := res.VM.ReadGuest(33*memory.PageSize, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(record) {
		t.Fatalf("replica lost committed data: %q", got)
	}
	// The replica runs virtio devices — heterogeneous device models.
	for _, d := range res.VM.MachineState().Devices {
		switch d.Model {
		case "virtio-net", "virtio-blk", "virtio-console":
		default:
			t.Fatalf("replica device %q kept model %q", d.ID, d.Model)
		}
	}
}

// Fig 7 shape: resumption is milliseconds and independent of memory
// size.
func TestResumeTimeMillisecondsAndSizeIndependent(t *testing.T) {
	var times []time.Duration
	for _, size := range []uint64{1 << 28, 1 << 30, 4 << 30} {
		r := newRig(t, size)
		if _, err := r.rep.Seed(); err != nil {
			t.Fatal(err)
		}
		if _, err := r.rep.RunCycle(); err != nil {
			t.Fatal(err)
		}
		r.xh.Fail(hypervisor.Crashed, "injected")
		res, err := failover.ActivateOpts(r.rep, "replica", failover.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.ResumeTime < 500*time.Microsecond || res.ResumeTime > 50*time.Millisecond {
			t.Fatalf("%d B VM: resume time = %v, want milliseconds", size, res.ResumeTime)
		}
		times = append(times, res.ResumeTime)
	}
	for i := 1; i < len(times); i++ {
		if times[i] != times[0] {
			t.Fatalf("resume time varies with memory size: %v", times)
		}
	}
}

func TestActivateDropsUnackedOutput(t *testing.T) {
	r := newRig(t, 512*memory.PageSize)
	if _, err := r.rep.Seed(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.rep.RunCycle(); err != nil {
		t.Fatal(err)
	}
	// Output produced after the last acked checkpoint must vanish.
	r.rep.IOBuffer().Buffer(100, []byte("uncommitted response"))
	r.xh.Fail(hypervisor.Crashed, "injected")
	res, err := failover.ActivateOpts(r.rep, "replica", failover.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.PacketsDropped != 1 {
		t.Fatalf("PacketsDropped = %d, want 1", res.PacketsDropped)
	}
	if r.rep.IOBuffer().Pending() != 0 {
		t.Fatal("buffer still holds uncommitted output")
	}
}

func TestActivateRequiresHealthySecondary(t *testing.T) {
	r := newRig(t, 512*memory.PageSize)
	if _, err := r.rep.Seed(); err != nil {
		t.Fatal(err)
	}
	r.kh.Fail(hypervisor.Crashed, "double exploit")
	if _, err := failover.ActivateOpts(r.rep, "replica", failover.Options{}); err == nil {
		t.Fatal("activation on crashed secondary succeeded")
	}
}

func TestActivateBeforeSeedFails(t *testing.T) {
	r := newRig(t, 512*memory.PageSize)
	if _, err := failover.ActivateOpts(r.rep, "replica", failover.Options{}); err == nil {
		t.Fatal("activation before seeding succeeded")
	}
	if _, err := failover.ActivateOpts(nil, "replica", failover.Options{}); err == nil {
		t.Fatal("nil replicator accepted")
	}
}

func TestEndToEndWorkloadSurvivesFailover(t *testing.T) {
	r := newRig(t, 2048*memory.PageSize)
	w, err := workload.NewMemoryBench(20, 50_000, 6)
	if err != nil {
		t.Fatal(err)
	}
	r.rep.SetWorkload(w)
	if _, err := r.rep.Seed(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.rep.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	checkpointHash := r.vm.Memory().Hash()

	r.xh.Fail(hypervisor.Hung, "resource exhaustion exploit")
	m, err := failover.NewMonitor(r.xh, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.WaitForFailure(time.Minute); err != nil {
		t.Fatal(err)
	}
	res, err := failover.ActivateOpts(r.rep, "replica", failover.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.VM.Memory().Hash() != checkpointHash {
		t.Fatal("replica state does not match the last checkpoint")
	}
	// The replica accepts new writes: service continues.
	if err := res.VM.WriteGuest(0, 0, []byte("post-failover write")); err != nil {
		t.Fatalf("replica cannot execute: %v", err)
	}
}

// TestFailbackRoundTrip drives a full disaster-recovery cycle: protect
// Xen→KVM, fail over to KVM, protect the surviving replica back
// KVM→Xen (the translator's reverse direction), and fail over again.
// Guest data must survive both hypervisor boundary crossings.
func TestFailbackRoundTrip(t *testing.T) {
	r := newRig(t, 1024*memory.PageSize)
	record := []byte("survives two hypervisor hops")
	if err := r.vm.WriteGuest(0, 21*memory.PageSize, record); err != nil {
		t.Fatal(err)
	}
	if _, err := r.rep.Seed(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.rep.RunCycle(); err != nil {
		t.Fatal(err)
	}

	// First failover: Xen dies, replica activates on KVM.
	r.xh.Fail(hypervisor.Crashed, "xen zero-day")
	res1, err := failover.ActivateOpts(r.rep, "on-kvm", failover.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res1.VM.Hypervisor().Kind() != hypervisor.KindKVM {
		t.Fatal("first failover not on KVM")
	}

	// The Xen host is repaired (rebooted); protect KVM→Xen.
	r.xh.Recover()
	link2, err := simnet.NewLink(simnet.OmniPath100(), r.clk)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := replication.New(res1.VM, r.xh, replication.Config{
		Engine: replication.EngineHERE, Transport: link2, Period: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep2.Seed(); err != nil {
		t.Fatal(err)
	}
	if err := res1.VM.WriteGuest(1, 22*memory.PageSize, []byte("written on kvm")); err != nil {
		t.Fatal(err)
	}
	if _, err := rep2.RunCycle(); err != nil {
		t.Fatal(err)
	}

	// Second failover: KVM dies, service returns to Xen.
	r.kh.Fail(hypervisor.Hung, "kvm zero-day")
	res2, err := failover.ActivateOpts(rep2, "back-on-xen", failover.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.VM.Hypervisor().Kind() != hypervisor.KindXen {
		t.Fatal("failback not on Xen")
	}
	// Devices are PV again after the return trip.
	for _, d := range res2.VM.MachineState().Devices {
		switch d.Model {
		case "xen-netfront", "xen-blkfront", "xen-console":
		default:
			t.Fatalf("device %q has model %q after failback", d.ID, d.Model)
		}
	}
	got := make([]byte, len(record))
	if err := res2.VM.ReadGuest(21*memory.PageSize, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(record) {
		t.Fatalf("original data lost: %q", got)
	}
	got2 := make([]byte, 14)
	if err := res2.VM.ReadGuest(22*memory.PageSize, got2); err != nil {
		t.Fatal(err)
	}
	if string(got2) != "written on kvm" {
		t.Fatalf("kvm-era data lost: %q", got2)
	}
}

// TestDiskCrashConsistencyAcrossFailover verifies the replicated PV
// disk: committed epochs reach the replica disk; writes after the
// last acknowledged checkpoint are discarded at failover, leaving the
// disk crash-consistent with the replicated memory image.
func TestDiskCrashConsistencyAcrossFailover(t *testing.T) {
	r := newRig(t, 512*memory.PageSize)
	disk := r.rep.AttachDisk(1 << 20)
	if got := r.rep.AttachDisk(1 << 30); got != disk {
		t.Fatal("AttachDisk not idempotent")
	}
	if _, err := r.rep.Seed(); err != nil {
		t.Fatal(err)
	}

	committed := make([]byte, 512)
	copy(committed, "durable-record")
	if err := disk.Write(10, committed); err != nil {
		t.Fatal(err)
	}
	if _, err := r.rep.RunCycle(); err != nil {
		t.Fatal(err)
	}
	// A write the checkpoint never covered.
	uncommitted := make([]byte, 512)
	copy(uncommitted, "lost-on-failover")
	if err := disk.Write(11, uncommitted); err != nil {
		t.Fatal(err)
	}

	r.xh.Fail(hypervisor.Crashed, "injected")
	res, err := failover.ActivateOpts(r.rep, "replica", failover.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Disk == nil {
		t.Fatal("failover result missing the replica disk")
	}
	if res.DiskWritesDropped != 1 {
		t.Fatalf("DiskWritesDropped = %d, want 1", res.DiskWritesDropped)
	}
	buf := make([]byte, 512)
	if err := res.Disk.ReadSector(10, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf[:14]) != "durable-record" {
		t.Fatalf("committed sector lost: %q", buf[:14])
	}
	if err := res.Disk.ReadSector(11, buf); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("uncommitted sector leaked onto the replica disk")
		}
	}
}

func TestMonitorMissDerivation(t *testing.T) {
	r := newRig(t, 1<<22)
	m, err := failover.NewMonitor(r.xh, 100*time.Millisecond, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if m.Misses() != 3 {
		t.Fatalf("Misses = %d, want ceil(300/100) = 3", m.Misses())
	}
	m, err = failover.NewMonitorConfig(r.xh, failover.Config{
		Interval: 100 * time.Millisecond, Timeout: 250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Misses() != 3 {
		t.Fatalf("Misses = %d, want ceil(250/100) = 3", m.Misses())
	}
	m, err = failover.NewMonitorConfig(r.xh, failover.Config{Misses: 7})
	if err != nil {
		t.Fatal(err)
	}
	if m.Misses() != 7 {
		t.Fatalf("explicit Misses = %d, want 7", m.Misses())
	}
	if _, err := failover.NewMonitorConfig(r.xh, failover.Config{Misses: -1}); err == nil {
		t.Fatal("negative miss threshold accepted")
	}
}

// TestLatencySpikeDoesNotTriggerDetection: a heartbeat path whose
// round-trip briefly exceeds the interval loses beats, but fewer than
// the consecutive-miss threshold — no spurious failure declaration.
func TestLatencySpikeDoesNotTriggerDetection(t *testing.T) {
	plan := faults.New(vclock.NewSim(), 1)
	clk := plan.Clock()
	xh, err := xen.New("host-a", clk)
	if err != nil {
		t.Fatal(err)
	}
	link, err := simnet.NewLink(simnet.TenGbE(), clk)
	if err != nil {
		t.Fatal(err)
	}
	plan.AttachLink(link)
	// The spike covers two heartbeats — below the 3-consecutive-miss
	// threshold, so the counter resets on the third, healthy beat.
	plan.LatencySpike(0, 250*time.Millisecond, time.Second)
	m, err := failover.NewMonitorConfig(xh, failover.Config{
		Interval: 100 * time.Millisecond, Timeout: 300 * time.Millisecond, Via: link,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.WaitForFailure(2 * time.Second); !errors.Is(err, failover.ErrNoFailure) {
		t.Fatalf("err = %v, want ErrNoFailure (spike must not trigger failover)", err)
	}
	if !m.Healthy() {
		t.Fatal("out-of-band probe must still see the primary healthy")
	}
}

// TestLinkDeathTriggersDetectionButGuardRefuses: a dead heartbeat path
// declares failure after N consecutive misses, but the out-of-band
// probe knows the primary is alive — activation must refuse.
func TestLinkDeathTriggersDetectionButGuardRefuses(t *testing.T) {
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
		Name: "vm", MemBytes: 1 << 22, VCPUs: 2,
		Features: translate.CompatibleFeatures(xh, kh),
	})
	if err != nil {
		t.Fatal(err)
	}
	link, err := simnet.NewLink(simnet.OmniPath100(), clk)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := replication.New(vm, kh, replication.Config{
		Engine: replication.EngineHERE, Transport: link, Period: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep.Seed(); err != nil {
		t.Fatal(err)
	}
	m, err := failover.NewMonitorConfig(xh, failover.Config{Via: link})
	if err != nil {
		t.Fatal(err)
	}

	link.SetDown(true)
	detect, err := m.WaitForFailure(10 * time.Second)
	if err != nil {
		t.Fatalf("dead heartbeat path not detected: %v", err)
	}
	if detect < 300*time.Millisecond {
		t.Fatalf("detection latency %v below the 3-miss threshold", detect)
	}
	// The host is fine — only the path died. The guard must refuse.
	_, err = failover.ActivateOpts(rep, "replica", failover.Options{Monitor: m})
	if !errors.Is(err, failover.ErrSplitBrain) {
		t.Fatalf("err = %v, want ErrSplitBrain", err)
	}
	if rep.State() == replication.StateFailedOver {
		t.Fatal("refused activation still marked the replicator failed over")
	}
	// Force overrides (operator fenced the primary out-of-band).
	res, err := failover.ActivateOpts(rep, "replica", failover.Options{Monitor: m, Force: true})
	if err != nil {
		t.Fatalf("forced activation failed: %v", err)
	}
	if !res.VM.Running() {
		t.Fatal("forced activation did not resume the replica")
	}
}

func TestDoubleActivationRefused(t *testing.T) {
	r := newRig(t, 512*memory.PageSize)
	if _, err := r.rep.Seed(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.rep.RunCycle(); err != nil {
		t.Fatal(err)
	}
	r.xh.Fail(hypervisor.Crashed, "injected")
	if _, err := failover.ActivateOpts(r.rep, "replica", failover.Options{}); err != nil {
		t.Fatal(err)
	}
	if r.rep.State() != replication.StateFailedOver {
		t.Fatalf("state = %v after activation", r.rep.State())
	}
	if _, err := failover.ActivateOpts(r.rep, "replica-2", failover.Options{}); !errors.Is(err, failover.ErrAlreadyActivated) {
		t.Fatalf("err = %v, want ErrAlreadyActivated", err)
	}
	// Replication is over too.
	if _, err := r.rep.RunCycle(); !errors.Is(err, replication.ErrFailedOver) {
		t.Fatalf("RunCycle after activation: %v, want ErrFailedOver", err)
	}
}

// TestFailoverRacesMidFlightCheckpoint is the never-acked-checkpoint
// race: the primary dies while a checkpoint is in flight (its transfer
// failed, never acknowledged). The activated replica must land on the
// last acknowledged epoch, with the mid-flight epoch's packets and
// disk writes dropped, not applied.
func TestFailoverRacesMidFlightCheckpoint(t *testing.T) {
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
		Name: "vm", MemBytes: 512 * memory.PageSize, VCPUs: 2,
		Features: translate.CompatibleFeatures(xh, kh),
		Devices: []hypervisor.DeviceSpec{
			{Class: arch.DeviceNet, ID: "net0", MAC: "52:54:00:00:00:03"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	link, err := simnet.NewLink(simnet.OmniPath100(), clk)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := replication.New(vm, kh, replication.Config{
		Engine: replication.EngineHERE, Transport: link, Period: time.Second,
		Retry: replication.RetryPolicy{MaxAttempts: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	disk := rep.AttachDisk(1 << 20)
	if _, err := rep.Seed(); err != nil {
		t.Fatal(err)
	}

	// Epoch 1: acknowledged. This is the state failover must land on.
	committed := make([]byte, 512)
	copy(committed, "acked-sector")
	if err := disk.Write(5, committed); err != nil {
		t.Fatal(err)
	}
	rep.IOBuffer().Buffer(64, []byte("acked-packet"))
	var released int
	rep.SetSink(func(p []devices.Packet) { released += len(p) })
	if _, err := rep.RunCycle(); err != nil {
		t.Fatal(err)
	}
	_, mem, err := rep.ReplicaImage()
	if err != nil {
		t.Fatal(err)
	}
	ackedHash := mem.Hash()

	// Epoch 2: in flight when the link — then the primary — dies.
	if err := vm.WriteGuest(0, 50*memory.PageSize, []byte("never acked")); err != nil {
		t.Fatal(err)
	}
	unacked := make([]byte, 512)
	copy(unacked, "unacked-sector")
	if err := disk.Write(6, unacked); err != nil {
		t.Fatal(err)
	}
	rep.IOBuffer().Buffer(64, []byte("unacked-packet"))
	link.SetDown(true)
	if _, err := rep.RunCycle(); err == nil {
		t.Fatal("mid-flight checkpoint succeeded over a dead link")
	}
	xh.Fail(hypervisor.Crashed, "dies with checkpoint in flight")

	res, err := failover.ActivateOpts(rep, "replica", failover.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The replica is the acknowledged epoch — not the mid-flight one.
	if res.VM.Memory().Hash() != ackedHash {
		t.Fatal("replica not on the last acknowledged epoch")
	}
	probe := make([]byte, len("never acked"))
	if err := res.VM.ReadGuest(50*memory.PageSize, probe); err != nil {
		t.Fatal(err)
	}
	if string(probe) == "never acked" {
		t.Fatal("never-acknowledged write visible on the replica")
	}
	// The unacked epoch's output and disk write are dropped...
	if res.PacketsDropped != 1 {
		t.Fatalf("PacketsDropped = %d, want 1 (the unacked packet)", res.PacketsDropped)
	}
	if res.DiskWritesDropped != 1 {
		t.Fatalf("DiskWritesDropped = %d, want 1 (the unacked sector)", res.DiskWritesDropped)
	}
	// ...while the acknowledged epoch's effects survived.
	buf := make([]byte, 512)
	if err := res.Disk.ReadSector(5, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf[:12]) != "acked-sector" {
		t.Fatalf("acknowledged sector lost: %q", buf[:12])
	}
	if released != 1 {
		t.Fatalf("released %d acked packets, want 1", released)
	}
}

// TestGuestClockMonotonicAcrossFailover checks that the replica's
// guest-visible clocks (system time and TSC) never run backwards
// relative to the checkpoint it resumed from — the translator carries
// timer state forward (§7.4).
func TestGuestClockMonotonicAcrossFailover(t *testing.T) {
	r := newRig(t, 512*memory.PageSize)
	if _, err := r.rep.Seed(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.rep.RunCycle(); err != nil {
		t.Fatal(err)
	}
	image, _, err := r.rep.ReplicaImage()
	if err != nil {
		t.Fatal(err)
	}
	checkpointState, err := r.kh.DecodeState(image)
	if err != nil {
		t.Fatal(err)
	}

	r.xh.Fail(hypervisor.Crashed, "injected")
	res, err := failover.ActivateOpts(r.rep, "replica", failover.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res.VM.Pause()
	after, err := res.VM.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	if after.Timers.SystemTimeNS < checkpointState.Timers.SystemTimeNS {
		t.Fatalf("guest clock ran backwards: %d < %d",
			after.Timers.SystemTimeNS, checkpointState.Timers.SystemTimeNS)
	}
	for i := range after.VCPUs {
		if after.VCPUs[i].TSC < checkpointState.VCPUs[i].TSC {
			t.Fatalf("vcpu %d TSC ran backwards", i)
		}
	}
	if after.Timers.TSCFrequencyHz != checkpointState.Timers.TSCFrequencyHz {
		t.Fatal("TSC frequency changed across failover")
	}
}
