package replication_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/here-ft/here/internal/arch"
	"github.com/here-ft/here/internal/chv"
	"github.com/here-ft/here/internal/failover"
	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/kvm"
	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/replication"
	"github.com/here-ft/here/internal/simnet"
	"github.com/here-ft/here/internal/translate"
	"github.com/here-ft/here/internal/vclock"
	"github.com/here-ft/here/internal/xen"
)

// chainRig is a 1+2 fleet: a Xen primary replicating onto a KVM leg
// and a Cloud Hypervisor leg over independent simulated links.
type chainRig struct {
	clk   *vclock.SimClock
	ph    *hypervisor.Host
	secA  *hypervisor.Host // leg 0 (KVM)
	secB  *hypervisor.Host // leg 1 (CHV)
	vm    *hypervisor.VM
	linkA *simnet.Link
	linkB *simnet.Link
	legs  []replication.Secondary
}

func newChainRig(t *testing.T, memBytes uint64) *chainRig {
	t.Helper()
	clk := vclock.NewSim()
	ph, err := xen.New("x0", clk)
	if err != nil {
		t.Fatal(err)
	}
	secA, err := kvm.New("k1", clk)
	if err != nil {
		t.Fatal(err)
	}
	secB, err := chv.New("c2", clk)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := ph.CreateVM(hypervisor.VMConfig{
		Name: "protected", MemBytes: memBytes, VCPUs: 2,
		Features: translate.CompatibleFeaturesAll(ph, secA, secB),
		Devices: []hypervisor.DeviceSpec{
			{Class: arch.DeviceNet, ID: "net0", MAC: "52:54:00:00:00:01"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	linkA, err := simnet.NewLink(simnet.OmniPath100(), clk)
	if err != nil {
		t.Fatal(err)
	}
	linkB, err := simnet.NewLink(simnet.OmniPath100(), clk)
	if err != nil {
		t.Fatal(err)
	}
	return &chainRig{
		clk: clk, ph: ph, secA: secA, secB: secB, vm: vm,
		linkA: linkA, linkB: linkB,
		legs: []replication.Secondary{
			{Host: secA, Transport: linkA},
			{Host: secB, Transport: linkB},
		},
	}
}

func (r *chainRig) chain(t *testing.T, cfg replication.Config) *replication.Replicator {
	t.Helper()
	cfg.Engine = replication.EngineHERE
	if cfg.Period == 0 {
		cfg.Period = 500 * time.Millisecond
	}
	rep, err := replication.NewChain(r.vm, r.legs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func seedChain(t *testing.T, rep *replication.Replicator) {
	t.Helper()
	if _, err := rep.Seed(); err != nil {
		t.Fatal(err)
	}
}

func writePage(t *testing.T, vm *hypervisor.VM, page uint64, payload string) {
	t.Helper()
	if err := vm.WriteGuest(0, memory.Addr(page*memory.PageSize), []byte(payload)); err != nil {
		t.Fatal(err)
	}
}

func legPage(t *testing.T, rep *replication.Replicator, leg int, page uint64, n int) string {
	t.Helper()
	_, mem, err := rep.ReplicaImageAt(leg)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, n)
	if err := mem.Read(memory.Addr(page*memory.PageSize), buf); err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

func TestChainFanoutCommitsOnAllLegs(t *testing.T) {
	r := newChainRig(t, 512*memory.PageSize)
	rep := r.chain(t, replication.Config{})
	if got := rep.NumLegs(); got != 2 {
		t.Fatalf("NumLegs = %d, want 2", got)
	}
	if got := rep.Quorum(); got != 2 {
		t.Fatalf("default quorum = %d, want all (2)", got)
	}
	seedChain(t, rep)
	const payload = "fan-out to both flavors"
	writePage(t, r.vm, 7, payload)
	if _, err := rep.RunCycle(); err != nil {
		t.Fatal(err)
	}
	for leg := 0; leg < 2; leg++ {
		if got := legPage(t, rep, leg, 7, len(payload)); got != payload {
			t.Fatalf("leg %d content = %q, want %q", leg, got, payload)
		}
	}
	legs := rep.Legs()
	if legs[0].AckedEpoch != legs[1].AckedEpoch || legs[0].AckedEpoch == 0 {
		t.Fatalf("acked epochs diverged without failures: %+v", legs)
	}
	if legs[0].Host != "k1" || legs[1].Host != "c2" {
		t.Fatalf("leg hosts = %s, %s", legs[0].Host, legs[1].Host)
	}
	if legs[0].PendingPages != 0 || legs[1].PendingPages != 0 {
		t.Fatalf("acked legs kept a backlog: %+v", legs)
	}
}

// TestChainLaggingLegCatchesUp exercises quorum-1 commits: a leg whose
// link drops misses epochs while the other keeps committing, and its
// accumulated pending backlog ships as one larger delta once the link
// heals — no re-seed, no divergence.
func TestChainLaggingLegCatchesUp(t *testing.T) {
	r := newChainRig(t, 512*memory.PageSize)
	rep := r.chain(t, replication.Config{Quorum: 1})
	if got := rep.Quorum(); got != 1 {
		t.Fatalf("quorum = %d, want 1", got)
	}
	seedChain(t, rep)

	const first = "written while leg 1 was dark"
	writePage(t, r.vm, 3, first)
	r.linkB.SetDown(true)
	if _, err := rep.RunCycle(); err != nil {
		t.Fatalf("quorum-1 cycle failed with one leg down: %v", err)
	}
	legs := rep.Legs()
	if legs[0].AckedEpoch <= legs[1].AckedEpoch {
		t.Fatalf("leg 0 did not advance past the dark leg: %+v", legs)
	}
	if legs[1].PendingPages == 0 {
		t.Fatal("dark leg accumulated no backlog")
	}

	const second = "written after the link healed"
	writePage(t, r.vm, 4, second)
	r.linkB.SetDown(false)
	if _, err := rep.RunCycle(); err != nil {
		t.Fatal(err)
	}
	legs = rep.Legs()
	if legs[0].AckedEpoch != legs[1].AckedEpoch {
		t.Fatalf("legs did not reconverge: %+v", legs)
	}
	if legs[1].PendingPages != 0 {
		t.Fatalf("caught-up leg kept a backlog: %+v", legs)
	}
	// The catch-up delta must carry the epoch the leg missed, not just
	// the new one.
	if got := legPage(t, rep, 1, 3, len(first)); got != first {
		t.Fatalf("missed epoch not caught up: %q", got)
	}
	if got := legPage(t, rep, 1, 4, len(second)); got != second {
		t.Fatalf("current epoch missing: %q", got)
	}
}

// TestChainFreshestLegActivatedWhenBothStale is the N-way failover
// rule: with both secondaries stale (their links down at crash time),
// failover must activate the leg with the freshest *acknowledged*
// epoch, so no committed state regresses — even though that leg was
// the lagging one earlier in the run.
func TestChainFreshestLegActivatedWhenBothStale(t *testing.T) {
	r := newChainRig(t, 512*memory.PageSize)
	rep := r.chain(t, replication.Config{Quorum: 1})
	seedChain(t, rep)
	if _, err := rep.RunCycle(); err != nil {
		t.Fatal(err)
	}

	// Epoch N: only leg 0 acknowledges.
	writePage(t, r.vm, 3, "epoch N")
	r.linkB.SetDown(true)
	if _, err := rep.RunCycle(); err != nil {
		t.Fatal(err)
	}

	// Epoch N+1: only leg 1 acknowledges — it catches up its backlog
	// and is now strictly fresher than leg 0.
	const freshest = "epoch N+1, the freshest committed state"
	writePage(t, r.vm, 5, freshest)
	r.linkB.SetDown(false)
	r.linkA.SetDown(true)
	if _, err := rep.RunCycle(); err != nil {
		t.Fatal(err)
	}

	// Both links dark: the next epoch cannot commit anywhere.
	r.linkB.SetDown(true)
	writePage(t, r.vm, 6, "never committed")
	if _, err := rep.RunCycle(); err == nil {
		t.Fatal("cycle committed with every link down")
	}

	leg, err := rep.FreshestLeg()
	if err != nil {
		t.Fatal(err)
	}
	if leg != 1 {
		t.Fatalf("FreshestLeg = %d, want 1 (acked most recently)", leg)
	}
	hA, _ := rep.HandoffAt(0)
	hB, _ := rep.HandoffAt(1)
	if hB.Seq < hA.Seq {
		t.Fatalf("freshest leg is behind: leg1 seq %d < leg0 seq %d", hB.Seq, hA.Seq)
	}

	// Activate it and prove the freshest committed epoch survived while
	// the uncommitted write did not leak.
	r.ph.Fail(hypervisor.Crashed, "primary gone")
	res, err := failover.ActivateOpts(rep, "protected-replica", failover.Options{Leg: failover.AutoLeg})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(freshest))
	if err := res.VM.ReadGuest(5*memory.PageSize, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != freshest {
		t.Fatalf("activated replica lost the freshest acked epoch: %q", buf)
	}
	probe := make([]byte, len("never committed"))
	if err := res.VM.ReadGuest(6*memory.PageSize, probe); err != nil {
		t.Fatal(err)
	}
	if string(probe) == "never committed" {
		t.Fatal("uncommitted epoch leaked into the activated replica")
	}
}

// fencedErr is a permanent transport failure (e.g. the peer rejected
// our fencing token).
type fencedErr struct{}

func (fencedErr) Error() string   { return "fenced: replication token superseded" }
func (fencedErr) Permanent() bool { return true }

// fencingLink wraps a simulated link and, once fenced, fails every
// transfer permanently.
type fencingLink struct {
	*simnet.Link
	fenced bool
}

func (f *fencingLink) Transfer(bytes int64, streams int) (time.Duration, error) {
	if f.fenced {
		return 0, fencedErr{}
	}
	return f.Link.Transfer(bytes, streams)
}

// TestChainFencedLegDiesReplicationContinues: a permanently failed
// transport must not take the whole chain down. The leg is marked
// dead (with its cause), stops counting toward the quorum, and the
// surviving leg keeps committing epochs.
func TestChainFencedLegDiesReplicationContinues(t *testing.T) {
	r := newChainRig(t, 512*memory.PageSize)
	fl := &fencingLink{Link: r.linkB}
	r.legs[1].Transport = fl
	rep := r.chain(t, replication.Config{Quorum: 1})
	seedChain(t, rep)
	if _, err := rep.RunCycle(); err != nil {
		t.Fatal(err)
	}

	fl.fenced = true
	writePage(t, r.vm, 9, "after the fence")
	if _, err := rep.RunCycle(); err != nil {
		t.Fatalf("chain died with a live leg remaining: %v", err)
	}
	legs := rep.Legs()
	if !legs[1].Dead {
		t.Fatalf("fenced leg not marked dead: %+v", legs)
	}
	if !strings.Contains(legs[1].DeadCause, "fenced") {
		t.Fatalf("DeadCause = %q", legs[1].DeadCause)
	}
	if legs[0].Dead {
		t.Fatal("surviving leg marked dead")
	}

	// The dead leg must never be a failover target.
	for i := 0; i < 3; i++ {
		if _, err := rep.RunCycle(); err != nil {
			t.Fatal(err)
		}
	}
	leg, err := rep.FreshestLeg()
	if err != nil {
		t.Fatal(err)
	}
	if leg != 0 {
		t.Fatalf("FreshestLeg = %d picked the dead leg", leg)
	}
	if got := legPage(t, rep, 0, 9, len("after the fence")); got != "after the fence" {
		t.Fatalf("survivor content = %q", got)
	}

	// The control plane reaps dead legs with DropLeg.
	if err := rep.DropLeg(1); err != nil {
		t.Fatal(err)
	}
	if got := rep.NumLegs(); got != 1 {
		t.Fatalf("NumLegs after reap = %d", got)
	}
}

func TestChainRefusesSenderFanOut(t *testing.T) {
	r := newChainRig(t, 64*memory.PageSize)
	legs := []replication.Secondary{
		{Host: r.secA, Transport: &fakeSender{Link: r.linkA}},
		{Host: r.secB, Transport: r.linkB},
	}
	if _, err := replication.NewChain(r.vm, legs, replication.Config{
		Engine: replication.EngineHERE, Period: time.Second,
	}); err == nil {
		t.Fatal("multi-leg chain with a CheckpointSender accepted")
	}
	// Resume is a single-leg re-attach; a multi-leg resume is refused.
	if _, err := replication.NewChain(r.vm, r.legs, replication.Config{
		Engine: replication.EngineHERE, Period: time.Second,
		Resume: &replication.ResumeState{},
	}); err == nil {
		t.Fatal("multi-leg resume accepted")
	}
	// AddLeg onto a sender-backed single-leg chain is refused too.
	rep, err := replication.NewChain(r.vm,
		[]replication.Secondary{{Host: r.secA, Transport: &fakeSender{Link: r.linkA}}},
		replication.Config{Engine: replication.EngineHERE, Period: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.AddLeg(replication.Secondary{Host: r.secB, Transport: r.linkB}); err == nil {
		t.Fatal("AddLeg onto a sender-backed chain accepted")
	}
}

// TestAddLegSeedsInsideNextPause: a leg added mid-run waits for the
// next checkpoint pause, is seeded with the full consistent snapshot
// there, and participates in every cycle after.
func TestAddLegSeedsInsideNextPause(t *testing.T) {
	r := newChainRig(t, 512*memory.PageSize)
	rep, err := replication.NewChain(r.vm,
		[]replication.Secondary{{Host: r.secA, Transport: r.linkA}},
		replication.Config{Engine: replication.EngineHERE, Period: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	seedChain(t, rep)
	const early = "pre-join state"
	writePage(t, r.vm, 2, early)
	if _, err := rep.RunCycle(); err != nil {
		t.Fatal(err)
	}

	if err := rep.AddLeg(replication.Secondary{Host: r.secB, Transport: r.linkB}); err != nil {
		t.Fatal(err)
	}
	legs := rep.Legs()
	if len(legs) != 2 || !legs[1].NeedsSeed {
		t.Fatalf("joining leg not waiting for its seed: %+v", legs)
	}
	if _, _, err := rep.ReplicaImageAt(1); !errors.Is(err, replication.ErrNotSeeded) {
		t.Fatalf("unseeded leg served an image: %v", err)
	}

	if _, err := rep.RunCycle(); err != nil {
		t.Fatal(err)
	}
	legs = rep.Legs()
	if legs[1].NeedsSeed {
		t.Fatalf("leg not seeded inside the pause: %+v", legs)
	}
	// The in-pause seed carries state from before the leg joined.
	if got := legPage(t, rep, 1, 2, len(early)); got != early {
		t.Fatalf("seeded leg missing pre-join state: %q", got)
	}

	// And from here on it tracks checkpoints like any other leg.
	const late = "post-join delta"
	writePage(t, r.vm, 8, late)
	if _, err := rep.RunCycle(); err != nil {
		t.Fatal(err)
	}
	if got := legPage(t, rep, 1, 8, len(late)); got != late {
		t.Fatalf("joined leg not tracking deltas: %q", got)
	}
	if legs = rep.Legs(); legs[0].AckedEpoch != legs[1].AckedEpoch {
		t.Fatalf("joined leg's epoch diverged: %+v", legs)
	}
}

func TestDropLegShiftsIndicesAndKeepsEpochs(t *testing.T) {
	r := newChainRig(t, 256*memory.PageSize)
	rep := r.chain(t, replication.Config{})
	seedChain(t, rep)
	if _, err := rep.RunCycle(); err != nil {
		t.Fatal(err)
	}
	before := rep.Legs()

	if err := rep.DropLeg(5); !errors.Is(err, replication.ErrLegGone) {
		t.Fatalf("out-of-range drop: %v", err)
	}
	if err := rep.DropLeg(0); err != nil {
		t.Fatal(err)
	}
	legs := rep.Legs()
	if len(legs) != 1 || legs[0].Host != "c2" {
		t.Fatalf("legs after dropping leg 0: %+v", legs)
	}
	if legs[0].Index != 0 {
		t.Fatalf("surviving leg index = %d, want 0 (inherits the disk stream)", legs[0].Index)
	}
	if legs[0].AckedEpoch != before[1].AckedEpoch {
		t.Fatalf("drop changed the survivor's acked epoch: %d → %d",
			before[1].AckedEpoch, legs[0].AckedEpoch)
	}
	if err := rep.DropLeg(0); err == nil {
		t.Fatal("dropped the last leg")
	}
	// The chain still replicates on the surviving leg.
	if _, err := rep.RunCycle(); err != nil {
		t.Fatal(err)
	}
}
