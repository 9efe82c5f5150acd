package replication_test

// A seed that converges a warm copy instead of filling an empty replica:
// the shapes Manager.Failover produces (the fenced primary's memory on
// the new leg's host, the network peer holding the activated replica),
// driven straight through NewChain.

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/here-ft/here/internal/chv"
	"github.com/here-ft/here/internal/failover"
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

const warmPages = 512

// warmRig is a guest, a copy of it that drifted the way a fenced
// primary's memory drifts from the replica that was activated, and —
// for the network shape — the peer's copy, which equals the guest.
type warmRig struct {
	vm     *hypervisor.VM
	warm   *memory.GuestMemory
	drift  int                 // pages in which warm and the guest differ
	log    *memory.DirtyBitmap // those pages as the chain's Drift, when logged
	sender *fakeSender
	rep    *replication.Replicator
}

// newWarmRig builds a chain of `legs` secondaries with the warm copy on
// leg warmLeg; sender puts a fake network peer behind the (single) leg;
// logged hands the chain a dirty log of the drift (what a forced failover
// has), without it the seed must compare contents (what a restart has).
func newWarmRig(t *testing.T, legs, warmLeg int, sender, logged bool, cfg replication.Config) *warmRig {
	t.Helper()
	clk := vclock.NewSim()
	ph, err := xen.New("x0", clk)
	if err != nil {
		t.Fatal(err)
	}
	chain := []hypervisor.Hypervisor{ph}
	secs := make([]replication.Secondary, legs)
	for i := range secs {
		mk := kvm.New
		if i == 1 {
			mk = chv.New
		}
		h, err := mk(fmt.Sprintf("s%d", i), clk)
		if err != nil {
			t.Fatal(err)
		}
		link, err := simnet.NewLink(simnet.OmniPath100(), clk)
		if err != nil {
			t.Fatal(err)
		}
		chain = append(chain, h)
		secs[i] = replication.Secondary{Host: h, Transport: link}
	}
	r := &warmRig{warm: memory.NewGuestMemory(warmPages * memory.PageSize)}
	r.vm, err = ph.CreateVM(hypervisor.VMConfig{
		Name: "protected", MemBytes: warmPages * memory.PageSize, VCPUs: 2,
		Features: translate.CompatibleFeaturesAll(chain...),
	})
	if err != nil {
		t.Fatal(err)
	}
	guest := r.vm.Memory()
	fill := func(b byte) []byte {
		pg := make([]byte, memory.PageSize)
		for i := range pg {
			pg[i] = b + byte(i%7)
		}
		return pg
	}
	// 300 pages both sides hold alike …
	all := make([]memory.PageNum, 0, 300)
	for n := memory.PageNum(0); n < 300; n++ {
		if err := guest.WritePage(n, fill(byte(n))); err != nil {
			t.Fatal(err)
		}
		all = append(all, n)
	}
	if err := guest.CopyPagesTo(all, r.warm); err != nil {
		t.Fatal(err)
	}
	// … then the drift: pages the old primary rewrote after the last
	// acknowledged checkpoint (10–19), pages it wrote that the replica
	// never held (400–409: these must come back as zero pages), a page it
	// zeroed byte-wise (20), and — for symmetry — pages only the guest
	// holds (420–424).
	for n := memory.PageNum(10); n < 20; n++ {
		// A small in-page store: exactly what an XOR delta encodes well.
		_ = r.warm.Write(memory.Addr(n)*memory.PageSize+100, []byte("stored after the last ack"))
	}
	for n := memory.PageNum(400); n < 410; n++ {
		_ = r.warm.WritePage(n, fill(0xB0))
	}
	_ = r.warm.Write(20*memory.PageSize, make([]byte, memory.PageSize))
	for n := memory.PageNum(420); n < 425; n++ {
		_ = guest.WritePage(n, fill(0xC0))
	}
	r.drift = 10 + 10 + 1 + 5
	d := memory.Diff(r.warm, guest)
	if len(d) != r.drift {
		t.Fatalf("rig drift is %d pages, want %d", len(d), r.drift)
	}
	if logged {
		r.log = memory.NewDirtyBitmap(warmPages)
		for _, p := range d {
			r.log.Set(p)
		}
		secs[warmLeg].Drift = r.log
	}
	// Whatever the guest's dirty log held before the chain existed has
	// nothing to do with the copies built behind its back.
	r.vm.Tracker().Bitmap().Snapshot()

	secs[warmLeg].Warm = r.warm
	if sender {
		r.sender = &fakeSender{Link: secs[0].Transport.(*simnet.Link), peer: memory.NewGuestMemory(warmPages * memory.PageSize)}
		if err := guest.CopyPagesTo(guest.PopulatedList(), r.sender.peer); err != nil {
			t.Fatal(err)
		}
		// The retired session left the peer on an acknowledged epoch.
		r.sender.acked, r.sender.holds = 41, true
		secs[0].Transport = r.sender
	}
	cfg.Engine = replication.EngineHERE
	cfg.Period = 100 * time.Millisecond
	if r.rep, err = replication.NewChain(r.vm, secs, cfg); err != nil {
		t.Fatal(err)
	}
	return r
}

// equal fails unless every leg's replica, and the peer's copy, equals
// the guest.
func (r *warmRig) equal(t *testing.T, when string) {
	t.Helper()
	for i := 0; i < r.rep.NumLegs(); i++ {
		_, mem, err := r.rep.ReplicaImageAt(i)
		if err != nil {
			t.Fatal(err)
		}
		if d := memory.Diff(mem, r.vm.Memory()); len(d) > 0 {
			t.Fatalf("%s: leg %d differs from the guest in pages %v", when, i, d)
		}
	}
	if r.sender != nil {
		if d := memory.Diff(r.sender.peer, r.vm.Memory()); len(d) > 0 {
			t.Fatalf("%s: the peer differs from the guest in pages %v", when, d)
		}
	}
}

// store rewrites pages the replicas hold and first-writes one they do
// not, through the guest's dirty log.
func (r *warmRig) store(t *testing.T, tag byte) {
	t.Helper()
	for _, n := range []memory.Addr{3, 12, 401, 450} {
		if err := r.vm.WriteGuest(0, n*memory.PageSize+64, []byte{tag, tag, tag, 1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSeedConvergesWarmCopy: the seed of a leg built on a warm copy
// ships the pages where that copy and the guest differ — not the guest —
// and leaves replica == primary, on a plain link and with a network
// peer whose copy is the activated replica, raw and with Compression
// (where shipping XOR deltas against the warm copy would corrupt the
// peer, whose pages are not the warm copy's).
func TestSeedConvergesWarmCopy(t *testing.T) {
	for _, sender := range []bool{false, true} {
		for _, compression := range []bool{false, true} {
			t.Run(fmt.Sprintf("sender=%v/compression=%v", sender, compression), func(t *testing.T) {
				for _, logged := range []bool{false, true} {
					t.Run(fmt.Sprintf("logged=%v", logged), func(t *testing.T) {
						r := newWarmRig(t, 1, 0, sender, logged, replication.Config{Compression: compression})
						// An unseeded leg is nobody's failover target, hands off no
						// deposit and runs no checkpoint, warm copy or not.
						if _, _, err := r.rep.ReplicaImageAt(0); !errors.Is(err, replication.ErrNotSeeded) {
							t.Fatalf("ReplicaImageAt before the seed: %v, want ErrNotSeeded", err)
						}
						if _, err := r.rep.HandoffAt(0); !errors.Is(err, replication.ErrNotSeeded) {
							t.Fatalf("HandoffAt before the seed: %v, want ErrNotSeeded", err)
						}
						if _, err := r.rep.RunCycle(); !errors.Is(err, replication.ErrNotSeeded) {
							t.Fatalf("RunCycle before the seed: %v, want ErrNotSeeded", err)
						}
						if _, err := failover.ActivateOpts(r.rep, "replica", failover.Options{}); err == nil || r.rep.Settled(0) {
							t.Fatal("an unseeded warm leg was activated, or reads as settled")
						}

						res, err := r.rep.Seed()
						if err != nil {
							t.Fatal(err)
						}
						if res.PagesSent != int64(r.drift) || res.Wire.DeltaFrames != 0 {
							t.Fatalf("seed shipped %d pages (%d as deltas), want the %d-page drift as overwrite frames",
								res.PagesSent, res.Wire.DeltaFrames, r.drift)
						}
						if _, mem, _ := r.rep.ReplicaImageAt(0); mem != r.warm {
							t.Fatal("the leg's replica memory is not the warm copy")
						}
						r.equal(t, "after the seed")
						if sender {
							// The seed reset the peer's marker as a full seed does; the
							// first checkpoint sets it again.
							if _, holds := r.sender.PeerAcked(); holds || r.rep.Settled(0) {
								t.Fatal("after a warm seed the peer still claims the retired session's epoch")
							}
						}

						r.store(t, 0x11)
						st, err := r.rep.RunCycle()
						if err != nil {
							t.Fatal(err)
						}
						if compression && st.Wire.DeltaFrames == 0 {
							t.Fatalf("first checkpoint after a warm seed carried no delta frame: %+v", st.Wire)
						}
						r.equal(t, "after the first checkpoint")
						if !r.rep.Settled(0) {
							t.Fatal("an acknowledged, backlog-free leg is not settled")
						}
						if sender {
							r.sender.acked++ // the peer applied an epoch whose ack was lost
							if r.rep.Settled(0) {
								t.Fatal("settled although the peer is an epoch ahead of the mirror")
							}
						}
					})
				}
			})
		}
	}
}

// TestSeedConvergesEmptyDriftStillResetsPeer: a warm copy that already
// equals the guest ships no page, but the seed message still goes out —
// otherwise the peer keeps the retired session's acknowledged epoch and
// the first resync of the new one reads it as diverged.
func TestSeedConvergesEmptyDriftStillResetsPeer(t *testing.T) {
	for _, logged := range []bool{false, true} {
		r := newWarmRig(t, 1, 0, true, logged, replication.Config{DegradedMode: true})
		if err := r.vm.Memory().CopyPagesTo(memory.Diff(r.warm, r.vm.Memory()), r.warm); err != nil {
			t.Fatal(err)
		}
		if err := r.vm.Memory().CopyPagesTo(memory.Diff(r.sender.peer, r.vm.Memory()), r.sender.peer); err != nil {
			t.Fatal(err)
		}
		if logged {
			r.log.Snapshot() // an empty log, not a missing one
		}
		res, err := r.rep.Seed()
		if err != nil {
			t.Fatal(err)
		}
		if _, holds := r.sender.PeerAcked(); res.PagesSent != 0 || holds {
			t.Fatalf("logged=%v: shipped %d pages, peer marker still set: %v", logged, res.PagesSent, holds)
		}
		r.store(t, 0x22)
		if _, err := r.rep.RunCycle(); err != nil {
			t.Fatal(err)
		}
		r.equal(t, "after the first checkpoint")
	}
}

// TestSeedConvergesWarmSecondLeg: in a 1 + 2 chain the warm copy may
// sit on leg 1, which the in-pause full copy (seedLeg) seeds: leg 0 is
// filled page by page, leg 1 receives the drift.
func TestSeedConvergesWarmSecondLeg(t *testing.T) {
	for _, logged := range []bool{false, true} {
		warmSecondLegConverges(t, logged)
	}
}

func warmSecondLegConverges(t *testing.T, logged bool) {
	r := newWarmRig(t, 2, 1, false, logged, replication.Config{})
	res, err := r.rep.Seed()
	if err != nil {
		t.Fatal(err)
	}
	if res.PagesSent < warmPages {
		t.Fatalf("leg 0 is cold: its seed shipped %d pages, want at least the guest's %d", res.PagesSent, warmPages)
	}
	if got := r.rep.Totals().PagesSent - res.PagesSent; got != int64(r.drift) {
		t.Fatalf("leg 1's seed shipped %d pages, want the %d-page drift", got, r.drift)
	}
	if _, mem, _ := r.rep.ReplicaImageAt(1); mem != r.warm {
		t.Fatal("leg 1's replica memory is not the warm copy")
	}
	r.equal(t, "after the seed")
	r.store(t, 0x33)
	if _, err := r.rep.RunCycle(); err != nil {
		t.Fatal(err)
	}
	r.equal(t, "after the first checkpoint")
}

// TestWarmCopyMustMatchGuestSize: a copy of some other guest is refused.
func TestWarmCopyMustMatchGuestSize(t *testing.T) {
	clk := vclock.NewSim()
	ph, _ := xen.New("x0", clk)
	sh, _ := kvm.New("k0", clk)
	link, _ := simnet.NewLink(simnet.OmniPath100(), clk)
	vm, err := ph.CreateVM(hypervisor.VMConfig{
		Name: "vm", MemBytes: 64 * memory.PageSize, VCPUs: 1,
		Features: translate.CompatibleFeaturesAll(ph, sh),
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := replication.Config{Engine: replication.EngineHERE, Period: time.Second}
	small := replication.Secondary{Host: sh, Transport: link, Warm: memory.NewGuestMemory(32 * memory.PageSize)}
	if _, err = replication.NewChain(vm, []replication.Secondary{small}, cfg); err == nil {
		t.Fatal("a 32-page warm copy was accepted for a 64-page guest")
	}
	rep, err := replication.NewChain(vm, []replication.Secondary{{Host: sh, Transport: link}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.AddLeg(small); err == nil {
		t.Fatal("AddLeg accepted a 32-page warm copy for a 64-page guest")
	}
}

const driftPages = 128

// driftStore issues one seeded guest store through the dirty log: a
// small in-page record, a whole page, or a page of zeroes (which the
// guest memory gives back).
func driftStore(t *testing.T, vm *hypervisor.VM, rng *rand.Rand) {
	t.Helper()
	page := memory.Addr(rng.Intn(driftPages)) * memory.PageSize
	data := make([]byte, memory.PageSize)
	switch rng.Intn(3) {
	case 0:
		page += memory.Addr(rng.Intn(memory.PageSize - 16))
		data = data[:16]
		rng.Read(data)
	case 1:
		rng.Read(data)
	}
	if err := vm.WriteGuest(rng.Intn(2), page, data); err != nil {
		t.Fatal(err)
	}
}

// driftStorer keeps the guest storing while it is seeded, so the seed
// has later rounds.
type driftStorer struct {
	t   *testing.T
	rng *rand.Rand
}

func (driftStorer) Name() string { return "drift-storer" }

func (w driftStorer) Step(vm *hypervisor.VM, _ time.Duration) (workload.StepStats, error) {
	for i := 0; i < 3; i++ {
		driftStore(w.t, vm, w.rng)
	}
	return workload.StepStats{Writes: 3}, nil
}

// pageSet is the union of page lists.
func pageSet(lists ...[]memory.PageNum) map[memory.PageNum]bool {
	set := make(map[memory.PageNum]bool)
	for _, l := range lists {
		for _, p := range l {
			set[p] = true
		}
	}
	return set
}

// TestDriftRule is the property the O(dirty) re-protect stands on, over
// seeded schedules of stores, checkpoints that roll back and re-mark
// their snapshot (a downed link under an all-legs quorum, a failed send),
// legs that lag with a backlog, and the lost acknowledgement that leaves
// a network peer one epoch ahead of its mirror. Whenever a leg reads
// Settled, the primary's dirty log covers every page where the primary
// and that leg's replica differ (and the peer equals the mirror); so
// after the leg is activated and the old copy fenced, the old log plus
// the new guest's covers memory.Diff(old copy, guest), and a chain that
// takes the old copy as Warm with that log as Drift — as leg 0, or as
// leg 1 behind a cold leg, the guest idle or storing throughout — seeds
// to replica == guest in both directions, having shipped that set and
// not the guest. A leg that is not settled is never kept
// (orchestrator.TestWarmReprotectFallsBackCold).
func TestDriftRule(t *testing.T) {
	settledRuns, unsettledRuns := 0, 0
	for seed := int64(1); seed <= 60; seed++ {
		for _, sender := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed=%d/sender=%v", seed, sender), func(t *testing.T) {
				if driftRuleOnce(t, rand.New(rand.NewSource(seed)), sender) {
					settledRuns++
				} else {
					unsettledRuns++
				}
			})
		}
	}
	if settledRuns < 30 || unsettledRuns < 10 {
		t.Fatalf("%d settled and %d unsettled schedules: the sweep no longer reaches both", settledRuns, unsettledRuns)
	}
}

// driftRuleOnce runs one schedule and reports whether the activated leg
// was settled (and so whether the re-protect half ran).
func driftRuleOnce(t *testing.T, rng *rand.Rand, sender bool) bool {
	clk := vclock.NewSim()
	ph, err := xen.New("x0", clk)
	if err != nil {
		t.Fatal(err)
	}
	hosts := make([]*hypervisor.Host, 2)
	links := make([]*simnet.Link, 3) // to s0, to s1, and back to x0
	for i := range links {
		if links[i], err = simnet.NewLink(simnet.OmniPath100(), clk); err != nil {
			t.Fatal(err)
		}
	}
	if hosts[0], err = kvm.New("s0", clk); err != nil {
		t.Fatal(err)
	}
	if hosts[1], err = chv.New("s1", clk); err != nil {
		t.Fatal(err)
	}
	vm, err := ph.CreateVM(hypervisor.VMConfig{
		Name: "protected", MemBytes: driftPages * memory.PageSize, VCPUs: 2,
		Features: translate.CompatibleFeaturesAll(ph, hosts[0], hosts[1]),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		driftStore(t, vm, rng)
	}
	secs := []replication.Secondary{{Host: hosts[0], Transport: links[0]}, {Host: hosts[1], Transport: links[1]}}
	var fs *fakeSender
	if sender {
		fs = &fakeSender{Link: links[0], peer: memory.NewGuestMemory(driftPages * memory.PageSize)}
		secs = []replication.Secondary{{Host: hosts[0], Transport: fs}}
	}
	cfg := replication.Config{
		Engine: replication.EngineHERE, Period: 100 * time.Millisecond,
		DegradedMode: sender, Quorum: rng.Intn(2), // all legs, or one
	}
	rep, err := replication.NewChain(vm, secs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep.Seed(); err != nil {
		t.Fatal(err)
	}
	for round, rounds := 0, 2+rng.Intn(5); round < rounds; round++ {
		for i, n := 0, rng.Intn(12); i < n; i++ {
			driftStore(t, vm, rng)
		}
		down := links[rng.Intn(2)]
		switch fault := rng.Intn(4); {
		case fault == 1 && !sender:
			down.SetDown(true)
		case fault == 1:
			fs.fail = errInjected
		case fault == 2 && sender:
			fs.loseAck = true
		}
		_, _ = rep.RunCycle() // a miss, a rollback, a degraded round: all part of the schedule
		down.SetDown(false)
		if sender {
			fs.fail, fs.loseAck = nil, false
		}
	}
	for i, n := 0, rng.Intn(12); i < n; i++ {
		driftStore(t, vm, rng) // never shipped
	}
	if sender && rng.Intn(4) == 0 {
		// The peer applied an epoch whose acknowledgement never arrived.
		ahead := make([]byte, memory.PageSize)
		rng.Read(ahead)
		if err := fs.peer.WritePage(memory.PageNum(rng.Intn(driftPages)), ahead); err != nil {
			t.Fatal(err)
		}
		fs.acked++
	}

	// The rule, on every leg that reads settled.
	log := pageSet(vm.Tracker().Bitmap().Peek())
	for i := 0; i < rep.NumLegs(); i++ {
		if !rep.Settled(i) {
			continue
		}
		_, replica, err := rep.ReplicaImageAt(i)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range memory.Diff(vm.Memory(), replica) {
			if !log[p] {
				t.Fatalf("leg %d is settled, yet page %d differs from the primary outside its dirty log", i, p)
			}
		}
		if sender && len(memory.Diff(fs.peer, replica)) > 0 {
			t.Fatalf("leg %d is settled, yet the peer's copy is not the mirror", i)
		}
	}
	target, err := rep.FreshestLeg()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Settled(target) {
		return false
	}

	// Forced failover: activate, fence, and keep what the fence left.
	act, err := failover.ActivateOpts(rep, "replica", failover.Options{Force: true, Leg: target})
	if err != nil {
		t.Fatal(err)
	}
	if err := ph.DestroyVM(vm.Name()); err != nil {
		t.Fatal(err)
	}
	old, drift, guest := vm.Memory(), vm.Tracker().Bitmap(), act.VM
	for i, n := 0, rng.Intn(8); i < n; i++ {
		driftStore(t, guest, rng)
	}
	stale := pageSet(drift.Peek(), guest.Tracker().Bitmap().Peek())
	for _, p := range memory.Diff(old, guest.Memory()) {
		if !stale[p] {
			t.Fatalf("page %d differs between the fenced copy and the guest outside drift ∪ dirty log", p)
		}
	}

	warm := replication.Secondary{Host: ph, Transport: links[2], Warm: old, Drift: drift}
	secs, warmLeg := []replication.Secondary{warm}, 0
	if sender {
		fs = &fakeSender{Link: links[2], peer: fs.peer, acked: fs.acked, holds: true}
		secs[0].Transport = fs
	} else if rng.Intn(2) == 0 {
		cold := replication.Secondary{Host: hosts[1-target], Transport: links[1-target]}
		secs, warmLeg = []replication.Secondary{cold, warm}, 1
	}
	cfg.Quorum = 0
	busy := rng.Intn(2) == 0
	if busy {
		cfg.Workload = driftStorer{t, rng}
	}
	rep, err = replication.NewChain(guest, secs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rep.Seed()
	if err != nil {
		t.Fatal(err)
	}
	if _, mem, _ := rep.ReplicaImageAt(warmLeg); mem != old {
		t.Fatal("the warm leg's replica memory is not the fenced copy")
	}
	shipped := res.PagesSent
	if warmLeg == 1 {
		shipped = rep.Totals().PagesSent - res.PagesSent
	}
	if !busy && shipped != int64(len(stale)) {
		t.Fatalf("the warm leg was sent %d pages, want the %d of drift ∪ dirty log (guest: %d)", shipped, len(stale), driftPages)
	}
	if busy && res.LaterPages == 0 {
		t.Fatal("a guest storing through its seed had no later round")
	}
	converged := func(when string) {
		t.Helper()
		for i := 0; i < rep.NumLegs(); i++ {
			_, mem, err := rep.ReplicaImageAt(i)
			if err != nil {
				t.Fatal(err)
			}
			if d := memory.Diff(mem, guest.Memory()); len(d) > 0 {
				t.Fatalf("%s: leg %d differs from the guest in pages %v", when, i, d)
			}
		}
		if sender {
			if d := memory.Diff(fs.peer, guest.Memory()); len(d) > 0 {
				t.Fatalf("%s: the peer differs from the guest in pages %v", when, d)
			}
		}
	}
	converged("after the seed")
	for i := 0; i < 5; i++ {
		driftStore(t, guest, rng)
	}
	if _, err := rep.RunCycle(); err != nil {
		t.Fatal(err)
	}
	converged("after the first checkpoint")
	return true
}
