package replication_test

// A seed that converges a warm copy instead of filling an empty replica:
// the shapes Manager.Failover produces (the fenced primary's memory on
// the new leg's host, the network peer holding the activated replica),
// driven straight through NewChain.

import (
	"errors"
	"fmt"
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
	"github.com/here-ft/here/internal/xen"
)

const warmPages = 512

// warmRig is a guest, a copy of it that drifted the way a fenced
// primary's memory drifts from the replica that was activated, and —
// for the network shape — the peer's copy, which equals the guest.
type warmRig struct {
	vm     *hypervisor.VM
	warm   *memory.GuestMemory
	drift  int // pages in which warm and the guest differ
	sender *fakeSender
	rep    *replication.Replicator
}

// newWarmRig builds a chain of `legs` secondaries with the warm copy on
// leg warmLeg; sender puts a fake network peer behind the (single) leg.
func newWarmRig(t *testing.T, legs, warmLeg int, sender bool, cfg replication.Config) *warmRig {
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
	if d := memory.Diff(r.warm, guest); len(d) != r.drift {
		t.Fatalf("rig drift is %d pages, want %d", len(d), r.drift)
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
				r := newWarmRig(t, 1, 0, sender, replication.Config{Compression: compression})
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
				if _, err := failover.Activate(r.rep, "replica", nil); err == nil || r.rep.Settled(0) {
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
	}
}

// TestSeedConvergesEmptyDriftStillResetsPeer: a warm copy that already
// equals the guest ships no page, but the seed message still goes out —
// otherwise the peer keeps the retired session's acknowledged epoch and
// the first resync of the new one reads it as diverged.
func TestSeedConvergesEmptyDriftStillResetsPeer(t *testing.T) {
	r := newWarmRig(t, 1, 0, true, replication.Config{DegradedMode: true})
	if err := r.vm.Memory().CopyPagesTo(memory.Diff(r.warm, r.vm.Memory()), r.warm); err != nil {
		t.Fatal(err)
	}
	if err := r.vm.Memory().CopyPagesTo(memory.Diff(r.sender.peer, r.vm.Memory()), r.sender.peer); err != nil {
		t.Fatal(err)
	}
	res, err := r.rep.Seed()
	if err != nil {
		t.Fatal(err)
	}
	if _, holds := r.sender.PeerAcked(); res.PagesSent != 0 || holds {
		t.Fatalf("shipped %d pages, peer marker still set: %v", res.PagesSent, holds)
	}
	r.store(t, 0x22)
	if _, err := r.rep.RunCycle(); err != nil {
		t.Fatal(err)
	}
	r.equal(t, "after the first checkpoint")
}

// TestSeedConvergesWarmSecondLeg: in a 1 + 2 chain the warm copy may
// sit on leg 1, which the in-pause full copy (seedLeg) seeds: leg 0 is
// filled page by page, leg 1 receives the drift.
func TestSeedConvergesWarmSecondLeg(t *testing.T) {
	r := newWarmRig(t, 2, 1, false, replication.Config{})
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
	_, err = replication.NewChain(vm, []replication.Secondary{{
		Host: sh, Transport: link, Warm: memory.NewGuestMemory(32 * memory.PageSize),
	}}, replication.Config{Engine: replication.EngineHERE, Period: time.Second})
	if err == nil {
		t.Fatal("a 32-page warm copy was accepted for a 64-page guest")
	}
}
