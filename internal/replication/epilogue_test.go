package replication_test

// Fault injection into the checkpoint pause: one row per way out of
// Replicator.checkpoint that an existing seam reaches — a failing
// secondary hypervisor, a clock that resumes the guest behind the
// replicator's back, a simnet injector, a fake CheckpointSender. Every
// row leaves through the same deferred epilogue, which must roll back
// and resume. A failing wire.Decode has no seam and gets no production
// hook: it returns through that same epilogue, so the guarantees below
// hold for it by construction.
//
// The table runs twice, raw and with Compression: the content-aware
// codec deltas against each leg's replica memory, so "the encoder's
// baseline is what that replica holds" is the same statement as the
// replica == primary check after the next acknowledged checkpoint.

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/here-ft/here/internal/arch"
	"github.com/here-ft/here/internal/chv"
	"github.com/here-ft/here/internal/devices"
	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/kvm"
	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/replication"
	"github.com/here-ft/here/internal/simnet"
	"github.com/here-ft/here/internal/translate"
	"github.com/here-ft/here/internal/vclock"
	"github.com/here-ft/here/internal/wire"
	"github.com/here-ft/here/internal/xen"
)

var errInjected = errors.New("injected fault")

// hookClock is the primary host's clock; while armed it resumes a
// paused guest at the next Sleep — which the checkpoint pause reaches
// before it captures the machine state.
type hookClock struct {
	*vclock.SimClock
	vm    *hypervisor.VM
	armed bool
}

func (c *hookClock) Sleep(d time.Duration) {
	c.SimClock.Sleep(d)
	if c.armed && !c.vm.Running() {
		c.armed = false
		c.vm.Resume()
	}
}

// flakyHost is a secondary hypervisor whose EncodeState fails on
// demand, failing the per-leg translate step.
type flakyHost struct {
	hypervisor.Hypervisor
	fail bool
}

func (h *flakyHost) EncodeState(st arch.MachineState) ([]byte, error) {
	if h.fail {
		return nil, errInjected
	}
	return h.Hypervisor.EncodeState(st)
}

// linkFaults is a simnet injector that drops a leg's stream transfers,
// its acknowledgements (the 64-byte transfers), or both.
type linkFaults struct{ data, ack bool }

func (*linkFaults) Advance(time.Time) {}

func (f *linkFaults) TransferFault(bytes int64, _ int) error {
	if isAck := bytes == 64; (isAck && f.ack) || (!isAck && f.data) {
		return errInjected
	}
	return nil
}

// fakeSender is a CheckpointSender whose peer replica lives in the
// test: streams are decoded onto peer, fail makes the next sends fail
// before anything is applied, and loseAck makes them fail after the
// peer applied them — the lost acknowledgement.
type fakeSender struct {
	*simnet.Link
	peer    *memory.GuestMemory
	acked   uint64
	holds   bool
	fail    error
	loseAck bool
}

func (s *fakeSender) SendCheckpoint(seq uint64, stream []byte) error {
	if s.fail != nil {
		return s.fail
	}
	if _, err := wire.Decode(stream, s.peer); err != nil {
		return err
	}
	s.acked, s.holds = seq, true
	if s.loseAck {
		return errInjected
	}
	return nil
}

func (s *fakeSender) SendSeed(_ uint64, stream []byte) error {
	_, err := wire.Decode(stream, s.peer)
	s.holds = false
	return err
}

func (s *fakeSender) PeerAcked() (uint64, bool) { return s.acked, s.holds }

type epilogueRig struct {
	clk    *hookClock
	vm     *hypervisor.VM
	secs   []replication.Secondary
	hosts  []*flakyHost
	faults []*linkFaults
	sender *fakeSender // nil on the simnet rigs
	rep    *replication.Replicator
	sunk   int // packets the sink saw
}

const epilogueMem = 256 * memory.PageSize

// newEpilogueRig builds a Xen primary replicating onto `legs` simnet
// legs (KVM, then Cloud Hypervisor), or onto one fake-sender leg.
func newEpilogueRig(t *testing.T, legs int, sender bool, cfg replication.Config) *epilogueRig {
	t.Helper()
	sim := vclock.NewSim()
	r := &epilogueRig{clk: &hookClock{SimClock: sim}}
	ph, err := xen.New("x0", r.clk)
	if err != nil {
		t.Fatal(err)
	}
	chain := []hypervisor.Hypervisor{ph}
	for i := 0; i < legs; i++ {
		mk := kvm.New
		if i == 1 {
			mk = chv.New
		}
		h, err := mk(fmt.Sprintf("s%d", i), sim)
		if err != nil {
			t.Fatal(err)
		}
		link, err := simnet.NewLink(simnet.OmniPath100(), sim)
		if err != nil {
			t.Fatal(err)
		}
		host, inj := &flakyHost{Hypervisor: h}, &linkFaults{}
		link.SetInjector(inj)
		var tp replication.Transport = link
		if sender {
			r.sender = &fakeSender{Link: link, peer: memory.NewGuestMemory(epilogueMem)}
			tp = r.sender
		}
		chain = append(chain, h)
		r.hosts, r.faults = append(r.hosts, host), append(r.faults, inj)
		r.secs = append(r.secs, replication.Secondary{Host: host, Transport: tp})
	}
	r.vm, err = ph.CreateVM(hypervisor.VMConfig{
		Name: "protected", MemBytes: epilogueMem, VCPUs: 2,
		Features: translate.CompatibleFeaturesAll(chain...),
		Devices:  []hypervisor.DeviceSpec{{Class: arch.DeviceNet, ID: "net0", MAC: "52:54:00:00:00:01"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	r.clk.vm = r.vm
	cfg.Engine = replication.EngineHERE
	cfg.Period = 100 * time.Millisecond
	cfg.Sink = func(p []devices.Packet) { r.sunk += len(p) }
	if r.rep, err = replication.NewChain(r.vm, r.secs, cfg); err != nil {
		t.Fatal(err)
	}
	return r
}

// replicasEqual fails unless every leg's replica (and the fake peer)
// equals the primary, page by page, both ways.
func (r *epilogueRig) replicasEqual(t *testing.T) {
	t.Helper()
	primary := r.vm.Memory()
	check := func(who string, mem *memory.GuestMemory) {
		t.Helper()
		if d := mem.DiffPages(primary); len(d) > 0 {
			t.Fatalf("%s differs from the primary in pages %v", who, d)
		}
		if d := primary.DiffPages(mem); len(d) > 0 {
			t.Fatalf("primary differs from %s in pages %v", who, d)
		}
	}
	for i := range r.hosts {
		_, mem, err := r.rep.ReplicaImageAt(i)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("leg %d", i), mem)
	}
	if r.sender != nil {
		check("the peer", r.sender.peer)
	}
}

func TestCheckpointEpilogueUnderFaults(t *testing.T) {
	const oneLeg, twoLegs, senderLeg = "1-leg", "2-leg", "sender"
	rides := replication.Config{DegradedMode: true}
	cases := []struct {
		name   string
		rig    string
		cfg    replication.Config
		inject func(r *epilogueRig)
		// wantErr is the error the faulted cycle must return; nil means
		// the cycle is ridden out in degraded mode.
		wantErr error
	}{
		{name: "translate leg 0", rig: oneLeg, wantErr: errInjected,
			inject: func(r *epilogueRig) { r.hosts[0].fail = true }},
		{name: "translate leg 0", rig: twoLegs, wantErr: errInjected,
			inject: func(r *epilogueRig) { r.hosts[0].fail = true }},
		{name: "translate leg 1", rig: twoLegs, wantErr: errInjected,
			inject: func(r *epilogueRig) { r.hosts[1].fail = true }},
		{name: "translate leg 0", rig: senderLeg, wantErr: errInjected,
			inject: func(r *epilogueRig) { r.hosts[0].fail = true }},
		{name: "capture", rig: oneLeg, wantErr: hypervisor.ErrVMNotPaused,
			inject: func(r *epilogueRig) { r.clk.armed = true }},
		{name: "capture", rig: twoLegs, wantErr: hypervisor.ErrVMNotPaused,
			inject: func(r *epilogueRig) { r.clk.armed = true }},
		{name: "capture", rig: senderLeg, wantErr: hypervisor.ErrVMNotPaused,
			inject: func(r *epilogueRig) { r.clk.armed = true }},
		{name: "transfer", rig: oneLeg, wantErr: replication.ErrDegraded,
			inject: func(r *epilogueRig) { r.faults[0].data = true }},
		{name: "transfer, degraded mode", rig: oneLeg, cfg: rides,
			inject: func(r *epilogueRig) { r.faults[0].data = true }},
		{name: "transfer on both legs", rig: twoLegs, wantErr: replication.ErrDegraded,
			inject: func(r *epilogueRig) { r.faults[0].data, r.faults[1].data = true, true }},
		{name: "ack", rig: oneLeg, wantErr: replication.ErrDegraded,
			inject: func(r *epilogueRig) { r.faults[0].ack = true }},
		{name: "ack leg 1", rig: twoLegs, cfg: rides,
			inject: func(r *epilogueRig) { r.faults[1].ack = true }},
		{name: "quorum miss", rig: twoLegs, cfg: replication.Config{Quorum: 2}, wantErr: replication.ErrDegraded,
			inject: func(r *epilogueRig) { r.faults[0].data = true }},
		{name: "sender transient", rig: senderLeg, cfg: rides,
			inject: func(r *epilogueRig) { r.sender.fail = errInjected }},
		{name: "sender transient, strict", rig: senderLeg, wantErr: replication.ErrDegraded,
			inject: func(r *epilogueRig) { r.sender.fail = errInjected }},
		{name: "sender permanent", rig: senderLeg, cfg: rides, wantErr: fencedErr{},
			inject: func(r *epilogueRig) { r.sender.fail = fencedErr{} }},
	}
	for _, tc := range cases { // every row again through the content-aware codec
		tc.rig += "+codec"
		tc.cfg.Compression = true
		cases = append(cases, tc)
	}
	for _, tc := range cases {
		t.Run(tc.rig+"/"+tc.name, func(t *testing.T) {
			legs := 1
			if strings.HasPrefix(tc.rig, twoLegs) {
				legs = 2
			}
			r := newEpilogueRig(t, legs, strings.HasPrefix(tc.rig, senderLeg), tc.cfg)
			seedChain(t, r.rep)
			writePage(t, r.vm, 7, "epoch zero")
			if _, err := r.rep.RunCycle(); err != nil {
				t.Fatal(err)
			}
			r.replicasEqual(t)

			// The epoch the fault hits: three dirty pages, a rewrite of
			// the acknowledged page 7 and one buffered packet.
			writePage(t, r.vm, 7, "rewritten in the abandoned epoch")
			writePage(t, r.vm, 3, "lost unless re-marked")
			writePage(t, r.vm, 70, "second region of the delta")
			writePage(t, r.vm, 200, "third")
			r.rep.IOBuffer().Buffer(100, []byte("reply"))
			bitmap := r.vm.Tracker().Bitmap()
			snapshot := bitmap.Peek()
			before := r.rep.Totals().Checkpoints

			tc.inject(r)
			st, err := r.rep.RunCycle()
			switch {
			case tc.wantErr != nil && !errors.Is(err, tc.wantErr):
				t.Fatalf("faulted cycle: err = %v, want %v", err, tc.wantErr)
			case tc.wantErr == nil && (err != nil || st.Mode != replication.StateDegraded):
				t.Fatalf("faulted cycle: %+v, %v, want a degraded cycle", st, err)
			}
			if !r.vm.Running() {
				t.Fatal("guest left paused")
			}
			for _, p := range snapshot {
				if !bitmap.Test(p) {
					t.Fatalf("dirty page %d of the abandoned epoch was not re-marked", p)
				}
			}
			if got := r.rep.Totals().Checkpoints; got != before {
				t.Fatalf("epoch advanced to %d by an abandoned checkpoint (was %d)", got, before)
			}
			if released, _ := r.rep.IOBuffer().Stats(); released != 0 || r.sunk != 0 || r.rep.IOBuffer().Pending() != 1 {
				t.Fatalf("buffered output escaped: released %d, sunk %d, pending %d",
					released, r.sunk, r.rep.IOBuffer().Pending())
			}

			// The fault clears: one more cycle makes every replica whole.
			r.clk.armed = false
			for i := range r.hosts {
				r.hosts[i].fail, *r.faults[i] = false, linkFaults{}
			}
			if r.sender != nil {
				r.sender.fail = nil
			}
			writePage(t, r.vm, 9, "after the fault")
			st, err = r.rep.RunCycle()
			if err != nil || st.Mode != replication.StateProtected || st.Seq != before {
				t.Fatalf("recovery cycle: %+v, %v, want protected at epoch %d", st, err, before)
			}
			r.replicasEqual(t)
			if tc.cfg.Compression && st.Wire.DeltaFrames == 0 {
				t.Fatalf("recovery checkpoint shipped no delta frame: %+v", st.Wire)
			}
			if r.sunk != 1 {
				t.Fatalf("sink saw %d packets after the epoch committed, want 1", r.sunk)
			}
		})
	}
}

// TestLostAckThenPlainDelta: the peer applied an epoch whose
// acknowledgement was lost, so it is one epoch ahead of the leg's
// replica memory. The resync ships overwrite frames, which make both
// sides equal again; the cycle after it is an ordinary delta against
// that converged replica, with no codec step in between.
func TestLostAckThenPlainDelta(t *testing.T) {
	r := newEpilogueRig(t, 1, true, replication.Config{DegradedMode: true, Compression: true})
	seedChain(t, r.rep)
	writePage(t, r.vm, 7, "epoch zero")
	if _, err := r.rep.RunCycle(); err != nil {
		t.Fatal(err)
	}

	writePage(t, r.vm, 7, "applied by the peer, never acknowledged")
	writePage(t, r.vm, 3, "likewise")
	r.sender.loseAck = true
	if st, err := r.rep.RunCycle(); err != nil || st.Mode != replication.StateDegraded {
		t.Fatalf("lost-ack cycle: %+v, %v, want a degraded cycle", st, err)
	}
	if _, mem, _ := r.rep.ReplicaImageAt(0); len(r.sender.peer.DiffPages(mem)) == 0 {
		t.Fatal("the peer is not ahead of the leg's replica memory: nothing to reconcile")
	}

	r.sender.loseAck = false
	writePage(t, r.vm, 7, "dirtied again before the resync")
	st, err := r.rep.RunCycle()
	if err != nil || !st.Resync || st.Wire.DeltaFrames != 0 || st.Wire.RawFrames == 0 {
		t.Fatalf("resync: %+v, %v, want an overwrite stream (raw frames, no deltas)", st, err)
	}
	r.replicasEqual(t)

	writePage(t, r.vm, 7, "a plain delta")
	st, err = r.rep.RunCycle()
	if err != nil || st.Resync || st.Wire.DeltaFrames != 1 || st.Wire.RawFrames != 0 {
		t.Fatalf("cycle after the resync: %+v, %v, want one delta frame", st, err)
	}
	r.replicasEqual(t)
}

// TestResumeDeltasAgainstResumedMemory: a successor replicator handed a
// predecessor's replica memory through Config.Resume deltas its first
// resync against that memory as it stands.
func TestResumeDeltasAgainstResumedMemory(t *testing.T) {
	cfg := replication.Config{Compression: true}
	r := newEpilogueRig(t, 1, false, cfg)
	seedChain(t, r.rep)
	writePage(t, r.vm, 7, "acknowledged before the restart")
	if _, err := r.rep.RunCycle(); err != nil {
		t.Fatal(err)
	}
	handoff, err := r.rep.HandoffAt(0)
	if err != nil {
		t.Fatal(err)
	}

	writePage(t, r.vm, 7, "dirtied while unattached")
	writePage(t, r.vm, 3, "likewise")
	cfg.Engine, cfg.Period, cfg.Resume = replication.EngineHERE, 100*time.Millisecond, handoff
	if r.rep, err = replication.NewChain(r.vm, r.secs, cfg); err != nil {
		t.Fatal(err)
	}
	st, err := r.rep.RunCycle()
	if err != nil || !st.Resync || st.Seq != handoff.Seq {
		t.Fatalf("first cycle after resume: %+v, %v, want a resync at epoch %d", st, err, handoff.Seq)
	}
	if st.Wire.DeltaFrames != 2 || st.Wire.RawFrames != 0 {
		t.Fatalf("resync frame mix %+v, want two delta frames", st.Wire)
	}
	if _, mem, _ := r.rep.ReplicaImageAt(0); mem != handoff.Mem {
		t.Fatal("the resumed memory is not the leg's replica")
	}
	r.replicasEqual(t)
}

// TestSeedFailureResumesGuest: the seeding migration ends on a paused
// guest; a translate failure on either leg after it must not leave the
// guest frozen, and a later Seed must still bring the chain up.
func TestSeedFailureResumesGuest(t *testing.T) {
	for leg := 0; leg < 2; leg++ {
		r := newEpilogueRig(t, 2, false, replication.Config{})
		writePage(t, r.vm, 5, "before seeding")
		r.hosts[leg].fail = true
		if _, err := r.rep.Seed(); !errors.Is(err, errInjected) {
			t.Fatalf("leg %d: Seed err = %v, want the injected fault", leg, err)
		}
		if !r.vm.Running() {
			t.Fatalf("leg %d: failed Seed left the guest paused", leg)
		}
		r.hosts[leg].fail = false
		seedChain(t, r.rep)
		if _, err := r.rep.RunCycle(); err != nil {
			t.Fatal(err)
		}
		r.replicasEqual(t)
	}
}
