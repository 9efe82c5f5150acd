package transport_test

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"github.com/here-ft/here/internal/arch"
	"github.com/here-ft/here/internal/faults"
	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/kvm"
	"github.com/here-ft/here/internal/replication"
	"github.com/here-ft/here/internal/trace"
	"github.com/here-ft/here/internal/translate"
	"github.com/here-ft/here/internal/transport"
	"github.com/here-ft/here/internal/vclock"
	"github.com/here-ft/here/internal/workload"
	"github.com/here-ft/here/internal/xen"
)

// The end-to-end tests below drive a full replicator — Xen-like
// primary, KVM-like secondary image, wire codec, degraded mode —
// through real loopback TCP via the fault-injection proxy: the
// two-node topology `hered -peer` / `hered -peer-listen` sets up,
// compressed into one process.

const e2eMemBytes = 1 << 22 // 1024 pages

type e2eRig struct {
	clk   *vclock.SimClock
	vm    *hypervisor.VM
	kh    *hypervisor.Host
	srv   *transport.Server
	proxy *faults.Proxy
	cli   *transport.Client
	tr    *trace.Tracer // primary-side tracer
	str   *trace.Tracer // secondary-side (transport server) tracer
	reg   *trace.Registry
	rep   *replication.Replicator
}

// movingFence is a FenceSource whose generation a test can bump, the
// way a failover takeover bumps the cluster guard.
type movingFence struct{ gen atomic.Uint64 }

func (f *movingFence) Generation() uint64 { return f.gen.Load() }

func newE2ERig(t *testing.T, fence transport.FenceSource, gen uint64) *e2eRig {
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
		Name: "protected", MemBytes: e2eMemBytes, VCPUs: 1,
		Features: translate.CompatibleFeaturesAll(xh, kh),
		Devices: []hypervisor.DeviceSpec{
			{Class: arch.DeviceNet, ID: "net0", MAC: "52:54:00:00:00:01"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	reg := trace.NewRegistry()
	str := trace.New(clk, 8192)
	srv := transport.NewServer(transport.ServerConfig{Fence: fence, Metrics: reg, Tracer: str})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	proxy, err := faults.NewProxy("127.0.0.1:0", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })

	cli, err := transport.Dial(transport.ClientConfig{
		Addr:       proxy.Addr(),
		Protection: "protected",
		MemBytes:   e2eMemBytes,
		Generation: gen,
		// Generous keepalive/ack windows: under -race with a loaded
		// machine, goroutine scheduling gaps must not masquerade as a
		// dead path mid-seed. Outage detection in the test does not
		// depend on these — a cut connection fails the next send
		// immediately.
		DialTimeout:       5 * time.Second,
		KeepaliveInterval: 250 * time.Millisecond,
		KeepaliveMisses:   4,
		AckTimeout:        10 * time.Second,
		ReconnectMin:      10 * time.Millisecond,
		ReconnectMax:      80 * time.Millisecond,
		Metrics:           reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })

	// A write-heavy guest so every epoch has a real dirty set and the
	// outage accumulates a delta worth measuring.
	wl, err := workload.NewMemoryBench(25, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(clk, 8192)
	rep, err := replication.NewChain(vm, []replication.Secondary{{Host: kh, Transport: cli}}, replication.Config{
		Engine: replication.EngineHERE,
		// Comfortably above the hypervisor's 50ms resume warmup so each
		// cycle has real workload budget (sim time — wall-clock free).
		Period:       500 * time.Millisecond,
		DegradedMode: true,
		Workload:     wl,
		Tracer:       tr,
		Metrics:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &e2eRig{clk: clk, vm: vm, kh: kh, srv: srv, proxy: proxy, cli: cli, tr: tr, str: str, reg: reg, rep: rep}
}

func countSpans(tr *trace.Tracer, kind trace.Kind) int {
	n := 0
	for _, ev := range tr.Events() {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

// TestE2EDisconnectDeltaResync is the acceptance path: protect over
// real TCP, kill the secondary-side connection, ride out the outage
// degraded, then reconnect and resume with a delta resync from the
// last mutually-acked epoch — never a re-seed.
func TestE2EDisconnectDeltaResync(t *testing.T) {
	r := newE2ERig(t, transport.StaticFence(7), 7)

	// Seed streams the full memory over TCP (SendSeed rounds), then a
	// few protected cycles stream checkpoints.
	if _, err := r.rep.Seed(); err != nil {
		t.Fatalf("Seed: %v", err)
	}
	seedSpans := countSpans(r.tr, trace.SpanSeedRound)
	if seedSpans == 0 {
		t.Fatal("seeding recorded no seed-round spans")
	}
	var lastSeq uint64
	for i := 0; i < 3; i++ {
		st, err := r.rep.RunCycle()
		if err != nil {
			t.Fatalf("RunCycle %d: %v", i, err)
		}
		if st.Mode != replication.StateProtected {
			t.Fatalf("cycle %d mode = %v, want protected", i, st.Mode)
		}
		lastSeq = st.Seq
	}
	if acked, ok := r.cli.PeerAcked(); !ok || acked != lastSeq {
		t.Fatalf("PeerAcked = %d,%v, want %d,true", acked, ok, lastSeq)
	}

	// Outage: refuse new connections, then kill the live one. The next
	// checkpoint's send fails, the cycle rolls back, and the
	// replicator drops to degraded instead of erroring out.
	r.proxy.SetRefuse(true)
	r.proxy.CutConnections()
	st, err := r.rep.RunCycle()
	if err != nil {
		t.Fatalf("RunCycle into outage: %v", err)
	}
	if st.Mode != replication.StateDegraded {
		t.Fatalf("outage cycle mode = %v, want degraded", st.Mode)
	}
	waitFor(t, "client to notice the dead path", r.cli.Down)

	// Ride the outage: unprotected execution, dirty pages accumulating.
	for i := 0; i < 3; i++ {
		st, err := r.rep.RunCycle()
		if err != nil {
			t.Fatalf("degraded cycle %d: %v", i, err)
		}
		if st.Mode != replication.StateDegraded {
			t.Fatalf("degraded cycle %d mode = %v", i, st.Mode)
		}
	}

	// Heal the path; the client's jittered-backoff reconnect loop
	// re-handshakes and learns the server's last acked epoch.
	r.proxy.SetRefuse(false)
	waitFor(t, "client reconnect", func() bool { return !r.cli.Down() })

	st, err = r.rep.RunCycle()
	if err != nil {
		t.Fatalf("resync cycle: %v", err)
	}
	if !st.Resync {
		t.Fatalf("post-reconnect cycle did not resync: %+v", st)
	}
	if st.Mode != replication.StateProtected {
		t.Fatalf("resync cycle mode = %v, want protected", st.Mode)
	}
	// Pages accounting: the resync ships the outage's dirty delta, not
	// the full 1024-page memory a re-seed would.
	if st.DirtyPages == 0 || st.DirtyPages >= e2eMemBytes/4096 {
		t.Fatalf("resync shipped %d pages, want a strict delta of the %d-page memory",
			st.DirtyPages, e2eMemBytes/4096)
	}
	rec := r.rep.Recovery()
	if rec.DegradedEntries != 1 || rec.Resyncs != 1 {
		t.Fatalf("recovery stats = %+v, want 1 degraded entry and 1 resync", rec)
	}
	if rec.ResyncPages != int64(st.DirtyPages) {
		t.Fatalf("ResyncPages = %d, want %d", rec.ResyncPages, st.DirtyPages)
	}
	// The resync is a delta, not a re-seed: no new seed-round spans.
	if got := countSpans(r.tr, trace.SpanSeedRound); got != seedSpans {
		t.Fatalf("seed-round spans grew %d -> %d: resync fell back to re-seed", seedSpans, got)
	}
	if sts := r.srv.Status(); len(sts) != 1 || sts[0].SeedRounds != int64(seedSpans) {
		t.Fatalf("server saw extra seed rounds: %+v", sts)
	}

	// The replica converged: one more protected cycle, then compare
	// content hashes — the secondary holds exactly the primary's
	// memory as of the last acked checkpoint.
	st, err = r.rep.RunCycle()
	if err != nil || st.Mode != replication.StateProtected {
		t.Fatalf("post-resync cycle: %+v, %v", st, err)
	}
	replica, _, acked, ok := r.srv.Replica("protected")
	if !ok || acked != st.Seq {
		t.Fatalf("server acked %d,%v, want %d,true", acked, ok, st.Seq)
	}
	if replica.Hash() != r.vm.Memory().Hash() {
		t.Fatal("replica memory diverged from primary after resync")
	}
	if r.reg.Counter("here_transport_reconnects_total", "").Value() == 0 {
		t.Fatal("reconnect was not counted in here_transport_reconnects_total")
	}
}

// TestE2ECrossNodeBreakdown proves the observability path end to end:
// checkpoints over real TCP carry span context out and replica-side
// stage timings back, so the primary's trace alone reassembles a
// cross-node epoch breakdown — local scan/encode/transfer plus the
// secondary's decode/apply/ack and the wire-transit remainder — while
// the secondary's own tracer holds the matching remote spans.
func TestE2ECrossNodeBreakdown(t *testing.T) {
	r := newE2ERig(t, transport.StaticFence(1), 1)

	if _, err := r.rep.Seed(); err != nil {
		t.Fatalf("Seed: %v", err)
	}
	for i := 0; i < 4; i++ {
		st, err := r.rep.RunCycle()
		if err != nil || st.Mode != replication.StateProtected {
			t.Fatalf("cycle %d: %+v, %v", i, st, err)
		}
	}

	// Primary side: the merged breakdown. At least one epoch must carry
	// the replica-reported stages the acks brought back.
	var merged *trace.EpochStages
	for _, ep := range trace.EpochBreakdown(r.tr.Events()) {
		if ep.HasRemote() {
			ep := ep
			merged = &ep
			break
		}
	}
	if merged == nil {
		t.Fatal("no epoch in the primary trace carries remote stages")
	}
	if merged.Transfer <= 0 {
		t.Fatalf("merged epoch %d has no transfer span: %+v", merged.Epoch, merged)
	}
	if merged.RemoteDecode <= 0 || merged.RemoteApply <= 0 {
		t.Fatalf("merged epoch %d missing secondary decode/apply: %+v", merged.Epoch, merged)
	}
	if merged.RemoteAck <= 0 {
		t.Fatalf("merged epoch %d missing secondary ack stage: %+v", merged.Epoch, merged)
	}
	// Wire transit is the transfer span minus the secondary's work,
	// clamped at zero (the two nodes run different clock domains).
	if wt := merged.WireTransit(); wt < 0 {
		t.Fatalf("negative wire transit %v", wt)
	} else if rem := merged.RemoteSum(); merged.Transfer > rem && wt != merged.Transfer-rem {
		t.Fatalf("wire transit %v != transfer %v - remote %v", wt, merged.Transfer, rem)
	}

	// Secondary side: its own tracer recorded the receive-side spans.
	for _, kind := range []trace.Kind{
		trace.SpanRemoteRecv, trace.SpanRemoteDecode, trace.SpanRemoteApply, trace.SpanRemoteAck,
	} {
		if countSpans(r.str, kind) == 0 {
			t.Fatalf("secondary tracer recorded no %v spans", kind)
		}
	}
	// The spans carry the protection name so a shared secondary can be
	// filtered per-VM.
	for _, ev := range r.str.Events() {
		if ev.Kind == trace.SpanRemoteApply && ev.Note != "protected" {
			t.Fatalf("remote span not attributed to the protection: %+v", ev)
		}
	}
}

// TestE2EStaleGenerationFenced is the split-brain proof: once the
// fencing generation moves on (a failover elsewhere took over), the
// old primary's transport is rejected at the wire boundary and none
// of its state lands on the replica.
func TestE2EStaleGenerationFenced(t *testing.T) {
	fence := &movingFence{}
	fence.gen.Store(3)
	r := newE2ERig(t, fence, 3)

	if _, err := r.rep.Seed(); err != nil {
		t.Fatalf("Seed: %v", err)
	}
	st, err := r.rep.RunCycle()
	if err != nil || st.Mode != replication.StateProtected {
		t.Fatalf("protected cycle: %+v, %v", st, err)
	}
	_, _, ackedBefore, ok := r.srv.Replica("protected")
	if !ok {
		t.Fatal("no replica after first checkpoint")
	}
	replicaBefore, _, _, _ := r.srv.Replica("protected")
	hashBefore := replicaBefore.Hash()

	// The cluster moves on: generation bumps, then the old primary's
	// connection drops. Its re-handshake must be refused.
	fence.gen.Store(4)
	r.proxy.CutConnections()
	waitFor(t, "stale client to be fenced", func() bool {
		return errors.Is(r.cli.Err(), transport.ErrFenced)
	})

	// The stale replicator cannot ship anything: the checkpoint fails
	// with the typed fencing error, and even degraded mode refuses to
	// ride out a permanent rejection.
	if _, err := r.rep.RunCycle(); !errors.Is(err, transport.ErrFenced) {
		t.Fatalf("stale checkpoint error = %v, want ErrFenced", err)
	}

	// No state was applied: the replica's acked epoch and content are
	// exactly what the last in-generation checkpoint left.
	replica, _, acked, ok := r.srv.Replica("protected")
	if !ok || acked != ackedBefore {
		t.Fatalf("replica acked %d,%v changed after fenced attempt (was %d)", acked, ok, ackedBefore)
	}
	if replica.Hash() != hashBefore {
		t.Fatal("fenced peer mutated replica memory")
	}

	// A brand-new dial with the stale generation is refused at
	// handshake, before any stream can flow.
	if _, err := transport.Dial(transport.ClientConfig{
		Addr: r.proxy.Addr(), Protection: "protected", MemBytes: e2eMemBytes,
		Generation: 3, DialTimeout: 2 * time.Second,
	}); !errors.Is(err, transport.ErrFenced) {
		t.Fatalf("stale re-dial error = %v, want ErrFenced", err)
	}
}
