package orchestrator

// Re-protect after a forced failover: the fenced primary's memory
// becomes the new leg's replica and the seed ships the difference. The
// end-to-end test runs over loopback TCP, where a third copy — the
// peer's — has to come out equal too; the fallback table shows every
// way the warm copy is refused and that what follows is the cold seed
// it always was. White-box like restart_test.go.

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/here-ft/here/internal/chv"
	"github.com/here-ft/here/internal/faults"
	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/journal"
	"github.com/here-ft/here/internal/kvm"
	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/placement"
	"github.com/here-ft/here/internal/recovery"
	"github.com/here-ft/here/internal/replication"
	"github.com/here-ft/here/internal/trace"
	"github.com/here-ft/here/internal/transport"
	"github.com/here-ft/here/internal/vclock"
	"github.com/here-ft/here/internal/xen"
)

// hookedSender is the protection's real TCP client with three seams:
// a callback on every seed message (to look at the fleet while a seed is
// in flight), a switch that fails checkpoints the way a link flap does,
// and a skew on what the peer is said to have acknowledged.
type hookedSender struct {
	*transport.Client
	onSeed func()
	flap   bool
	skew   uint64
}

func (s *hookedSender) SendSeed(round uint64, stream []byte) error {
	if s.onSeed != nil {
		s.onSeed()
	}
	return s.Client.SendSeed(round, stream)
}

func (s *hookedSender) SendCheckpoint(seq uint64, stream []byte) error {
	if s.flap {
		return errors.New("injected link flap")
	}
	return s.Client.SendCheckpoint(seq, stream)
}

func (s *hookedSender) PeerAcked() (uint64, bool) {
	seq, ok := s.Client.PeerAcked()
	return seq + s.skew, ok
}

// warmRig is a manager over a small fleet on one simulated clock,
// replicating over simnet links or — with tcp — over loopback TCP to a
// transport.Server standing in for the peer daemon.
type warmRig struct {
	t      testing.TB
	reg    *trace.Registry
	m      *Manager
	hosts  []*hypervisor.Host
	srv    *transport.Server
	sender *hookedSender // the most recently dialed client
	onSeed func()        // forwarded from every client's seed messages
}

// newWarmRig builds the fleet: one host per letter of kinds (x Xen, k
// KVM/kvmtool, c Cloud Hypervisor), named letter + index.
func newWarmRig(t testing.TB, kinds string, tcp bool, store *journal.Store) *warmRig {
	t.Helper()
	clk := vclock.NewSim()
	r := &warmRig{t: t, reg: trace.NewRegistry()}
	cfg := Config{Clock: clk, Metrics: r.reg, Journal: store}
	if tcp {
		r.srv = transport.NewServer(transport.ServerConfig{})
		if err := r.srv.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.srv.Close() })
		cfg.DialTransport = func(name string, memBytes, generation uint64) (replication.Transport, error) {
			c, err := transport.Dial(transport.ClientConfig{
				Addr: r.srv.Addr(), Protection: name, MemBytes: memBytes, Generation: generation,
			})
			if err != nil {
				return nil, err
			}
			t.Cleanup(func() { c.Close() })
			r.sender = &hookedSender{Client: c, onSeed: func() {
				if r.onSeed != nil {
					r.onSeed()
				}
			}}
			return r.sender, nil
		}
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.m = m
	mk := map[rune]func(string, vclock.Clock) (*hypervisor.Host, error){'x': xen.New, 'k': kvm.New, 'c': chv.New}
	for i, c := range kinds {
		host, err := mk[c](fmt.Sprintf("%c%d", c, i), clk)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AddHost(host); err != nil {
			t.Fatal(err)
		}
		r.hosts = append(r.hosts, host)
	}
	return r
}

func (r *warmRig) protect(spec VMSpec) *Protection {
	r.t.Helper()
	p, err := r.m.Protect(spec)
	if err != nil {
		r.t.Fatal(err)
	}
	return p
}

func (r *warmRig) tick() {
	r.t.Helper()
	if err := r.m.Tick(); err != nil {
		r.t.Fatalf("Tick: %v", err)
	}
}

func (r *warmRig) status(name string) Status {
	r.t.Helper()
	st, err := r.m.Status(name)
	if err != nil {
		r.t.Fatal(err)
	}
	return st
}

func (r *warmRig) counter(name string) int64 { return r.reg.Counter(name, "").Value() }

// store writes a distinct record into each of the given pages of the
// protection's current guest, through its dirty log.
func (r *warmRig) store(p *Protection, tag byte, pages ...int) {
	r.t.Helper()
	for _, n := range pages {
		rec := []byte(fmt.Sprintf("page %06d tag %03d", n, tag)) // fixed width: a shorter record must not hide in a longer one
		if err := p.vm.WriteGuest(0, memory.Addr(n)*memory.PageSize+32, rec); err != nil {
			r.t.Fatal(err)
		}
	}
}

// converged fails unless every replica of the protection — each chain
// host's deposit and, over TCP, the peer's copy — equals the guest.
func (r *warmRig) converged(p *Protection, when string) {
	r.t.Helper()
	guest := p.vm.Memory()
	if len(p.secondaries) == 0 {
		r.t.Fatalf("%s: %s runs unprotected", when, p.Name)
	}
	for _, h := range p.secondaries {
		dep, ok := h.Replica(p.Name)
		if !ok {
			r.t.Fatalf("%s: %s holds no deposit", when, h.HostName())
		}
		if d := memory.Diff(dep.Mem, guest); len(d) > 0 {
			r.t.Fatalf("%s: the deposit on %s differs from the guest in pages %v", when, h.HostName(), d)
		}
	}
	if r.srv != nil {
		peer, _, _, ok := r.srv.Replica(p.Name)
		if !ok {
			r.t.Fatalf("%s: the peer holds no replica", when)
		}
		if d := memory.Diff(peer, guest); len(d) > 0 {
			r.t.Fatalf("%s: the peer differs from the guest in pages %v", when, d)
		}
	}
}

// lastReprotect returns the detail of the newest re-protected event.
func (r *warmRig) lastReprotect() string {
	r.t.Helper()
	evs := r.m.Events()
	for i := len(evs) - 1; i >= 0; i-- {
		if evs[i].Kind == EventReprotected {
			return evs[i].Detail
		}
	}
	r.t.Fatal("no re-protected event")
	return ""
}

func kindsOf(m *Manager) []EventKind {
	var out []EventKind
	for _, e := range m.Events() {
		out = append(out, e.Kind)
	}
	return out
}

// TestForcedFailoverReprotectsWarmOverTCP fails one guest over three
// times in a row over loopback TCP, each time with guest stores landing
// between the last acknowledged checkpoint and the failover. Every
// re-protect must reverse the pair, ship exactly the pages those stores
// touched, and leave guest == host deposit == peer replica.
func TestForcedFailoverReprotectsWarmOverTCP(t *testing.T) {
	const pages = 1024
	r := newWarmRig(t, "xk", true, nil)
	p := r.protect(VMSpec{Name: "vm", MemoryBytes: pages * memory.PageSize, VCPUs: 1})
	for n := 0; n < 300; n++ {
		r.store(p, 1, n)
	}
	r.tick()
	r.tick()
	r.converged(p, "before the first failover")
	fence := r.m.Guard().Generation()

	for round := 1; round <= 3; round++ {
		// Rewrites of pages the replica holds, and first writes to pages it
		// never held: the activated replica lacks these, so the old
		// primary's copy must get them back as zero pages.
		lost := []int{7, 8, 150, 400 + round, 900 + round}
		r.store(p, byte(10+round), lost...)
		before := r.status("vm")
		oldMem := p.vm.Memory()

		// While the seed is in flight the new leg is nothing yet: no
		// session a failover could activate, no deposit on the host.
		seeds := 0
		r.onSeed = func() {
			seeds++
			if p.rep != nil {
				t.Error("a replication session is published before its seed returned")
			}
			for _, h := range r.hosts {
				if _, ok := h.Replica("vm"); ok {
					t.Errorf("%s holds a deposit while the seed is in flight", h.HostName())
				}
			}
			if n := vmInstances(r.hosts, "vm"); n != 1 {
				t.Errorf("%d registered copies of the VM during the seed, want 1", n)
			}
		}
		if _, err := r.m.Failover("vm"); err != nil {
			t.Fatalf("failover %d: %v", round, err)
		}
		r.onSeed = nil
		if seeds == 0 {
			t.Fatal("the re-protect sent no seed message: the peer's acked marker was not reset")
		}

		st := r.status("vm")
		if st.Generation != before.Generation+1 {
			t.Fatalf("generation %d → %d, want +1", before.Generation, st.Generation)
		}
		if g := r.m.Guard().Generation(); g <= fence {
			t.Fatalf("fence %d → %d, want it to advance", fence, g)
		} else {
			fence = g
		}
		if st.Primary.Name != before.Secondary.Name || st.Secondary == nil || st.Secondary.Name != before.Primary.Name {
			t.Fatalf("pair %s → %s became %s → %v, want it reversed",
				before.Primary.Name, before.Secondary.Name, st.Primary.Name, st.Secondary)
		}
		if st.Mode != ModeProtected || st.Epoch != 0 || st.Legs[0].NeedsSeed {
			t.Fatalf("mode %s at epoch %d (leg %+v), want re-protected with nothing acked yet", st.Mode, st.Epoch, st.Legs[0])
		}
		if ch := st.Placement.Secondaries[0]; !ch.Warm || ch.Host != before.Primary.Name {
			t.Fatalf("placement %+v, want %s taken for its warm copy", ch, before.Primary.Name)
		}
		if st.Totals.PagesSent != int64(len(lost)) {
			t.Fatalf("the re-protect shipped %d pages, want the %d the lost stores touched (guest: %d)",
				st.Totals.PagesSent, len(lost), pages)
		}
		want := fmt.Sprintf("; warm seed: %d of %d pages", len(lost), pages)
		if got := r.lastReprotect(); !strings.HasSuffix(got, want) {
			t.Fatalf("re-protected event %q, want it to end %q", got, want)
		}
		if dep, ok := hostNamed(r.hosts, st.Secondary.Name).Replica("vm"); !ok || dep.Mem != oldMem {
			t.Fatal("the new replica is not the fenced primary's memory")
		}
		if n := vmInstances(r.hosts, "vm"); n != 1 {
			t.Fatalf("%d registered copies of the VM after failover %d, want 1", n, round)
		}
		// The stores that never reached a checkpoint are gone with the
		// copy that held them, and every replica already agrees.
		r.converged(p, fmt.Sprintf("right after failover %d", round))
		if got := r.counter(`here_reprotect_seeds_total{seed="warm"}`); got != int64(round) {
			t.Fatalf("warm seeds counted: %d, want %d", got, round)
		}

		r.store(p, byte(20+round), 5, 600+round)
		r.tick()
		if st := r.status("vm"); st.Mode != ModeProtected || st.Epoch != 1 {
			t.Fatalf("mode %s at epoch %d after the first tick, want one acked checkpoint", st.Mode, st.Epoch)
		}
		r.converged(p, fmt.Sprintf("one tick after failover %d", round))
		if n := vmInstances(r.hosts, "vm"); n != 1 {
			t.Fatalf("%d registered copies of the VM, want 1", n)
		}
	}
	if cold := r.counter(`here_reprotect_seeds_total{seed="cold"}`); cold != 0 {
		t.Fatalf("%d cold seeds, want every re-protect warm", cold)
	}
	if got, want := r.counter("here_reprotect_seed_pages_total"), int64(3*5); got != want {
		t.Fatalf("here_reprotect_seed_pages_total = %d, want %d", got, want)
	}
}

// TestWarmReprotectFallsBackCold: each way a forced failover may not
// keep, or may not use, the fenced primary's copy ends in the cold seed
// of the parent commit — every page shipped, the same events — and in
// replica == primary after the next tick.
func TestWarmReprotectFallsBackCold(t *testing.T) {
	const pages = 256
	failover := func(r *warmRig, _ *Protection) error {
		_, err := r.m.Failover("vm")
		return err
	}
	forced := []EventKind{EventProtected, EventFailedOver, EventReprotected}
	cases := []struct {
		name    string
		kinds   string
		tcp     bool
		arrange func(r *warmRig, p *Protection)
		act     func(r *warmRig, p *Protection) error
		events  []EventKind
	}{
		{name: "old host failed", kinds: "xkx", arrange: func(r *warmRig, p *Protection) {
			r.hosts[0].Fail(hypervisor.Crashed, "test")
		}},
		{name: "old host full", kinds: "xkx", arrange: func(r *warmRig, p *Protection) {
			r.m.planner = placement.New(placement.Config{MaxVMs: 2})
			for i := 0; i < 2; i++ {
				if _, err := r.hosts[0].CreateVM(hypervisor.VMConfig{
					Name: fmt.Sprintf("filler-%d", i), MemBytes: 1 << 20, VCPUs: 1,
				}); err != nil {
					r.t.Fatal(err)
				}
			}
		}},
		{name: "copy on a same-flavor host", kinds: "xkx", arrange: func(*warmRig, *Protection) {},
			// No failover produces this (a pair is heterogeneous both ways
			// round); hand tryReprotect such a copy directly.
			act: func(r *warmRig, p *Protection) error {
				r.m.mu.Lock()
				defer r.m.mu.Unlock()
				defer r.m.publishUpsert(p)
				r.m.dropSecondaries(p)
				stale := memory.NewGuestMemory(pages * memory.PageSize)
				if err := p.vm.Memory().CopyPagesTo(p.vm.Memory().PopulatedList(), stale); err != nil {
					return err
				}
				return r.m.tryReprotect(p, &warmCopy{host: r.hosts[2], mem: stale}, true)
			},
			events: []EventKind{EventProtected, EventSecondaryLost, EventReprotected}},
		{name: "session degraded", kinds: "xk", tcp: true, arrange: func(r *warmRig, p *Protection) {
			r.sender.flap = true
			r.store(p, 3, 9)
			r.tick()
			if st := r.status("vm"); st.Mode != ModeDegraded {
				r.t.Fatalf("mode %s after the flap, want degraded", st.Mode)
			}
		}},
		{name: "leg lagging", kinds: "xk", arrange: func(r *warmRig, p *Protection) {
			link := r.m.links["x0->k1"]
			link.SetDown(true)
			r.store(p, 3, 9)
			if err := r.m.Tick(); err == nil {
				r.t.Fatal("a tick over a downed link succeeded")
			}
			link.SetDown(false)
			if legs := r.status("vm").Legs; legs[0].PendingPages == 0 {
				r.t.Fatalf("leg %+v, want a backlog", legs[0])
			}
		}},
		{name: "peer acked off the mirror", kinds: "xk", tcp: true, arrange: func(r *warmRig, p *Protection) {
			r.sender.skew = 1
		}},
		{name: "DestroyVM error", kinds: "xk", arrange: func(r *warmRig, p *Protection) {
			// Someone else removed the copy: the manager cannot know it is
			// stopped, so it may not reuse its memory.
			if err := r.hosts[0].DestroyVM("vm"); err != nil {
				r.t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newWarmRig(t, tc.kinds, tc.tcp, nil)
			p := r.protect(VMSpec{Name: "vm", MemoryBytes: pages * memory.PageSize, VCPUs: 1})
			for n := 0; n < 100; n++ {
				r.store(p, 1, n)
			}
			r.tick()
			r.tick()
			r.store(p, 2, 4, 200) // lost with the old primary
			tc.arrange(r, p)
			act, events := tc.act, tc.events
			if act == nil {
				act, events = failover, forced
			}
			if err := act(r, p); err != nil {
				t.Fatal(err)
			}
			st := r.status("vm")
			if st.Mode != ModeProtected || st.Epoch != 0 {
				t.Fatalf("mode %s at epoch %d, want re-protected with nothing acked yet", st.Mode, st.Epoch)
			}
			if st.Totals.PagesSent < pages {
				t.Fatalf("the seed shipped %d pages, want a cold one (the guest has %d)", st.Totals.PagesSent, pages)
			}
			for _, ch := range st.Placement.Secondaries {
				if ch.Warm {
					t.Fatalf("placement %+v claims a warm copy", ch)
				}
			}
			got := kindsOf(r.m)
			if fmt.Sprint(got) != fmt.Sprint(events) {
				t.Fatalf("events %v, want %v", got, events)
			}
			detail := r.lastReprotect()
			parent := fmt.Sprintf("%s (%s) -> %s (%s)", st.Primary.Name, st.Primary.Product,
				st.Secondary.Name, st.Secondary.Product)
			if detail != parent+"; cold seed" {
				t.Fatalf("re-protected event %q, want %q", detail, parent+"; cold seed")
			}
			if warm, cold := r.counter(`here_reprotect_seeds_total{seed="warm"}`),
				r.counter(`here_reprotect_seeds_total{seed="cold"}`); warm != 0 || cold != 1 {
				t.Fatalf("seeds counted: %d warm, %d cold, want one cold", warm, cold)
			}
			if n := vmInstances(r.hosts, "vm"); n != 1 {
				t.Fatalf("%d registered copies of the VM, want 1", n)
			}
			r.converged(p, "right after the re-protect")
			r.store(p, 4, 5, 210)
			r.tick()
			r.converged(p, "one tick later")
		})
	}
}

// TestWarmReprotectOnSecondLegOfChain: in a 1 + 2 chain the planner may
// give the first slot to a host that shares fewer CVEs with the new
// primary than the warm host does; the warm copy then seeds leg 1,
// inside the pause, and only leg 0 is filled from scratch.
func TestWarmReprotectOnSecondLegOfChain(t *testing.T) {
	const pages = 256
	r := newWarmRig(t, "kxcx", false, nil)
	p := r.protect(VMSpec{Name: "vm", MemoryBytes: pages * memory.PageSize, VCPUs: 1, Secondaries: 2})
	if got := secondaryNames(p.secondaries); fmt.Sprint(got) != "[x1 c2]" || p.primary.HostName() != "k0" {
		t.Fatalf("chain %s → %v, want k0 → [x1 c2]", p.primary.HostName(), got)
	}
	for n := 0; n < 100; n++ {
		r.store(p, 1, n)
	}
	r.tick()
	r.tick()
	// With x1 gone the Cloud Hypervisor leg is the one to activate; from
	// there the idle Xen host x3 shares nothing with the new primary, the
	// warm kvmtool host k0 shares kvm-core.
	r.hosts[1].Fail(hypervisor.Crashed, "test")
	lost := []int{3, 4, 220}
	r.store(p, 2, lost...)
	oldMem := p.vm.Memory()
	if _, err := r.m.Failover("vm"); err != nil {
		t.Fatal(err)
	}
	st := r.status("vm")
	if st.Primary.Name != "c2" || len(st.Secondaries) != 2 ||
		st.Secondaries[0].Name != "x3" || st.Secondaries[1].Name != "k0" {
		t.Fatalf("chain %s → %+v, want c2 → [x3 k0]", st.Primary.Name, st.Secondaries)
	}
	if s := st.Placement.Secondaries; s[0].Warm || !s[1].Warm {
		t.Fatalf("placement %+v, want only k0 taken for its warm copy", s)
	}
	if dep, ok := r.hosts[0].Replica("vm"); !ok || dep.Mem != oldMem {
		t.Fatal("leg 1's replica is not the fenced primary's memory")
	}
	populated := int64(p.vm.Memory().PopulatedPages())
	if got, want := st.Totals.PagesSent, int64(pages)+int64(len(lost)); got < want || got >= int64(pages)+populated {
		t.Fatalf("the seed shipped %d pages, want leg 0's %d plus leg 1's %d-page drift (a cold leg 1 takes %d more)",
			got, pages, len(lost), populated)
	}
	if want := fmt.Sprintf("; warm seed: %d of %d pages", st.Totals.PagesSent, 2*pages); !strings.HasSuffix(r.lastReprotect(), want) {
		t.Fatalf("re-protected event %q, want it to end %q", r.lastReprotect(), want)
	}
	r.converged(p, "right after the failover")
	r.store(p, 3, 5, 230)
	r.tick()
	r.converged(p, "one tick later")
	for _, l := range r.status("vm").Legs {
		if l.AckedEpoch != 1 || l.PendingPages != 0 {
			t.Fatalf("leg %+v after the first tick, want both legs on epoch 1", l)
		}
	}
}

// TestWarmSeedReportsDistinctPages: under a guest that keeps storing
// while it is seeded, the later rounds re-send pages; the event and
// here_reprotect_seed_pages_total used to add those in, so "N of M pages"
// read N > M. N is the first pass — distinct pages, at most the guest's —
// and the later rounds are reported beside it.
func TestWarmSeedReportsDistinctPages(t *testing.T) {
	const pages = 512
	r := newWarmRig(t, "xk", false, nil)
	p := r.protect(VMSpec{
		Name: "vm", MemoryBytes: pages * memory.PageSize, VCPUs: 2,
		WorkloadSpec: WorkloadSpec{Name: "membench", LoadPercent: 90, Seed: 3},
	})
	r.tick()
	r.tick()
	// A first pass long enough for the guest to store into it.
	for n := 0; n < 400; n++ {
		r.store(p, 9, n)
	}
	if _, err := r.m.Failover("vm"); err != nil {
		t.Fatal(err)
	}
	var first, of, later int64
	detail := r.lastReprotect()
	seed := detail[strings.LastIndex(detail, "; ")+2:]
	if n, err := fmt.Sscanf(seed, "warm seed: %d of %d pages, %d more in later rounds", &first, &of, &later); n != 3 {
		t.Fatalf("re-protected event %q: %v", detail, err)
	}
	if sent := r.status("vm").Totals.PagesSent; of != pages || first > of || later == 0 || first+later != sent {
		t.Fatalf("event %q: want a first pass within the guest's %d pages and, with the later rounds, the %d pages shipped",
			seed, pages, sent)
	}
	if got := r.counter("here_reprotect_seed_pages_total"); got != first {
		t.Fatalf("here_reprotect_seed_pages_total = %d, want the first pass's %d", got, first)
	}
	if got := r.counter("here_reprotect_seed_later_pages_total"); got != later {
		t.Fatalf("here_reprotect_seed_later_pages_total = %d, want %d", got, later)
	}
}

// TestMicrorebootResyncSeesPagesOnlyTheDepositHolds: the in-place
// recovery resets the guest's dirty log and rebuilds it from a content
// diff against the surviving deposit. A page the guest gave back (no
// backing at all) while the deposit still holds its old content is in
// that diff only if the diff looks from both sides.
func TestMicrorebootResyncSeesPagesOnlyTheDepositHolds(t *testing.T) {
	r := newInplaceRig(t, "xk", recovery.Policy{
		Deadline: 5 * time.Second, MaxAttempts: 4, Backoff: 50 * time.Millisecond,
	})
	p, err := r.m.Protect(VMSpec{Name: "vm", MemoryBytes: 128 * memory.PageSize, VCPUs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.vm.WriteGuest(0, 5*memory.PageSize, []byte("held by both, for now")); err != nil {
		t.Fatal(err)
	}
	r.ticks(2)
	dep, ok := r.hosts[1].Replica("vm")
	if !ok || !dep.Mem.Populated(5) {
		t.Fatal("the deposit does not hold page 5 yet")
	}
	// The guest drops the page: unpopulated on the primary, logged dirty.
	if err := p.vm.Memory().WritePage(5, make([]byte, memory.PageSize)); err != nil {
		t.Fatal(err)
	}
	p.vm.Tracker().MarkDirty(0, 5)
	plan := faults.New(r.clk, 7)
	plan.HostTransientHang(0, 50*time.Millisecond, r.hosts[0], "transient stall")
	plan.Advance(r.clk.Now())
	r.ticksUntilProtected("vm", 30)
	if kinds := eventKinds(r.m); kinds[EventMicrorebooted] != 1 || kinds[EventFailedOver] != 0 {
		t.Fatalf("events = %v, want one microrebooted and no failed-over", kinds)
	}
	dep, ok = r.hosts[1].Replica("vm")
	if !ok {
		t.Fatal("no deposit after the recovery")
	}
	if d := memory.Diff(dep.Mem, p.vm.Memory()); len(d) > 0 {
		t.Fatalf("after the delta resync the deposit still differs from the guest in pages %v", d)
	}
}

// BenchmarkReprotect times one forced failover — activation, fence and
// re-protect — of a fully populated guest on simnet links, after stores
// to the same 64 pages' worth of guest since the last acknowledged
// checkpoint whatever its size. warm reverses the pair and must read flat
// from 1 MiB to 256 MiB, in ns/op and B/op: it finds what to ship in the
// dirty logs and compares no content. cold is the same call with the
// fenced copy removed behind the manager's back: a full seed, O(guest).
// These rows run on a NoSync journal. The warm/1MiB/fsync and
// warm/1MiB/group-commit rows price the journal too: a real-filesystem
// WAL without and with group commit. Every row reports fsyncs/op and
// fails unless a failover issues exactly two — one for its intent, one
// for its commit and re-protect — or none under NoSync.
func BenchmarkReprotect(b *testing.B) {
	const dirty = 64
	for _, row := range []struct {
		kind, wal string
		mib       int
	}{{"warm", "", 1}, {"warm", "", 64}, {"warm", "", 256}, {"cold", "", 1}, {"cold", "", 64},
		{"warm", "fsync", 1}, {"warm", "group-commit", 1}} {
		kind, mib := row.kind, row.mib
		name, opts, wantFsyncs := fmt.Sprintf("%s/%dMiB", kind, mib), journal.Options{NoSync: true}, 0
		if row.wal != "" {
			name, opts, wantFsyncs = name+"/"+row.wal, journal.Options{GroupCommit: row.wal == "group-commit"}, 2
		}
		b.Run(name, func(b *testing.B) {
			store, _, err := journal.Open(b.TempDir(), opts)
			if err != nil {
				b.Fatal(err)
			}
			defer store.Close()
			r := newWarmRig(b, "xk", false, store)
			pages := mib << 20 / memory.PageSize
			p := r.protect(VMSpec{Name: "vm", MemoryBytes: uint64(mib) << 20, VCPUs: 1})
			for n := 0; n < pages; n++ {
				r.store(p, 255, n)
			}
			r.tick()
			b.ReportAllocs()
			var shipped int64
			var fsyncs uint64
			for i := 0; b.Loop(); i++ {
				b.StopTimer()
				for k := 0; k < dirty; k++ {
					r.store(p, byte(i%255), (i+k*(pages/dirty))%pages) // never the record already there
				}
				if kind == "cold" {
					if err := p.primary.(*hypervisor.Host).DestroyVM(p.vm.Name()); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				f0 := store.Fsyncs()
				if _, err := r.m.Failover("vm"); err != nil {
					b.Fatal(err)
				}
				fsyncs += store.Fsyncs() - f0
				b.StopTimer()
				shipped += r.status("vm").Totals.PagesSent
				r.tick()
				b.StartTimer()
			}
			b.StopTimer()
			r.converged(p, "after the last re-protect")
			b.ReportMetric(float64(shipped)/float64(b.N), "pages/op")
			b.ReportMetric(float64(fsyncs)/float64(b.N), "fsyncs/op")
			if fsyncs != uint64(wantFsyncs*b.N) {
				b.Fatalf("%d fsyncs in %d failovers, want %d each", fsyncs, b.N, wantFsyncs)
			}
			if want := `here_reprotect_seeds_total{seed="` + kind + `"}`; r.counter(want) != int64(b.N) {
				b.Fatalf("%s = %d after %d failovers", want, r.counter(want), b.N)
			}
		})
	}
}
