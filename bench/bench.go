package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"

	"github.com/here-ft/here/bench/harness"
	"github.com/here-ft/here/internal/controlplane"
	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/orchestrator"
)

// guest is one protected VM as the benchmark sees it: the benchmark IS
// the guest, so it holds the VM handle it stores through and the seeded
// walks that decide which pages each round touches.
type guest struct {
	name string
	vm   *hypervisor.VM
	hot  *harness.PageWalk // populated pages: overwrites and small stores
	cold *harness.PageWalk // never-written pages: TouchPage
	get  *http.Request     // GET /v1/vms/{name}, reused
}

// ops counts every operation whose failure would make a number
// meaningless: ticks, HTTP calls, failovers, recoveries, hash checks.
type ops struct {
	attempted, failed int
	errs              []string
}

// check counts one operation and reports whether it succeeded.
func (o *ops) check(what string, err error) bool {
	o.attempted++
	if err == nil {
		return true
	}
	o.failed++
	if len(o.errs) < 8 {
		o.errs = append(o.errs, what+": "+err.Error())
	}
	return false
}

// bench is one set-up stack plus the driver state of a run.
type bench struct {
	wl  Workload
	st  *stack
	gen *harness.PageGen
	ops *ops

	guests []*guest
	sink   *harness.Sink
	list   *http.Request // GET /v1/vms, reused
	round  int           // rounds driven so far (set-up included)

	pagesPerRound int // pages one round dirties, all guests
}

func pageAddr(p uint64) memory.Addr { return memory.Addr(p * memory.PageSize) }

// call runs one request through the control-plane handler in process:
// routing, admission, timeout and RED middleware and JSON encoding are
// inside the call; the kernel socket is not.
func (b *bench) call(req *http.Request) time.Duration {
	b.sink.Reset()
	t0 := time.Now()
	b.st.api.ServeHTTP(b.sink, req)
	d := time.Since(t0)
	var err error
	if !b.sink.OK() {
		err = fmt.Errorf("status %d", b.sink.Code)
	}
	b.ops.check(req.Method+" "+req.URL.Path, err)
	return d
}

func newRequest(method, path string, body any) *http.Request {
	var rd *bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			panic(err) // a bug: the bodies are the benchmark's own structs
		}
		rd = bytes.NewReader(raw)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, path, rd)
	if err != nil {
		panic(err) // a bug: the paths are constants
	}
	return req
}

// setUp is phase 1: build the stack, protect every guest through the
// API, populate guest memory, tick until every replica equals its
// primary, then run the warm-up rounds. The whole of it is setup_s.
func setUp(wl Workload, sc Scale, seed int64, dir string, o *ops) (*bench, time.Duration, error) {
	t0 := time.Now()
	pages := uint64(sc.GuestMiB) << 20 / memory.PageSize
	populated := pages * uint64(wl.PopulatePct) / 100
	if uint64(wl.FullPages+wl.SmallWrites) > populated || uint64(wl.Touches) > pages-populated {
		// A round must dirty exactly the pages it asks for.
		return nil, 0, fmt.Errorf("%d MiB guests are too small for %d stores and %d touches a round",
			sc.GuestMiB, wl.FullPages+wl.SmallWrites, wl.Touches)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	st, err := newStack(wl, dir)
	if err != nil {
		return nil, 0, err
	}
	ready := false
	defer func() {
		if !ready {
			st.close()
		}
	}()
	b := &bench{
		wl: wl, st: st, ops: o,
		gen:  harness.NewPageGen(seed),
		sink: harness.NewSink(),
		list: newRequest("GET", "/v1/vms", nil),
	}
	for i := 0; i < sc.Guests; i++ {
		g := &guest{name: fmt.Sprintf("g%03d", i)}
		g.get = newRequest("GET", "/v1/vms/"+g.name, nil)
		g.hot = harness.NewPageWalk(seed+int64(i)*2+1, 0, populated)
		if populated < pages {
			g.cold = harness.NewPageWalk(seed+int64(i)*2+2, populated, pages)
		}
		b.call(newRequest("POST", "/v1/vms", controlplane.ProtectRequest{
			Name: g.name, MemoryBytes: uint64(sc.GuestMiB) << 20, VCPUs: 1,
			Secondaries: wl.Secondaries,
		}))
		b.guests = append(b.guests, g)
	}
	if o.failed > 0 {
		return nil, 0, fmt.Errorf("protect: %v", o.errs)
	}
	if err := b.refreshVMs(); err != nil {
		return nil, 0, err
	}
	for _, g := range b.guests {
		for p := uint64(0); p < populated; p++ {
			if err := g.vm.WriteGuest(0, pageAddr(p), b.gen.Page()); err != nil {
				return nil, 0, fmt.Errorf("populate %s: %w", g.name, err)
			}
		}
	}
	// The first tick ships everything the population dirtied; allow a few
	// more for a chain leg that seeds inside a checkpoint.
	var diverged error
	for i := 0; i < 4; i++ {
		if err := st.sched.Tick(); err != nil {
			return nil, 0, fmt.Errorf("seed tick: %w", err)
		}
		if diverged = b.replicasEqual(); diverged == nil {
			break
		}
	}
	if diverged != nil {
		return nil, 0, fmt.Errorf("replicas never converged: %w", diverged)
	}
	b.pagesPerRound = sc.Guests * (wl.FullPages + wl.SmallWrites + wl.Touches)
	for i := 0; i < sc.Warmup; i++ {
		b.dirty()
		b.ops.check("tick", st.sched.Tick())
		b.reads(nil, nil)
	}
	ready = true
	return b, time.Since(t0), nil
}

// refreshVMs re-reads every guest's VM handle: a failover moves the
// guest to the activated replica, a restart rebuilds the protections.
func (b *bench) refreshVMs() error {
	for _, g := range b.guests {
		p, err := b.st.sched.Lookup(g.name)
		if err != nil {
			return err
		}
		g.vm = p.VM()
	}
	return nil
}

// dirty issues one round of guest stores: the benchmark's input to the
// program. Page images come from the pre-generated pool and page
// numbers from the pre-shuffled walks, so nothing is allocated here.
func (b *bench) dirty() {
	for _, g := range b.guests {
		var err error
		for i := 0; i < b.wl.FullPages && err == nil; i++ {
			err = g.vm.WriteGuest(0, pageAddr(g.hot.Next()), b.gen.Page())
		}
		for i := 0; i < b.wl.SmallWrites && err == nil; i++ {
			// 64-byte store at a 64-byte-aligned offset inside the page.
			off := memory.Addr(i%(memory.PageSize/64)) * 64
			err = g.vm.WriteGuest(0, pageAddr(g.hot.Next())+off, b.gen.Small())
		}
		for i := 0; i < b.wl.Touches && err == nil; i++ {
			err = g.vm.TouchPage(0, memory.PageNum(g.cold.Next()))
		}
		if err != nil {
			b.ops.check("guest store "+g.name, err)
		}
	}
	b.round++
}

// reads is the read side of one round: Status GETs round-robin over
// the guests, then the list GETs. Nil sample sets discard the timings
// (warm-up).
func (b *bench) reads(status, list *harness.Samples) {
	for i := 0; i < b.wl.Status; i++ {
		g := b.guests[(b.round*b.wl.Status+i)%len(b.guests)]
		d := b.call(g.get)
		if status != nil {
			status.Add(d)
		}
	}
	for i := 0; i < listPerRound; i++ {
		d := b.call(b.list)
		if list != nil {
			list.Add(d)
		}
	}
}

// replicaMems returns every replica copy of a guest's memory the
// program exposes: the deposits parked on the secondary hosts and, over
// TCP, node B's held replica.
func (b *bench) replicaMems(g *guest) ([]*memory.GuestMemory, error) {
	st, err := b.st.sched.Status(g.name)
	if err != nil {
		return nil, err
	}
	if st.Mode != orchestrator.ModeProtected {
		return nil, fmt.Errorf("%s is %s, not protected", g.name, st.Mode)
	}
	if len(st.Secondaries) != b.wl.Secondaries {
		return nil, fmt.Errorf("%s has %d secondaries, want %d", g.name, len(st.Secondaries), b.wl.Secondaries)
	}
	var mems []*memory.GuestMemory
	for _, sec := range st.Secondaries {
		dep, ok := b.st.host(sec.Name).Replica(g.name)
		if !ok {
			return nil, fmt.Errorf("%s: no replica deposit on %s", g.name, sec.Name)
		}
		mems = append(mems, dep.Mem)
	}
	if b.st.peer != nil {
		mem, _, _, ok := b.st.peer.Replica(g.name)
		if !ok {
			return nil, fmt.Errorf("%s: node B holds no replica", g.name)
		}
		mems = append(mems, mem)
	}
	return mems, nil
}

// sameMemory reports whether two guest memories hold the same content,
// compared page by page in both directions: stricter than comparing
// GuestMemory.Hash() values and several times cheaper.
func sameMemory(a, b *memory.GuestMemory) bool {
	return a.NumPages() == b.NumPages() && len(a.DiffPages(b)) == 0 && len(b.DiffPages(a)) == 0
}

// replicasEqual is the integrity check: every replica's memory equals
// its primary's.
func (b *bench) replicasEqual() error {
	for _, g := range b.guests {
		mems, err := b.replicaMems(g)
		if err != nil {
			return err
		}
		for i, m := range mems {
			if !sameMemory(g.vm.Memory(), m) {
				return fmt.Errorf("%s: replica %d differs from the primary in %d pages",
					g.name, i, len(g.vm.Memory().DiffPages(m))+len(m.DiffPages(g.vm.Memory())))
			}
		}
	}
	return nil
}

// storesLand issues one more round of guest stores and, before any
// checkpoint ships them, requires every replica to differ from its
// primary in exactly the pages stored to, and a full-page overwrite to
// have changed the whole page. It is what gives replicasEqual its
// meaning: with stores that rewrote a page's own bytes, a replica that
// stopped receiving checkpoints would still compare equal.
func (b *bench) storesLand() error {
	b.dirty()
	want := b.wl.FullPages + b.wl.SmallWrites // a touched page stays all zero
	page, stale := make([]byte, memory.PageSize), make([]byte, memory.PageSize)
	overwritten, differing := 0, 0
	for _, g := range b.guests {
		mems, err := b.replicaMems(g)
		if err != nil {
			return err
		}
		mem := g.vm.Memory()
		for i, m := range mems {
			changed := mem.DiffPages(m)
			if len(changed) != want {
				return fmt.Errorf("%s: a round stored to %d pages, replica %d differs in %d",
					g.name, want, i, len(changed))
			}
			if b.wl.FullPages == 0 {
				continue
			}
			for _, n := range changed {
				if err := mem.ReadPage(n, page); err != nil {
					return err
				}
				if err := m.ReadPage(n, stale); err != nil {
					return err
				}
				for j := range page {
					if page[j] != stale[j] {
						differing++
					}
				}
			}
			overwritten += len(changed)
		}
	}
	// Two random images agree in one byte of 256, and one overwrite in
	// 251 draws the image the page already holds (bar its sequence
	// number): over 99 % of the bytes differ when the pool and the walks
	// are out of step, next to none when they are in step.
	if differing < overwritten*memory.PageSize*9/10 {
		return fmt.Errorf("%d overwritten pages differ from their stale copies in only %d bytes",
			overwritten, differing)
	}
	return nil
}

// reconnects fails if any of node A's streaming clients lost its
// connection: a reconnect inside the steady phase would put a dial and
// a resync into the round times.
func (b *bench) reconnects() error {
	for _, ps := range b.st.sched.TransportStatus() {
		if ps.Role == "client" && (ps.Connects != 1 || ps.Disconnects != 0) {
			return fmt.Errorf("%s: %d connects, %d disconnects", ps.Protection, ps.Connects, ps.Disconnects)
		}
	}
	return nil
}

// totals sums the replication totals the Status API reports over the
// workload's guests.
func (b *bench) totals() (ckpts uint64, pages, bytes int64, encode time.Duration, legAcks uint64) {
	for _, g := range b.guests {
		st, err := b.st.sched.Status(g.name)
		if err != nil {
			b.ops.check("status "+g.name, err)
			continue
		}
		ckpts += st.Totals.Checkpoints
		pages += st.Totals.PagesSent
		bytes += st.Totals.BytesSent
		encode += st.Totals.Wire.EncodeTime
		for _, l := range st.Legs {
			legAcks += l.AckedEpoch
		}
	}
	return
}

// settle forces two collections so the next phase starts from the same
// heap state whatever the previous one left behind.
func settle() {
	runtime.GC()
	runtime.GC()
}
