package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"github.com/here-ft/here/bench/harness"
	"github.com/here-ft/here/internal/arch"
	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/journal"
	"github.com/here-ft/here/internal/kvm"
	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/period"
	"github.com/here-ft/here/internal/replication"
	"github.com/here-ft/here/internal/simnet"
	"github.com/here-ft/here/internal/trace"
	"github.com/here-ft/here/internal/translate"
	"github.com/here-ft/here/internal/transport"
	"github.com/here-ft/here/internal/vclock"
	"github.com/here-ft/here/internal/wire"
	"github.com/here-ft/here/internal/xen"
)

// probes measures single layers from outside, by timing calls into
// their public functions on scratch copies: a throw-away encoder, a
// scratch replica memory, a scratch protection on the peer server, a
// stand-alone replication chain on scratch hosts, a scratch journal in
// the same directory. Each traced round they replay the real dirty set
// of guest 0, so a layer is measured on the workload's own inputs
// while the system under test is left as it was (Peek, not Snapshot).
type probes struct {
	rec *harness.Recorder
	dur map[string]*harness.Samples // span durations by name

	g       *guest
	buf     []byte
	image   []byte              // a translated machine-state record, the state frame of probe streams
	scratch *memory.GuestMemory // decode target
	delta   *wire.Encoder       // content-aware encoder following guest 0

	srv    *transport.Server // the probes' own peer when the workload has no node B
	client *transport.Client // scratch protection "probe-send"
	seq    uint64

	src, dst *hypervisor.Host // scratch hosts of the stand-alone chain
	chainVM  *hypervisor.VM
	chain    *replication.Replicator
	sender   *timedSender // nil on simnet
	store    *journal.Store

	pages, streamBytes, allocBytes int64
	sendBytes                      int64
	remoteDecode, remoteApply      time.Duration
	residual                       time.Duration
	imbalance                      float64 // sum over parallel ticks of max/mean group tick
	parallel                       int     // parallel ticks
	seqSum                         *harness.Samples
	listBytes                      int
	spanNS                         float64
	allocSample                    []metrics.Sample
}

// timedSender times the stream sends a stand-alone chain makes, so the
// cycle's residual (cycle minus encode minus send) can be taken.
type timedSender struct {
	*transport.Client
	total time.Duration
}

func (t *timedSender) SendCheckpoint(seq uint64, stream []byte) error {
	t0 := time.Now()
	err := t.Client.SendCheckpoint(seq, stream)
	t.total += time.Since(t0)
	return err
}

func newProbes(b *bench, dir string) (*probes, error) {
	p := &probes{
		rec:         harness.NewRecorder(1 << 16),
		dur:         map[string]*harness.Samples{},
		g:           b.guests[0],
		buf:         make([]byte, memory.PageSize),
		delta:       wire.NewEncoder(true),
		seqSum:      harness.NewSamples(256),
		allocSample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
	ok := false
	defer func() {
		if !ok {
			p.close()
		}
	}()
	memBytes := p.g.vm.Memory().SizeBytes()
	p.scratch = memory.NewGuestMemory(memBytes)
	if err := p.delta.Prime(p.g.vm.Memory()); err != nil {
		return nil, err
	}

	peerAddr := ""
	if b.st.peer != nil {
		peerAddr = b.st.peer.Addr()
	} else {
		p.srv = transport.NewServer(transport.ServerConfig{})
		if err := p.srv.Listen("127.0.0.1:0"); err != nil {
			return nil, err
		}
		peerAddr = p.srv.Addr()
	}
	var err error
	p.client, err = transport.Dial(transport.ClientConfig{Addr: peerAddr, Protection: "probe-send", MemBytes: memBytes})
	if err != nil {
		return nil, err
	}

	// The stand-alone chain: a scratch guest holding a copy of guest 0's
	// memory, replicated the way the workload replicates its guests.
	clock := vclock.NewSim()
	if p.src, err = xen.New("probe-xen", clock); err != nil {
		return nil, err
	}
	var legs []replication.Secondary
	var chain []hypervisor.Hypervisor
	chain = append(chain, p.src)
	for i := 0; i < b.wl.Secondaries; i++ {
		h, err := kvm.New(fmt.Sprintf("probe-kvm%d", i), clock)
		if err != nil {
			return nil, err
		}
		chain = append(chain, h)
		var tp replication.Transport
		if b.wl.TCP {
			c, err := transport.Dial(transport.ClientConfig{Addr: peerAddr, Protection: "probe-chain", MemBytes: memBytes})
			if err != nil {
				return nil, err
			}
			p.sender = &timedSender{Client: c}
			tp = p.sender
		} else if tp, err = simnet.NewLink(simnet.OmniPath100(), clock); err != nil {
			return nil, err
		}
		legs = append(legs, replication.Secondary{Host: h, Transport: tp})
	}
	p.dst = chain[1].(*hypervisor.Host)
	p.chainVM, err = p.src.CreateVM(hypervisor.VMConfig{
		Name: "probe-guest", MemBytes: memBytes, VCPUs: 1,
		Features: translate.CompatibleFeaturesAll(chain...),
		Devices: []hypervisor.DeviceSpec{
			{Class: arch.DeviceNet, ID: "net0", MAC: "52:54:00:48:45:52"},
			{Class: arch.DeviceConsole, ID: "con0"},
		},
	})
	if err != nil {
		return nil, err
	}
	if err := p.replay(p.g.vm.Memory().PopulatedList()); err != nil {
		return nil, err
	}
	// The period controller at the orchestrator's defaults (D 0.3, T_max 25 s).
	pm, err := period.New(period.Config{D: 0.3, Tmax: 25 * time.Second})
	if err != nil {
		return nil, err
	}
	p.chain, err = replication.NewChain(p.chainVM, legs, replication.Config{
		Engine: replication.EngineHERE, PeriodManager: pm, DegradedMode: b.wl.TCP,
	})
	if err != nil {
		return nil, err
	}
	if _, err := p.chain.Seed(); err != nil {
		return nil, err
	}
	native, err := p.src.EncodeState(p.chainVM.MachineState())
	if err != nil {
		return nil, err
	}
	if p.image, err = translate.TranslateImage(native, p.src, p.dst, translate.Options{}); err != nil {
		return nil, err
	}

	if p.store, _, err = journal.Open(dir, journal.Options{GroupCommit: b.wl.Groups > 1}); err != nil {
		return nil, err
	}

	// The program's own tracer: what one recorded span costs.
	tr := trace.New(clock, 0)
	const spans = 20000
	t0 := time.Now()
	for i := 0; i < spans; i++ {
		tr.Span(trace.SpanEncode, int64(i), clock.Now(), trace.Event{Pages: i})
	}
	p.spanNS = float64(time.Since(t0)) / spans
	ok = true
	return p, nil
}

func (p *probes) close() {
	if p.client != nil {
		_ = p.client.Close() // scratch connections: nothing rides on the close
	}
	if p.sender != nil {
		_ = p.sender.Close()
	}
	if p.srv != nil {
		_ = p.srv.Close()
	}
	if p.store != nil {
		_ = p.store.Close()
	}
}

// span times f as a child of the innermost open span and files the
// duration under name.
func (p *probes) span(name string, f func()) time.Duration {
	p.rec.Begin(name)
	f()
	d := p.rec.End()
	s := p.dur[name]
	if s == nil {
		s = harness.NewSamples(1024)
		p.dur[name] = s
	}
	s.Add(d)
	return d
}

func (p *probes) heapAllocs() int64 {
	metrics.Read(p.allocSample)
	return int64(p.allocSample[0].Value.Uint64())
}

// replay copies the given pages of guest 0 into the stand-alone chain's
// guest, dirtying them there.
func (p *probes) replay(pages []memory.PageNum) error {
	mem := p.g.vm.Memory()
	for _, n := range pages {
		if err := mem.ReadPage(n, p.buf); err != nil {
			return err
		}
		if err := p.chainVM.WriteGuest(0, pageAddr(uint64(n)), p.buf); err != nil {
			return err
		}
	}
	return nil
}

// round is one traced round: guest stores, the layer probes on the
// dirty set those stores left, the tick, then the API reads — every
// call into a layer under its own span.
func (p *probes) round(b *bench, s *steadyStats, n int) {
	p.rec.SetRound(n)
	p.rec.Begin("round")
	s.dirty += p.span("harness.dirty", b.dirty)
	p.rec.Begin("probes")
	b.ops.check("layer probes", p.layers(b))
	p.rec.End()

	// Even rounds tick the fleet the way the end-to-end pass does; odd
	// rounds tick the groups one after the other, which prices a group
	// round without contention and gives parallel_speedup its base.
	if n%2 == 0 {
		var err error
		s.rounds.Add(p.span("fleet.tick", func() { err = b.st.sched.Tick() }))
		b.ops.check("tick", err)
		var sum, worst time.Duration
		gs := b.st.sched.GroupStatus()
		for _, g := range gs {
			sum += g.LastTick
			worst = max(worst, g.LastTick)
		}
		p.imbalance += float64(worst) * float64(len(gs)) / float64(sum)
		p.parallel++
	} else {
		p.rec.Begin("fleet.tick.sequential")
		for i := 0; i < b.st.sched.Groups(); i++ {
			var err error
			p.span("orchestrator.group_tick", func() { err = b.st.sched.Group(i).Tick() })
			b.ops.check("group tick", err)
		}
		p.seqSum.Add(p.rec.End())
	}

	for i := 0; i < b.wl.Status; i++ {
		g := b.guests[(b.round*b.wl.Status+i)%len(b.guests)]
		s.status.Add(p.span("controlplane.status", func() { b.call(g.get) }))
		var err error
		p.span("orchestrator.status_direct", func() { _, err = b.st.sched.Status(g.name) })
		b.ops.check("status direct", err)
	}
	for i := 0; i < listPerRound; i++ {
		s.list.Add(p.span("controlplane.list", func() { b.call(b.list) }))
		p.listBytes = b.sink.Bytes
		p.span("orchestrator.statusall_direct", func() { b.st.sched.StatusAll() })
	}
	for _, ep := range []struct{ span, path string }{
		{"controlplane.fleet", "/v1/fleet"},
		{"controlplane.metrics", "/metrics"},
		{"controlplane.events", "/v1/events?since=0"},
		{"controlplane.hosts", "/v1/hosts"},
	} {
		req := newRequest("GET", ep.path, nil)
		p.span(ep.span, func() { b.call(req) })
	}
	p.rec.End()
}

// layers runs the per-layer probes on guest 0's current dirty set.
func (p *probes) layers(b *bench) error {
	mem := p.g.vm.Memory()
	var (
		dirty []memory.PageNum
		err   error
	)
	p.span("memory.peek", func() { dirty = p.g.vm.Tracker().Bitmap().Peek() })
	p.pages += int64(len(dirty))
	p.span("memory.read", func() {
		for _, n := range dirty {
			if err = mem.ReadPage(n, p.buf); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}

	// wire: a throw-away raw encoder (what every daemon path uses), the
	// decoder, and the content-aware encoder no daemon path enables yet.
	var cp, empty *wire.Checkpoint
	p.seq += 2
	a0 := p.heapAllocs()
	p.span("wire.encode_raw", func() {
		cp, err = wire.NewEncoder(false).Encode(mem, dirty, p.image, nil, p.seq, replication.DefaultThreads)
	})
	if err != nil {
		return err
	}
	p.allocBytes += p.heapAllocs() - a0
	p.streamBytes += int64(len(cp.Stream))
	p.span("wire.decode", func() { _, err = wire.Decode(cp.Stream, p.scratch) })
	if err != nil {
		return err
	}
	p.span("wire.encode_delta", func() {
		_, err = p.delta.Encode(mem, dirty, p.image, nil, p.seq, replication.DefaultThreads)
	})
	if err != nil {
		return err
	}
	p.delta.Commit()

	// transport: the same stream to a scratch protection on the peer,
	// then an empty delta for the round trip alone.
	p.span("transport.send", func() { err = p.client.SendCheckpoint(p.seq, cp.Stream) })
	if err != nil {
		return err
	}
	p.sendBytes += int64(len(cp.Stream))
	if _, dec, apply, _, ok := p.client.LastRemoteStages(); ok {
		p.remoteDecode += dec
		p.remoteApply += apply
	}
	if empty, err = wire.NewEncoder(false).Encode(mem, nil, p.image, nil, p.seq+1, replication.DefaultThreads); err != nil {
		return err
	}
	p.span("transport.rtt", func() { err = p.client.SendCheckpoint(p.seq+1, empty.Stream) })
	if err != nil {
		return err
	}

	// replication: one cycle of the stand-alone chain over the same
	// dirty set; what is left after encode and send is the residual.
	p.span("harness.replay", func() { err = p.replay(dirty) })
	if err != nil {
		return err
	}
	enc0 := p.chain.Totals().Wire.EncodeTime
	var send0 time.Duration
	if p.sender != nil {
		send0 = p.sender.total
	}
	cycle := p.span("replication.cycle", func() { _, err = p.chain.RunCycle() })
	if err != nil {
		return err
	}
	p.residual += cycle - (p.chain.Totals().Wire.EncodeTime - enc0)
	if p.sender != nil {
		p.residual -= p.sender.total - send0
	}

	p.span("journal.append", func() {
		err = p.store.Append(journal.Record{Kind: journal.RecAck, VM: "probe", Epoch: p.seq})
	})
	if err != nil {
		return err
	}

	// hypervisor and translate: the per-checkpoint state path, and the
	// host listing every status row pays for.
	primary := b.st.host(p.g.vm.Hypervisor().HostName())
	p.span("hypervisor.host_vms", func() { primary.VMs() })
	var st arch.MachineState
	p.chainVM.Pause()
	p.span("hypervisor.capture_state", func() { st, err = p.chainVM.CaptureState() })
	p.chainVM.Resume()
	if err != nil {
		return err
	}
	var native []byte
	p.span("hypervisor.encode_state", func() { native, err = p.src.EncodeState(st) })
	if err != nil {
		return err
	}
	p.span("translate.image", func() {
		_, err = translate.TranslateImage(native, p.src, p.dst, translate.Options{})
	})
	return err
}

// p50 returns the median duration of a span name in unit.
func (p *probes) p50(name string, unit time.Duration) float64 {
	return p.dur[name].P(50, unit)
}

// perPage returns a span's total time per replayed page, in ns.
func (p *probes) perPage(name string) float64 {
	return float64(p.dur[name].Sum()) / float64(p.pages)
}

// report turns the probe samples and the two steady stretches into the
// per-layer metrics and the tick attribution.
func (p *probes) report(res *Result, plain, traced *steadyStats, b *bench) {
	ms, us := time.Millisecond, time.Microsecond
	n := p.dur["memory.peek"].Len()
	pr := plain.rounds.Len()
	mib := float64(1 << 20)

	res.layer("memory.peek_ns_per_page", p.perPage("memory.peek"), "ns", n)
	res.layer("memory.read_ns_per_page", p.perPage("memory.read"), "ns", n)

	res.layer("wire.encode_raw_ns_per_page", p.perPage("wire.encode_raw"), "ns", n)
	res.layer("wire.decode_ns_per_page", p.perPage("wire.decode"), "ns", n)
	res.layer("wire.encode_delta_ns_per_page", p.perPage("wire.encode_delta"), "ns", n)
	res.layer("wire.alloc_bytes_per_page", float64(p.allocBytes)/float64(p.pages), "B", n)
	res.layer("wire.stream_bytes_per_page", float64(p.streamBytes)/float64(p.pages), "B", n)
	res.layer("wire.encode_ms_per_round", float64(plain.encode)/float64(ms)/float64(pr), "ms", pr)

	send := p.dur["transport.send"]
	res.layer("transport.send_us_p50", send.P(50, us), "us", send.Len())
	res.layer("transport.rtt_us_p50", p.dur["transport.rtt"].P(50, us), "us", n)
	res.layer("transport.mb_per_s", float64(p.sendBytes)/mib/send.Sum().Seconds(), "MB/s", send.Len())
	res.layer("transport.remote_decode_us", float64(p.remoteDecode)/float64(us)/float64(n), "us", n)
	res.layer("transport.remote_apply_us", float64(p.remoteApply)/float64(us)/float64(n), "us", n)
	res.layer("transport.bytes_per_ckpt", float64(p.sendBytes)/float64(send.Len()), "B", send.Len())

	res.layer("replication.cycle_ms_p50", p.dur["replication.cycle"].P(50, ms), "ms", n)
	res.layer("replication.residual_ms", float64(p.residual)/float64(ms)/float64(n), "ms", n)
	res.layer("replication.acks_per_leg_cycle",
		float64(plain.legAcks)/float64(plain.ckpts*uint64(b.wl.Secondaries)), "ratio", int(plain.ckpts))

	res.layer("journal.append_us_p50", p.dur["journal.append"].P(50, us), "us", n)
	res.layer("journal.fsync_per_ckpt", float64(plain.fsyncs)/float64(plain.ckpts), "count", int(plain.ckpts))
	res.layer("journal.records_per_ckpt", float64(plain.records)/float64(plain.ckpts), "count", int(plain.ckpts))
	compact, err := compactCopy(b.st.dir, filepath.Join(filepath.Dir(b.st.dir), "compact"), b.wl.Groups > 1)
	b.ops.check("journal compact probe", err)
	res.layer("journal.compact_ms", float64(compact)/float64(ms), "ms", 1)

	group := p.dur["orchestrator.group_tick"]
	res.layer("orchestrator.group_tick_ms_p50", group.P(50, ms), "ms", group.Len())
	direct := p.dur["orchestrator.status_direct"]
	res.layer("orchestrator.status_direct_us_p50", direct.P(50, us), "us", direct.Len())
	all := p.dur["orchestrator.statusall_direct"]
	res.layer("orchestrator.statusall_direct_ms_p50", all.P(50, ms), "ms", all.Len())

	res.layer("fleet.round_ms_p90", plain.rounds.P(90, ms), "ms", pr)
	res.layer("fleet.parallel_speedup", p.seqSum.Mean(ms)/traced.rounds.Mean(ms), "ratio", p.seqSum.Len())
	res.layer("fleet.group_imbalance", p.imbalance/float64(p.parallel), "ratio", p.parallel)

	res.layer("controlplane.status_handler_us", traced.status.P(50, us)-direct.P(50, us), "us", traced.status.Len())
	res.layer("controlplane.list_handler_ms", traced.list.P(50, ms)-all.P(50, ms), "ms", traced.list.Len())
	for _, ep := range []string{"fleet", "metrics", "events", "hosts"} {
		s := p.dur["controlplane."+ep]
		res.layer("controlplane."+ep+"_ms_p50", s.P(50, ms), "ms", s.Len())
	}
	res.layer("controlplane.list_bytes", float64(p.listBytes), "B", 1)

	for _, name := range []string{"hypervisor.host_vms", "hypervisor.capture_state", "hypervisor.encode_state", "translate.image"} {
		res.layer(name+"_us", p.dur[name].P(50, us), "us", n)
	}

	res.layer("trace.span_ns", p.spanNS, "ns", 20000)
	res.layer("trace.overhead_ratio", traced.rounds.P(50, ms)/plain.rounds.P(50, ms), "ratio", traced.rounds.Len())

	res.layer("runtime.alloc_mb_per_round", float64(plain.allocB)/mib/float64(pr), "MB", pr)
	res.layer("runtime.gc_cycles_per_100_rounds", float64(plain.gcCycles)*100/float64(pr), "count", pr)
	res.layer("runtime.gc_pause_ms_total", float64(plain.gcPause)/float64(ms), "ms", int(plain.gcCycles))
	res.layer("harness.dirty_ms_per_round", float64(plain.dirty)/float64(ms)/float64(pr), "ms", pr)
	if p.pages != int64(n)*int64(b.pagesPerRound/len(b.guests)) {
		b.ops.check("probe dirty sets", fmt.Errorf("replayed %d pages over %d rounds, want %d a round",
			p.pages, n, b.pagesPerRound/len(b.guests)))
	}

	// Attribution of the tick: what the probes price one guest's
	// checkpoint at, times the guests, against the work of one round
	// (the sequential group ticks: with one group, the tick itself).
	guests := float64(len(b.guests))
	legs := float64(b.wl.Secondaries)
	work := p.seqSum.P(50, ms)
	read := p.p50("memory.read", ms)
	encode := p.p50("wire.encode_raw", ms)
	decode := p.p50("wire.decode", ms)
	residual := float64(p.residual) / float64(ms) / float64(n)
	shares := map[string]float64{
		"memory":  guests * legs * read / work,
		"wire":    guests * legs * (encode - read + decode) / work,
		"journal": guests * p.p50("journal.append", ms) / work,
		"hypervisor+translate": guests * (p.p50("hypervisor.capture_state", ms) +
			legs*(p.p50("hypervisor.encode_state", ms)+p.p50("translate.image", ms))) / work,
		"replication": guests * (residual - legs*decode) / work,
	}
	if b.wl.TCP {
		shares["transport"] = guests * p.p50("transport.send", ms) / work
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	shares["unattributed(orchestrator+fleet)"] = 1 - sum
	res.TickShares = shares
	if err := attribution(b.wl, shares); err != nil {
		res.Warnings = append(res.Warnings, err.Error())
	}
}

// attribution checks the tick shares against what the workload was
// chosen for: its dominant layers together hold more of the tick than
// any other layer, and each negligible layer under a tenth.
func attribution(wl Workload, shares map[string]float64) error {
	named := map[string]bool{}
	var dominant float64
	for _, l := range wl.Dominant {
		named[l] = true
		dominant += shares[l]
	}
	for l, v := range shares {
		if !named[l] && v >= dominant {
			return fmt.Errorf("%s: %s has %.0f %% of the tick, the dominant %v only %.0f %%",
				wl.Name, l, 100*v, wl.Dominant, 100*dominant)
		}
	}
	for _, l := range wl.Negligible {
		if shares[l] >= 0.10 {
			return fmt.Errorf("%s: %s has %.0f %% of the tick, meant to be under 10 %%", wl.Name, l, 100*shares[l])
		}
	}
	return nil
}

func (p *probes) writeTrace(path, tablePath string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := harness.WriteJSONL(f, p.rec.Spans()); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	t, err := os.Create(tablePath)
	if err != nil {
		return err
	}
	fmt.Fprintf(t, "%-34s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, lt := range harness.SelfTimes(p.rec.Spans()) {
		fmt.Fprintf(t, "%-34s %8d %12.3f %12.3f\n", lt.Name, lt.Count,
			float64(lt.Total)/float64(time.Millisecond), float64(lt.Self)/float64(time.Millisecond))
	}
	return t.Close()
}

// compactCopy copies a journal directory and times Compact() on the
// copy, leaving the system under test's journal as it is.
func compactCopy(src, dst string, groupCommit bool) (time.Duration, error) {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return 0, err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return 0, err
		}
	}
	store, _, err := journal.Open(dst, journal.Options{GroupCommit: groupCommit})
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	err = store.Compact()
	d := time.Since(t0)
	if cerr := store.Close(); err == nil {
		err = cerr
	}
	return d, err
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
