package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/here-ft/here/bench/harness"
	"github.com/here-ft/here/internal/controlplane"
)

// steadyStats is what one stretch of steady rounds measured.
type steadyStats struct {
	rounds   *harness.Samples // Scheduler.Tick wall time, one per round
	status   *harness.Samples // GET /v1/vms/{name}
	list     *harness.Samples // GET /v1/vms
	dirty    time.Duration    // time the benchmark spent issuing guest stores
	cpu      *harness.Samples // user+sys CPU time around each tick
	wall     time.Duration    // whole stretch
	ckpts    uint64           // deltas of the Status totals over the stretch
	pages    int64
	bytes    int64
	encode   time.Duration
	legAcks  uint64 // sum over guests and legs of the acked-epoch advance
	fsyncs   uint64 // journal deltas
	records  uint64
	allocB   uint64 // runtime deltas
	gcCycles uint32
	gcPause  time.Duration
}

// until reports whether a phase loop is done: its time budget is spent
// and its sample floor met.
func until(start time.Time, budget time.Duration, n, floor int) bool {
	return n >= floor && time.Since(start) >= budget
}

// steady is phase 2: rounds of [guest stores (untimed) -> Tick (timed,
// CPU accounted) -> API reads (timed)]. With a probe set the round is
// traced instead: every call into a layer gets a span and the probes
// replay the round's real dirty set between the stores and the tick.
func (b *bench) steady(budget time.Duration, floor int, pr *probes) steadyStats {
	capacity := floor + int(budget/(5*time.Millisecond))
	s := steadyStats{
		rounds: harness.NewSamples(capacity),
		status: harness.NewSamples(capacity * b.wl.Status),
		list:   harness.NewSamples(capacity * listPerRound),
		cpu:    harness.NewSamples(capacity),
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, p0, by0, e0, a0 := b.totals()
	f0, l0 := b.st.store.Fsyncs(), b.st.store.LSN()
	start := time.Now()
	for n := 0; !until(start, budget, n, floor); n++ {
		if pr != nil {
			pr.round(b, &s, n)
			continue
		}
		t0 := time.Now()
		b.dirty()
		s.dirty += time.Since(t0)

		cpu0, _ := harness.CPUTime()
		t1 := time.Now()
		err := b.st.sched.Tick()
		s.rounds.Add(time.Since(t1))
		cpu1, _ := harness.CPUTime()
		s.cpu.Add(cpu1 - cpu0)
		b.ops.check("tick", err)

		b.reads(s.status, s.list)
	}
	s.wall = time.Since(start)
	c1, p1, by1, e1, a1 := b.totals()
	s.ckpts, s.pages, s.bytes, s.encode, s.legAcks = c1-c0, p1-p0, by1-by0, e1-e0, a1-a0
	s.fsyncs, s.records = b.st.store.Fsyncs()-f0, b.st.store.LSN()-l0
	runtime.ReadMemStats(&m1)
	s.allocB = m1.TotalAlloc - m0.TotalAlloc
	s.gcCycles = m1.NumGC - m0.NumGC
	s.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	return s
}

// liveHeapMB is the memory the scenario holds: HeapAlloc after two
// forced collections.
func liveHeapMB() float64 {
	settle()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// protect is phase 3: POST a fresh scratch guest (timed), DELETE it.
func (b *bench) protect(budget time.Duration, floor int) *harness.Samples {
	out := harness.NewSamples(floor * 4)
	start := time.Now()
	for n := 0; !until(start, budget, n, floor); n++ {
		name := fmt.Sprintf("scratch-%04d", n)
		post := newRequest("POST", "/v1/vms", controlplane.ProtectRequest{
			Name: name, MemoryBytes: scratchGuestKiB << 10, VCPUs: 1,
			Secondaries: b.wl.Secondaries,
		})
		out.Add(b.call(post))
		b.call(newRequest("DELETE", "/v1/vms/"+name, nil))
	}
	return out
}

// failover is phase 4: forced failovers round-robin over the guests,
// one Tick after each full pass so every failover starts from an acked
// epoch. No guest stores happen in this phase, so the activated
// replica must hold exactly what the primary held before the call.
//
// A forced collection (untimed) precedes every settleMiB of guest
// memory failed over — each failover of a 64 MiB guest, every 64th of a
// 1 MiB guest. A failover re-seeds the guest and leaves ten times its
// size in garbage; left alone the collector falls, process by process,
// into one of two rhythms (one cycle per failover, or one and a half
// with a mark phase running into the next failover) and the 64 MiB
// failover takes 210 or 270 ms accordingly.
func (b *bench) failover(budget time.Duration, floor, guestMiB int) (*harness.Samples, time.Duration) {
	out := harness.NewSamples(floor * 4)
	every := max(1, settleMiB/guestMiB)
	start := time.Now()
	for n := 0; !until(start, budget, n, floor); n++ {
		if n%every == 0 {
			settle()
		}
		i := n % len(b.guests)
		g := b.guests[i]
		before := g.vm.Memory() // the fenced primary's memory outlives its VM
		out.Add(b.call(newRequest("POST", "/v1/vms/"+g.name+"/failover", nil)))
		p, err := b.st.sched.Lookup(g.name)
		if b.ops.check("lookup "+g.name, err) {
			g.vm = p.VM()
			var merr error
			if g.vm.Memory() == before || !sameMemory(before, g.vm.Memory()) {
				merr = fmt.Errorf("activated replica does not hold the primary's memory")
			}
			b.ops.check("failover integrity "+g.name, merr)
		}
		if i == len(b.guests)-1 {
			b.ops.check("tick", b.st.sched.Tick())
		}
	}
	return out, time.Since(start)
}

// restartStats is what phase 6 measured, one sample per restart.
type restartStats struct {
	total    *harness.Samples // journal.Open .. first Tick
	replay   *harness.Samples // journal.Open
	recover  *harness.Samples // Recover()
	resync   *harness.Samples // first Tick: the delta resync
	replayed int              // log records replayed by the last restart
}

// restart is phase 6: dirty one round, kill the daemon (no Sync, no
// Compact), then time the whole way back to a protected fleet.
func (b *bench) restart(n int) restartStats {
	rs := restartStats{
		total: harness.NewSamples(n), replay: harness.NewSamples(n),
		recover: harness.NewSamples(n), resync: harness.NewSamples(n),
	}
	for i := 0; i < n; i++ {
		b.dirty()
		b.ops.check("crash", b.st.crash())
		runtime.GC()

		t0 := time.Now()
		bt, err := b.st.boot()
		if !b.ops.check("boot", err) {
			return rs // nothing further can run without a daemon
		}
		t1 := time.Now()
		err = b.st.sched.Tick()
		end := time.Now()
		b.ops.check("resync tick", err)

		rs.total.Add(end.Sub(t0))
		rs.replay.Add(bt.open)
		rs.recover.Add(bt.recover)
		rs.resync.Add(end.Sub(t1))
		rs.replayed = bt.replay.Replayed

		var rerr error
		if bt.report.Resumed != len(b.guests) {
			rerr = fmt.Errorf("resumed %d of %d guests (%+v)", bt.report.Resumed, len(b.guests), bt.report)
		}
		b.ops.check("recover report", rerr)
		if b.ops.check("refresh", b.refreshVMs()) {
			b.ops.check("restart integrity", b.replicasEqual())
		}
	}
	return rs
}
