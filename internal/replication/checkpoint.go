// The checkpoint state machine, Fig 3 as explicit stages over one
// in-flight checkpoint: begin (reconcile the peer's epoch) · pause ·
// seal (epochs, dirty snapshot, state record) · per leg encode → ship →
// apply · quorum · finish, the one epilogue that commits or rolls back
// and always resumes. Only ship knows a leg's kind of transport.
package replication

import (
	"errors"
	"fmt"
	"time"

	"github.com/here-ft/here/internal/arch"
	"github.com/here-ft/here/internal/blockdev"
	"github.com/here-ft/here/internal/devices"
	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/period"
	"github.com/here-ft/here/internal/trace"
	"github.com/here-ft/here/internal/wire"
)

// ckpt is one in-flight checkpoint: what begin and seal fix for the
// epoch, and what the legs accumulate toward the quorum's verdict.
type ckpt struct {
	seq        uint64 // the epoch being shipped
	cycle      uint64 // attempt counter stamped on acknowledging legs
	runPeriod  time.Duration
	resync     bool
	overwrite  bool // the peer is one epoch ahead: overwrite frames, no deltas
	legs       []*leg
	disk       *blockdev.ReplicatedDisk
	pauseStart time.Time

	epoch       devices.Epoch
	diskEpoch   uint64
	diskWrites  []wire.DiskWrite
	dirty       []memory.PageNum
	state       arch.MachineState
	encodeStart time.Time
	cpuWork     time.Duration // modeled engine CPU burned across all threads

	attempted  int              // legs that tried a delta this cycle
	acks       int              // of those, the ones that acknowledged
	totalBytes int64            // wire + ack bytes across acked legs
	ackedPages int64            // page deltas applied across acked legs
	wireAcc    wire.Stats       // codec stats across acked legs
	statsWire  wire.Stats       // leg 0's (else the first acked leg's) codec stats
	leg0Disk   []wire.DiskWrite // decoded from leg 0's stream once it acked
	leg0Acked  bool
	seededNow  []*leg // legs seeded inside this pause
	shipErr    error  // first transient failure — the quorum-miss cause
	missed     bool   // too few legs acknowledged: the cause degraded mode rides out
}

func (r *Replicator) engine() string { return r.cfg.Engine.String() }

// checkpoint performs the pause→copy→ack→resume sequence of Fig 3,
// fanned out to every live leg, and releases the checkpoint's buffered
// output once the ack quorum is reached. With resync it is the delta
// resync ending a degraded interval: the dirty set is everything
// accumulated since protection was lost — far cheaper than a re-seed.
// A nil verdict from the stages commits; anything else rolls back.
//
// Leg transfers are sequential, a conservative pause model: a real
// implementation would overlap them, so the modeled pause upper-bounds
// the fan-out cost (DESIGN.md §13).
func (r *Replicator) checkpoint(runPeriod time.Duration, resync bool) (st CheckpointStats, err error) {
	c, err := r.begin(runPeriod, resync)
	if err != nil {
		return st, err
	}
	r.primary.Pause()
	defer func() { st, err = r.finish(c, err) }()
	if err := r.seal(c); err != nil {
		return st, err
	}
	for i, l := range c.legs {
		if err := r.runLeg(c, i, l); err != nil {
			return st, err
		}
	}
	return st, r.quorum(c)
}

// begin opens a checkpoint attempt. With a real network transport it
// reconciles acked epochs before a resync: the re-handshake told us
// which epoch the peer replica actually holds, and that decides what
// may be shipped. A CheckpointSender implies a single-leg chain
// (NewChain enforces it), so leg 0 is the whole story here.
func (r *Replicator) begin(runPeriod time.Duration, resync bool) (*ckpt, error) {
	r.mu.Lock()
	r.cycles++
	c := &ckpt{
		seq: r.seq, cycle: r.cycles, runPeriod: runPeriod, resync: resync,
		legs: append([]*leg(nil), r.legs...), disk: r.disk,
	}
	r.mu.Unlock()
	c.pauseStart = r.src.Clock().Now()
	if !resync {
		return c, nil
	}
	r.setState(StateResyncing)
	sender := c.legs[0].sender
	if sender == nil {
		return c, nil
	}
	switch acked, ok := sender.PeerAcked(); {
	case ok && acked+1 == c.seq:
		// In sync: the peer holds the same last-acked epoch as the
		// leg's replica memory, the delta baseline — plain delta resync.
	case ok && acked == c.seq:
		// The peer applied the checkpoint whose acknowledgement was
		// lost: it is one epoch ahead of the leg's replica memory, so XOR
		// deltas would corrupt it. Ship overwrite frames instead; applying
		// them makes both sides equal again on every page shipped.
		c.overwrite = true
	default:
		// The peer restarted empty or regressed — nothing a delta can
		// build on. Stay degraded; only a re-seed restores protection.
		r.setState(StateDegraded)
		held := "holds none"
		if ok {
			held = fmt.Sprintf("acked %d", acked)
		}
		return nil, fmt.Errorf("%w (next epoch %d, peer %s)", ErrReplicaDiverged, c.seq, held)
	}
	return c, nil
}

// seal closes the epoch inside the pause: the I/O buffer and disk
// journal epochs, the read-and-reset dirty snapshot, and the vCPU and
// device state record, captured once and translated per leg.
func (r *Replicator) seal(c *ckpt) error {
	clock := r.src.Clock()
	costs := r.src.Costs()
	c.epoch = r.iob.SealEpoch()
	if c.disk != nil {
		c.diskEpoch, _, _ = c.disk.SealEpoch()
		// Every still-sealed epoch rides along: after a rollback the
		// older epochs' writes were never decoded on the replica, so the
		// next stream must carry them too.
		for _, w := range c.disk.SealedWrites(c.diskEpoch) {
			c.diskWrites = append(c.diskWrites, wire.DiskWrite{Sector: w.Sector, Data: w.Data})
		}
	}
	c.dirty = r.primary.Tracker().Bitmap().Snapshot()
	n := int64(len(c.dirty))

	// CPU-side costs (DESIGN.md §5): the whole-memory dirty scan and
	// the per-page copy parallelize across HERE's region threads; the
	// privileged per-page mapping path is serialized by the hypervisor.
	scanStart := clock.Now()
	threads := time.Duration(r.threads)
	scan := time.Duration(int64(costs.ScanPerPage)*int64(r.primary.Memory().NumPages())) / threads
	mapping := time.Duration(int64(costs.MapPerDirtyPage) * n)
	copying := time.Duration(int64(costs.CopyPerDirtyPage)*n) / threads
	clock.Sleep(scan + mapping + copying)
	c.cpuWork = scan*threads + mapping + copying*threads + costs.StateRecord
	r.tr.Span(trace.SpanScan, int64(c.seq), scanStart, trace.Event{Engine: r.engine(), Pages: len(c.dirty)})

	c.encodeStart = clock.Now()
	clock.Sleep(costs.StateRecord)
	state, err := r.primary.CaptureState()
	if err != nil {
		return fmt.Errorf("replication: capture: %w", err)
	}
	c.state = state
	return nil
}

// runLeg carries the checkpoint to one leg: encode → ship → apply. A
// leg that cannot be reached misses the epoch and the quorum decides
// whether it commits anyway (nil); an error abandons the checkpoint.
func (r *Replicator) runLeg(c *ckpt, i int, l *leg) error {
	if l.dead {
		return nil
	}
	if l.needsSeed {
		// A leg added mid-run seeds here, inside the pause — the only
		// moment the guest state is consistent. A failed seed waits for
		// the next checkpoint; seeding legs are outside the ack quorum.
		if err := r.seedLeg(l, c.state, nil); err != nil {
			c.noteMiss(err)
			return nil
		}
		r.mu.Lock()
		l.ackedSeq = c.seq
		l.ackedAt = c.cycle
		r.mu.Unlock()
		c.seededNow = append(c.seededNow, l)
		return nil
	}
	c.attempted++
	// A leg that acknowledged the previous epoch has no backlog: this
	// epoch's dirty snapshot IS its delta. A lagging leg folds the
	// snapshot into its backlog and catches up with one larger delta.
	r.mu.Lock()
	pages := c.dirty
	if l.pending.Count() > 0 {
		for _, p := range c.dirty {
			l.pending.Set(p)
		}
		pages = l.pending.Peek()
	}
	r.mu.Unlock()
	image, err := r.translateState(c.state, l.dst)
	if err != nil {
		return err
	}
	cp, err := r.encode(c, i, l, pages, image)
	if err != nil {
		return err
	}
	if err := r.ship(c, i, l, cp, pages); err != nil {
		if !isPermanentErr(err) {
			r.missedEpoch(l, c.dirty)
			c.noteMiss(err)
		} else if len(c.legs) > 1 {
			r.markLegDead(l, i, int64(c.seq), err)
		} else {
			// The only leg is fenced or protocol-incompatible: reconnects
			// cannot cure it and degraded mode would never resync.
			return fmt.Errorf("replication: transport: %w", err)
		}
		return nil
	}
	// Apply, only once acknowledged: the decoder re-validates every
	// frame's checksum before the first page lands on the replica.
	dec, err := wire.Decode(cp.Stream, l.mem)
	if err != nil {
		return fmt.Errorf("replication: apply: %w", err)
	}
	r.mu.Lock()
	l.lastImage = image
	l.pending.Snapshot() // read and reset: the backlog is settled
	l.ackedSeq = c.seq + 1
	l.ackedAt = c.cycle
	r.mu.Unlock()
	if i == 0 {
		c.leg0Disk = dec.Disk
		c.leg0Acked = true
	}
	if i == 0 || c.acks == 0 {
		c.statsWire = cp.Stats
	}
	c.acks++
	c.ackedPages += int64(len(pages))
	c.totalBytes += cp.WireSize + ackBytes
	c.wireAcc.Add(cp.Stats)
	return nil
}

// noteMiss keeps the first transient failure as the quorum-miss cause.
func (c *ckpt) noteMiss(err error) {
	if c.shipErr == nil {
		c.shipErr = err
	}
}

// encode frames the checkpoint stream against this leg's own replica:
// dirtied memory + (on leg 0) journaled disk writes + state record.
// The codec measures what the link carries — there is no assumed ratio.
func (r *Replicator) encode(c *ckpt, i int, l *leg, pages []memory.PageNum, image []byte) (*wire.Checkpoint, error) {
	clock := r.src.Clock()
	start := c.encodeStart
	var disk []wire.DiskWrite
	if i == 0 {
		disk = c.diskWrites
	} else {
		start = clock.Now()
	}
	var (
		cp  *wire.Checkpoint
		err error
	)
	if c.overwrite {
		cp, err = l.enc.EncodeOverwrite(r.primary.Memory(), pages, image, disk, c.seq)
	} else {
		cp, err = l.enc.Encode(r.primary.Memory(), pages, image, disk, c.seq, r.threads)
	}
	if err != nil {
		return nil, fmt.Errorf("replication: encode: %w", err)
	}
	if r.cfg.Compression {
		// Content-aware encoding burns guest-visible CPU during the
		// pause (modeled; EncodeTime in the stats is host wall time).
		compress := time.Duration(int64(r.src.Costs().CompressPerDirtyPage)*int64(len(pages))) /
			time.Duration(r.threads)
		clock.Sleep(compress)
		c.cpuWork += compress * time.Duration(r.threads)
	}
	// The aggregate encode span covers the state record, the codec and
	// the modeled compression cost; the per-shard spans mirror the
	// codec's round-robin region sharding and run in parallel under it.
	dur := r.tr.Span(trace.SpanEncode, int64(c.seq), start,
		trace.Event{Engine: r.engine(), Shard: i, Pages: len(pages), Bytes: cp.WireSize})
	if r.tr.Enabled() && i == 0 && r.threads > 1 {
		shardPages := make([]int, r.threads)
		for _, p := range pages {
			shardPages[memory.RegionOf(p)%r.threads]++
		}
		for s, count := range shardPages {
			if count == 0 {
				continue
			}
			r.tr.Record(trace.Event{
				Kind: trace.SpanEncode, Epoch: int64(c.seq), Start: start,
				Dur: dur, Engine: r.engine(), Shard: s + 1, Pages: count,
			})
		}
	}
	return cp, nil
}

// ship moves one encoded checkpoint to the leg's replica and returns
// once the replica acknowledged it. It is the only step that knows what
// kind of transport the leg has.
func (r *Replicator) ship(c *ckpt, i int, l *leg, cp *wire.Checkpoint, pages []memory.PageNum) error {
	epochID := int64(c.seq)
	if l.sender != nil {
		transferStart := r.src.Clock().Now()
		// The real transport carries the stream itself and its return is
		// the remote replica's acknowledgement — no separate ack round.
		// Never retried here: after an ambiguous failure the peer may
		// have applied the epoch, and delta frames re-sent onto an
		// advanced replica would corrupt it; the degraded→reconnect→
		// resync ladder reconciles acked epochs instead. The span is on
		// the wall clock, like the secondary's stage timings merged
		// below: real TCP waits do not advance the virtual clock.
		wallStart := time.Now()
		err := l.sender.SendCheckpoint(c.seq, cp.Stream)
		r.tr.Record(trace.Event{
			Kind: trace.SpanTransfer, Epoch: epochID, Start: transferStart, Dur: time.Since(wallStart),
			Engine: r.engine(), Bytes: cp.WireSize, Outcome: shipOutcome(err),
		})
		if err == nil {
			r.recordRemoteStages(l.sender, epochID, transferStart)
		}
		return err
	}
	streams := r.threads
	if regions := dirtyRegions(pages); regions > 0 && regions < streams {
		// Region sharding bounds the transfer parallelism: fewer
		// dirtied 2 MiB regions than threads leaves threads idle.
		streams = regions
	}
	if err := r.shipVia(l, i, trace.SpanTransfer, epochID, cp.WireSize, streams); err != nil {
		return err
	}
	// The replica may hold the checkpoint data, but without the
	// acknowledgement the primary must treat it as never applied.
	return r.shipVia(l, i, trace.SpanAck, epochID, ackBytes, 1)
}

// shipOutcome is the span outcome of a transfer step.
func shipOutcome(err error) string {
	if err != nil {
		return "failed"
	}
	return ""
}

// shipVia sends bytes over leg i's simulated link under one span of
// the given kind, retrying transient failures with exponential backoff
// + jitter per the retry policy. It returns the last transfer error
// once the budget is exhausted: the leg misses this epoch.
func (r *Replicator) shipVia(l *leg, i int, kind trace.Kind, epoch, bytes int64, streams int) error {
	clock := r.src.Clock()
	start := clock.Now()
	backoff := r.retry.InitialBackoff
	var err error
	for attempt := 1; ; attempt++ {
		_, err = l.tp.Transfer(bytes, streams)
		if err == nil || attempt >= r.retry.MaxAttempts || isPermanentErr(err) {
			break
		}
		r.retries.Inc()
		r.tr.Event(trace.EventRetry, epoch, trace.Event{
			Engine: r.engine(), Bytes: bytes, Note: err.Error(),
		})
		clock.Sleep(r.jittered(backoff))
		backoff = time.Duration(float64(backoff) * r.retry.Multiplier)
		if backoff > r.retry.MaxBackoff {
			backoff = r.retry.MaxBackoff
		}
	}
	r.tr.Span(kind, epoch, start,
		trace.Event{Engine: r.engine(), Shard: i, Bytes: bytes, Outcome: shipOutcome(err)})
	return err
}

// jittered randomizes d by ±Jitter from the seeded RNG.
func (r *Replicator) jittered(d time.Duration) time.Duration {
	if r.retry.Jitter <= 0 {
		return d
	}
	r.mu.Lock()
	f := 1 + r.retry.Jitter*(2*r.rng.Float64()-1)
	r.mu.Unlock()
	return time.Duration(float64(d) * f)
}

// dirtyRegions counts the distinct 2 MiB regions the dirty set spans —
// the parallelism bound for a region-sharded transfer.
func dirtyRegions(pages []memory.PageNum) int {
	seen := make(map[int]struct{})
	for _, p := range pages {
		seen[memory.RegionOf(p)] = struct{}{}
	}
	return len(seen)
}

// quorum decides the epoch: it commits when enough delta legs
// acknowledged. Legs seeded this pause stay outside the quorum — a
// mid-run seed must never decide whether buffered output escapes. On a
// commit the disk writes decoded from leg 0's stream land on the
// replica disk; if leg 0 missed the epoch the disk journal stays sealed
// and rides along in its next stream.
func (r *Replicator) quorum(c *ckpt) error {
	if need := r.quorumFor(c.attempted); c.acks < need {
		r.quorumMisses.Inc()
		c.missed = true
		if c.shipErr == nil {
			return errors.New("no leg acknowledged the checkpoint")
		}
		return c.shipErr
	}
	if c.disk != nil && c.leg0Acked {
		replica := c.disk.Replica()
		for _, w := range c.leg0Disk {
			if err := replica.WriteSector(w.Sector, w.Data); err != nil {
				return fmt.Errorf("replication: disk apply: %w", err)
			}
		}
		c.disk.MarkCommitted(c.diskEpoch)
	}
	return nil
}

// finish is the only way out of a checkpoint pause: exactly one of
// commit (nil verdict) and rollback, and always a resume. A rollback
// re-marks the dirty snapshot so the next checkpoint — or the delta
// resync — ships it, and leaves the sealed I/O and disk-journal epochs
// buffered until a later checkpoint is acknowledged.
func (r *Replicator) finish(c *ckpt, verdict error) (CheckpointStats, error) {
	clock := r.src.Clock()
	if verdict != nil {
		bm := r.primary.Tracker().Bitmap()
		for _, p := range c.dirty {
			bm.Set(p)
		}
	}
	// Fig 3's t ends where the resume begins; an abandoned pause is
	// charged its resume too.
	pause := clock.Since(c.pauseStart)
	r.primary.Resume()
	var (
		st  CheckpointStats
		err error
	)
	if verdict == nil {
		st = r.commit(c, pause)
	} else {
		st, err = r.rollback(c, clock.Since(c.pauseStart), verdict)
	}
	if err == nil {
		r.remember(st)
	}
	r.updateLegTelemetry()
	return st, err
}

// commit makes the acknowledged checkpoint the failover target and
// releases the epoch's buffered output to the outside world (Fig 3
// step 6). The guest is already running again.
func (r *Replicator) commit(c *ckpt, pause time.Duration) CheckpointStats {
	releaseStart := r.src.Clock().Now()
	epochID := int64(c.seq)
	n := len(c.dirty)
	released := r.iob.Release(c.epoch)
	if aware, ok := r.cfg.PeriodManager.(ioAware); ok {
		aware.RecordIO(len(released))
	}
	r.mu.Lock()
	for _, l := range c.seededNow {
		// The seed carried exactly this committed epoch's content.
		l.ackedSeq = c.seq + 1
	}
	r.seq++
	r.totals.Checkpoints++
	r.totals.PagesSent += c.ackedPages
	r.totals.BytesSent += c.totalBytes
	r.totals.TotalPause += pause
	r.totals.Wire.Add(c.wireAcc)
	// Engine CPU: the per-thread work actually burned across cores,
	// plus the network-stack copy cost of pushing the streams through
	// the socket layer (~0.3 ns/byte, i.e. ~3 GB/s per core).
	pushed := c.totalBytes - int64(c.acks)*ackBytes
	r.totals.CPUWork += c.cpuWork + time.Duration(pushed*3/10)
	sink := r.cfg.Sink
	r.mu.Unlock()
	if sink != nil && len(released) > 0 {
		sink(released)
	}
	r.tr.Span(trace.SpanRelease, epochID, releaseStart,
		trace.Event{Engine: r.engine(), Pages: len(released)})

	outcome := "ok"
	if c.resync {
		outcome = "resync"
		r.resyncs.Inc()
		r.resyncPages.Add(int64(n))
		r.resyncBytes.Add(c.totalBytes)
	}
	r.checkpoints.Inc()
	r.pagesSent.Add(c.ackedPages)
	r.bytesSent.Add(c.totalBytes)
	r.pauseHist.Observe(pause.Seconds())
	r.periodHist.Observe(c.runPeriod.Seconds())
	r.tr.Record(trace.Event{
		Kind: trace.SpanPause, Epoch: epochID, Start: c.pauseStart, Dur: pause,
		Engine: r.engine(), Pages: n, Bytes: c.totalBytes, Outcome: outcome,
	})
	r.setState(StateProtected)

	st := CheckpointStats{
		Seq:             c.seq,
		Epoch:           c.epoch,
		DirtyPages:      n,
		Bytes:           c.totalBytes,
		Pause:           pause,
		RunPeriod:       c.runPeriod,
		Degradation:     period.Degradation(pause, c.runPeriod),
		NextPeriod:      r.cfg.Period,
		PacketsReleased: len(released),
		Mode:            StateProtected,
		Resync:          c.resync,
		Wire:            c.statsWire,
	}
	if r.cfg.PeriodManager != nil {
		_, st.NextPeriod = r.cfg.PeriodManager.Observe(pause)
	}
	return st
}

// rollback accounts an abandoned checkpoint; the guest is already
// running again. The replicas stay on their last acknowledged epochs
// (legs that did acknowledge are simply ahead, which is safe — their
// extra state's outputs remain buffered). A missed quorum is an outage
// degraded mode rides out; any other cause is returned as it is.
func (r *Replicator) rollback(c *ckpt, pause time.Duration, cause error) (CheckpointStats, error) {
	epochID := int64(c.seq)
	r.rollbacks.Inc()
	r.mu.Lock()
	r.totals.TotalPause += pause
	r.mu.Unlock()
	r.pauseHist.Observe(pause.Seconds())
	r.tr.Event(trace.EventRollback, epochID, trace.Event{
		Engine: r.engine(), Pages: len(c.dirty), Note: cause.Error(),
	})
	r.tr.Record(trace.Event{
		Kind: trace.SpanPause, Epoch: epochID, Start: c.pauseStart, Dur: pause,
		Engine: r.engine(), Pages: len(c.dirty), Outcome: "rollback",
	})
	switch {
	case !c.missed:
		if c.resync {
			r.setState(StateDegraded) // the next cycle tries the resync again
		}
		return CheckpointStats{}, cause
	case !r.cfg.DegradedMode:
		return CheckpointStats{}, fmt.Errorf("%w: %w", ErrDegraded, cause)
	}
	// A failed resync attempt (state Resyncing) continues the same
	// degraded episode; only a fall from Protected opens a new one.
	if r.State() == StateProtected {
		r.degradedEntries.Inc()
	}
	r.setState(StateDegraded)
	return CheckpointStats{
		Seq:         c.seq,
		DirtyPages:  len(c.dirty),
		Pause:       pause,
		RunPeriod:   c.runPeriod,
		Degradation: period.Degradation(pause, c.runPeriod),
		NextPeriod:  r.Period(),
		Mode:        StateDegraded,
	}, nil
}
