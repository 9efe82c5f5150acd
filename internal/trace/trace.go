// Package trace is HERE's telemetry layer: a low-overhead structured
// tracer plus a named metrics registry, both clock-driven so the same
// instrumentation works under the virtual clock (deterministic
// experiment traces) and the wall clock.
//
// The tracer records two shapes of telemetry:
//
//   - Spans — intervals of the checkpoint lifecycle, scoped to the
//     epoch (checkpoint sequence number) they belong to: pause, dirty
//     scan, encode (aggregate plus one span per region shard),
//     transfer, ack, release; plus seeding rounds and failover phases.
//   - Events — discrete occurrences: transfer retries, checkpoint
//     rollbacks, protection-mode transitions, fault injections,
//     heartbeat misses.
//
// Storage is a bounded ring of 64-byte slots, grown a fixed chunk at a
// time up to the capacity, so a tracer holds what it recorded and at
// most capacity × 64 B, and no Record copies the ring. At capacity
// the oldest event is overwritten and counted in Dropped(). An event
// that does not pack (a 257th distinct Engine/Outcome label, Pages or
// Shard outside uint32, a Start ±292 years away) is kept whole beside
// the ring. A nil *Tracer is valid and disables tracing.
//
// The paper's evaluation attributes each epoch's cost to its stages
// (pause t = αN/P + C, scan, encode, transfer, ack — §6, Fig 3) and
// Algorithm 1 acts on those measurements; EpochBreakdown reassembles
// exactly that attribution from a recorded trace.
package trace

import (
	"fmt"
	"math"
	"sync"
	"time"
	"unsafe"

	"github.com/here-ft/here/internal/vclock"
)

// Kind labels what an Event describes. Kinds below EventRetry are
// spans (they carry a duration); the rest are discrete events.
type Kind uint8

// Span and event kinds.
const (
	// SpanPause is the whole checkpoint pause: the guest is stopped
	// from the first dirty-scan cycle to resume.
	SpanPause Kind = iota + 1
	// SpanScan is the dirty-bitmap scan plus per-page mapping and copy.
	SpanScan
	// SpanEncode is the wire encode including the state record capture;
	// the aggregate span has Shard 0, per-region-shard spans are 1-based.
	SpanEncode
	// SpanTransfer is the checkpoint stream's time on the link,
	// including retries and their backoffs.
	SpanTransfer
	// SpanAck is the replica acknowledgement round.
	SpanAck
	// SpanRelease is the post-resume commit: replica apply, disk-journal
	// retirement and buffered-output release.
	SpanRelease
	// SpanSeedRound is one live pre-copy iteration of the seeding
	// migration (Epoch is the iteration number).
	SpanSeedRound
	// SpanFailover is one phase of replica activation (Note names the
	// phase: discard, decode, restore, replug, resume).
	SpanFailover
	// SpanRemoteRecv is the secondary-side read of a checkpoint or seed
	// stream off the wire (Epoch is the checkpoint sequence number).
	SpanRemoteRecv
	// SpanRemoteDecode is the secondary-side wire decode of the stream.
	SpanRemoteDecode
	// SpanRemoteApply is the secondary-side install of decoded pages and
	// device state into the replica image.
	SpanRemoteApply
	// SpanRemoteAck is the secondary-side acknowledgement: stage-timing
	// encode plus the ack write back to the primary.
	SpanRemoteAck
	// SpanMicroreboot is one in-place recovery attempt on a failed
	// primary (Outcome "ok"/"failed", Note carries the attempt number
	// and error).
	SpanMicroreboot

	// EventRetry is one transfer attempt beyond the first.
	EventRetry
	// EventRollback is a checkpoint abandoned after the retry budget.
	EventRollback
	// EventModeChange is a protection-state transition (Note holds the
	// new state).
	EventModeChange
	// EventFault is a fault-plan event firing (Note holds kind+detail).
	EventFault
	// EventHeartbeatMiss is one missed heartbeat observed by the
	// failure detector.
	EventHeartbeatMiss
	// EventTransport is a network-transport state transition: connect,
	// disconnect, reconnect, fencing rejection (Outcome/Note carry the
	// detail).
	EventTransport
	// EventRecovery is a recovery-ladder transition: classified,
	// microrebooted, escalated (Outcome carries the step, Note the
	// detail).
	EventRecovery

	// kindEnd is one past the last kind: every loop over the kinds
	// stops here.
	kindEnd
)

// kindNames are the kinds' names as they appear in exported traces.
var kindNames = [kindEnd]string{
	SpanPause: "pause", SpanScan: "scan", SpanEncode: "encode",
	SpanTransfer: "transfer", SpanAck: "ack", SpanRelease: "release",
	SpanSeedRound: "seed-round", SpanFailover: "failover",
	SpanRemoteRecv: "remote-recv", SpanRemoteDecode: "remote-decode",
	SpanRemoteApply: "remote-apply", SpanRemoteAck: "remote-ack",
	SpanMicroreboot: "microreboot", EventRetry: "retry",
	EventRollback: "rollback", EventModeChange: "mode-change",
	EventFault: "fault", EventHeartbeatMiss: "heartbeat-miss",
	EventTransport: "transport", EventRecovery: "recovery",
}

// String names the kind as it appears in exported traces.
func (k Kind) String() string {
	if k >= SpanPause && k < kindEnd {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// IsSpan reports whether the kind carries a duration.
func (k Kind) IsSpan() bool { return k >= SpanPause && k <= SpanMicroreboot }

// NoEpoch marks an event that is not scoped to a checkpoint epoch
// (fault injections, heartbeat misses).
const NoEpoch int64 = -1

// Event is one recorded span or discrete event. The zero values of the
// optional fields (Engine, Shard, Pages, Bytes, Outcome, Note) mean
// "not applicable"; Shard 0 is the aggregate span, per-shard encode
// spans are numbered from 1.
type Event struct {
	// Seq is the event's position in the trace (monotone, assigned by
	// Record; continues counting across ring-buffer overwrites).
	Seq uint64
	// Epoch is the checkpoint sequence number the event belongs to, or
	// NoEpoch.
	Epoch int64
	// Kind labels the span or event.
	Kind Kind
	// Start is the instant on the tracer's clock; Dur is the span
	// length (0 for discrete events).
	Start time.Time
	Dur   time.Duration
	// Engine names the replication engine ("here", "remus") where
	// relevant.
	Engine string
	// Shard is the 1-based region-shard index for per-shard spans;
	// 0 for aggregate spans and events.
	Shard int
	// Pages and Bytes size the work the span covered.
	Pages int
	Bytes int64
	// Outcome is "ok", "failed", "rollback", … — empty means ok.
	Outcome string
	// Note carries free-form detail (fault description, new mode, …).
	Note string
}

// DefaultCapacity is the ring size used when New is given 0.
const DefaultCapacity = 16384

// chunkSlots is a chunk's length: 147 slots and the allocator's 8-byte
// header fill the 9472-byte size class, six to a span. The 8 and 16 KiB
// classes hold one a span, which makes every chunk a trip to the heap.
const chunkSlots = 147

// slot is an Event packed into 64 bytes: Seq follows from the ring
// position, start is the offset from the tracer's start (zeroStart for
// the zero time), engine and outcome index the tracer's labels. A whole
// slot's event did not pack and is in Tracer.whole under its Seq.
type slot struct {
	epoch, start, bytes int64
	dur                 time.Duration
	note                string
	pages, shard        uint32
	kind                Kind
	engine, outcome     uint8
	whole               bool
}

const zeroStart = math.MinInt64

// noLabels is a new tracer's label table: "" is label 0.
var noLabels = []string{""}

// Tracer records spans and events into a bounded ring buffer. It is
// safe for concurrent use; a nil *Tracer discards everything.
type Tracer struct {
	clock    vclock.Clock
	start    time.Time
	capacity int

	mu sync.Mutex
	// chunks hold positions [0, capacity), each made when the first
	// event reaches it; the last is short if capacity is not a multiple.
	chunks [][]slot
	c, off int              // the next event goes to chunks[c][off]
	labels []string         // at most 256, appended to a copy of noLabels
	whole  map[uint64]Event // events in whole slots, by Seq
	seq    uint64           // events recorded; the ring holds the last held()

	// optional self-observation counters (Instrument)
	events *Counter
	drops  *Counter
}

// New returns a tracer timed against clock, holding at most capacity
// events (DefaultCapacity if <= 0).
func New(clock vclock.Clock, capacity int) *Tracer {
	if clock == nil {
		clock = vclock.NewSim()
	}
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{
		clock:    clock,
		start:    clock.Now(),
		capacity: capacity,
		labels:   noLabels[:1:1],
	}
}

// Clock returns the tracer's time source (nil-safe).
func (t *Tracer) Clock() vclock.Clock {
	if t == nil {
		return nil
	}
	return t.clock
}

// Start reports the instant the tracer was created; exported trace
// offsets are measured from it.
func (t *Tracer) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// Instrument registers the tracer's self-observation counters into
// reg: here_trace_events_total and here_trace_dropped_total.
func (t *Tracer) Instrument(reg *Registry) {
	if t == nil || reg == nil {
		return
	}
	t.mu.Lock()
	t.events = reg.Counter("here_trace_events_total",
		"spans and events recorded by the tracer")
	t.drops = reg.Counter("here_trace_dropped_total",
		"events overwritten because the trace ring was full")
	t.mu.Unlock()
}

// Record appends ev to the ring, stamping its trace sequence number.
// When the ring is full the oldest event is overwritten and counted as
// dropped. Record never blocks on anything but the tracer's own mutex
// and is a no-op on a nil tracer.
func (t *Tracer) Record(ev Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	ev.Seq = t.seq
	t.seq++
	if t.c == len(t.chunks) {
		t.chunks = append(t.chunks, make([]slot, min(chunkSlots, t.capacity-t.c*chunkSlots)))
	}
	chunk := t.chunks[t.c]
	s := &chunk[t.off]
	full := ev.Seq >= uint64(t.capacity)
	if full && len(t.whole) > 0 && s.whole {
		delete(t.whole, ev.Seq-uint64(t.capacity))
	}
	off, ok := time.Duration(zeroStart), true
	if !ev.Start.IsZero() {
		off = ev.Start.Sub(t.start) // saturates ±292 years away
		ok = off != math.MinInt64 && off != math.MaxInt64
	}
	engine, ok1 := t.label(ev.Engine)
	outcome, ok2 := t.label(ev.Outcome)
	if ok && ok1 && ok2 && uint64(ev.Pages) <= math.MaxUint32 && uint64(ev.Shard) <= math.MaxUint32 {
		// Field by field: a composite literal is built on the stack and
		// copied, which stalls on its own byte-sized stores.
		s.epoch, s.start, s.bytes, s.dur, s.note = ev.Epoch, int64(off), ev.Bytes, ev.Dur, ev.Note
		s.pages, s.shard = uint32(ev.Pages), uint32(ev.Shard)
		s.kind, s.engine, s.outcome, s.whole = ev.Kind, engine, outcome, false
	} else {
		*s = slot{whole: true}
		if t.whole == nil {
			t.whole = make(map[uint64]Event)
		}
		t.whole[ev.Seq] = ev
	}
	if t.off++; t.off == len(chunk) {
		t.off = 0
		if t.c++; t.c*chunkSlots >= t.capacity {
			t.c = 0
		}
	}
	events, drops := t.events, t.drops
	t.mu.Unlock()
	if events != nil {
		events.Inc()
	}
	if drops != nil && full {
		drops.Inc()
	}
}

// label returns name's index in t.labels, adding it if there is room.
// Callers pass constants, so where the bytes live is compared before
// what they say. Caller holds t.mu.
func (t *Tracer) label(name string) (uint8, bool) {
	if name == "" {
		return 0, true
	}
	for i, l := range t.labels {
		if len(l) == len(name) && (unsafe.StringData(l) == unsafe.StringData(name) || l == name) {
			return uint8(i), true
		}
	}
	if len(t.labels) > math.MaxUint8 {
		return 0, false
	}
	t.labels = append(t.labels, name)
	return uint8(len(t.labels) - 1), true
}

// held is the number of events in the ring. Caller holds t.mu.
func (t *Tracer) held() int { return int(min(t.seq, uint64(t.capacity))) }

// Span records a completed span of the given kind, measuring its
// duration from start to now on the tracer's clock and returning that
// duration. Optional fields ride in ev (Start, Dur and Kind are
// overwritten).
func (t *Tracer) Span(kind Kind, epoch int64, start time.Time, ev Event) time.Duration {
	if t == nil {
		return 0
	}
	ev.Kind = kind
	ev.Epoch = epoch
	ev.Start = start
	ev.Dur = t.clock.Since(start)
	t.Record(ev)
	return ev.Dur
}

// Event records a discrete (zero-duration) event of the given kind at
// the current instant.
func (t *Tracer) Event(kind Kind, epoch int64, ev Event) {
	if t == nil {
		return
	}
	ev.Kind = kind
	ev.Epoch = epoch
	ev.Start = t.clock.Now()
	ev.Dur = 0
	t.Record(ev)
}

// Len reports the number of events currently held.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.held()
}

// Dropped reports how many events were overwritten by ring overflow.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq - uint64(t.held())
}

// Events returns a copy of the held events, oldest first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, t.held())
	c, off, seq := 0, 0, t.seq-uint64(len(out))
	if len(out) == t.capacity {
		c, off = t.c, t.off // the oldest event is the next one overwritten
	}
	for i := range out {
		s := &t.chunks[c][off]
		if off++; off == len(t.chunks[c]) {
			off = 0
			if c++; c == len(t.chunks) {
				c = 0
			}
		}
		if s.whole {
			out[i] = t.whole[seq+uint64(i)]
			continue
		}
		out[i] = Event{
			Seq: seq + uint64(i), Epoch: s.epoch, Kind: s.kind, Dur: s.dur,
			Engine: t.labels[s.engine], Shard: int(s.shard), Pages: int(s.pages),
			Bytes: s.bytes, Outcome: t.labels[s.outcome], Note: s.note,
		}
		if s.start != zeroStart {
			out[i].Start = t.start.Add(time.Duration(s.start))
		}
	}
	return out
}

// EpochStages is the per-epoch stage attribution reassembled from a
// trace: the pause and the stages that partition it, plus the events
// that fired during the epoch. StageSum() against Pause is the
// consistency check the acceptance tests apply.
type EpochStages struct {
	Epoch    int64
	Engine   string
	Pause    time.Duration
	Scan     time.Duration
	Encode   time.Duration
	Transfer time.Duration
	Ack      time.Duration
	Release  time.Duration
	Pages    int
	Bytes    int64
	Retries  int
	Rollback bool
	Outcome  string

	// Remote* are the secondary-side stages reported back in the ack
	// when the epoch travelled over the real transport: wire read,
	// decode, replica apply, and ack write. All zero means the epoch was
	// local (simnet) or the peer predates stage reporting.
	RemoteRecv   time.Duration
	RemoteDecode time.Duration
	RemoteApply  time.Duration
	RemoteAck    time.Duration
}

// StageSum reports scan+encode+transfer+ack — the stages that
// partition the pause.
func (s EpochStages) StageSum() time.Duration {
	return s.Scan + s.Encode + s.Transfer + s.Ack
}

// RemoteSum reports the secondary-side time attributed to the epoch:
// recv+decode+apply+ack.
func (s EpochStages) RemoteSum() time.Duration {
	return s.RemoteRecv + s.RemoteDecode + s.RemoteApply + s.RemoteAck
}

// HasRemote reports whether the epoch carries secondary-side stage
// timings (i.e. it crossed the real transport and the peer reported
// its stages back in the ack).
func (s EpochStages) HasRemote() bool { return s.RemoteSum() > 0 }

// WireTransit estimates the time the epoch's bytes spent purely on the
// wire (plus peer scheduling): the primary's transfer span minus the
// secondary-side stages it encloses. Clamped at zero — clock domains
// differ across nodes, so tiny negatives can occur on fast links.
func (s EpochStages) WireTransit() time.Duration {
	if !s.HasRemote() {
		return 0
	}
	if w := s.Transfer - s.RemoteSum(); w > 0 {
		return w
	}
	return 0
}

// EpochBreakdown groups a trace's checkpoint spans by epoch, summing
// each stage (aggregate spans only — per-shard encode spans are
// parallel and excluded) and counting retries. Epochs appear in order
// of their pause span; epochs with no spans in the trace (ring
// overwritten) are absent.
func EpochBreakdown(events []Event) []EpochStages {
	index := make(map[int64]int)
	var out []EpochStages
	get := func(epoch int64) *EpochStages {
		i, ok := index[epoch]
		if !ok {
			i = len(out)
			index[epoch] = i
			out = append(out, EpochStages{Epoch: epoch})
		}
		return &out[i]
	}
	for _, ev := range events {
		if ev.Epoch < 0 {
			continue
		}
		if ev.Kind == SpanEncode && ev.Shard > 0 {
			continue // parallel per-shard span; the aggregate covers it
		}
		switch ev.Kind {
		case SpanPause:
			s := get(ev.Epoch)
			s.Pause += ev.Dur
			s.Pages = ev.Pages
			s.Bytes = ev.Bytes
			s.Engine = ev.Engine
			s.Outcome = ev.Outcome
		case SpanScan:
			get(ev.Epoch).Scan += ev.Dur
		case SpanEncode:
			get(ev.Epoch).Encode += ev.Dur
		case SpanTransfer:
			get(ev.Epoch).Transfer += ev.Dur
		case SpanAck:
			get(ev.Epoch).Ack += ev.Dur
		case SpanRelease:
			get(ev.Epoch).Release += ev.Dur
		case SpanRemoteRecv:
			get(ev.Epoch).RemoteRecv += ev.Dur
		case SpanRemoteDecode:
			get(ev.Epoch).RemoteDecode += ev.Dur
		case SpanRemoteApply:
			get(ev.Epoch).RemoteApply += ev.Dur
		case SpanRemoteAck:
			get(ev.Epoch).RemoteAck += ev.Dur
		case EventRetry:
			get(ev.Epoch).Retries++
		case EventRollback:
			get(ev.Epoch).Rollback = true
		}
	}
	return out
}
