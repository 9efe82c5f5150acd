package trace

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"github.com/here-ft/here/internal/vclock"
)

// recordN records n checkpoint-shaped events: a scan, an encode and a
// pause span per epoch, so EpochBreakdown has something to reassemble.
func recordN(tr *Tracer, n int) {
	base := tr.Start()
	kinds := [...]Kind{SpanScan, SpanEncode, SpanPause}
	for i := 0; i < n; i++ {
		tr.Record(Event{
			Kind:  kinds[i%len(kinds)],
			Epoch: int64(i / len(kinds)),
			Start: base.Add(time.Duration(i) * time.Millisecond),
			Dur:   time.Duration(i+1) * time.Microsecond,
			Pages: i,
		})
	}
}

// TestRingHoldsTheLastCapacityEvents: whatever the capacity and however
// the buffer got to it, the ring holds the last min(n, capacity)
// events, oldest first, with consecutive Seq.
func TestRingHoldsTheLastCapacityEvents(t *testing.T) {
	for _, capacity := range []int{1, 63, 64, 65, 100, 255, 256, 257, 1000, DefaultCapacity} {
		for _, n := range []int{0, 1, capacity - 1, capacity, capacity + 1, 3 * capacity} {
			t.Run(fmt.Sprintf("cap%d/n%d", capacity, n), func(t *testing.T) {
				tr := New(vclock.NewSim(), capacity)
				recordN(tr, n)
				held, dropped := n, 0
				if n > capacity {
					held, dropped = capacity, n-capacity
				}
				if tr.Len() != held || tr.Dropped() != uint64(dropped) {
					t.Fatalf("Len %d Dropped %d, want %d and %d", tr.Len(), tr.Dropped(), held, dropped)
				}
				evs := tr.Events()
				if len(evs) != held {
					t.Fatalf("Events() holds %d, want %d", len(evs), held)
				}
				for i, ev := range evs {
					if want := uint64(dropped + i); ev.Seq != want || ev.Pages != int(want) {
						t.Fatalf("event %d: seq %d pages %d, want both %d", i, ev.Seq, ev.Pages, want)
					}
				}
				if chunks, want := len(tr.chunks), (held+chunkSlots-1)/chunkSlots; chunks != want {
					t.Fatalf("%d events hold %d chunks, want %d", held, chunks, want)
				}
				if slots := ringSlots(tr); slots > capacity {
					t.Fatalf("ring of %d slots exceeds capacity %d", slots, capacity)
				}
			})
		}
	}
}

// ringSlots is the number of slots tr's chunks hold.
func ringSlots(tr *Tracer) int {
	n := 0
	for _, c := range tr.chunks {
		n += len(c)
	}
	return n
}

// TestGrownRingEqualsPresizedRing: a trace that crossed two chunk
// boundaries reads back exactly like one recorded into a ring whose
// chunks were all there from the start — events, breakdown and JSONL
// bytes.
func TestGrownRingEqualsPresizedRing(t *testing.T) {
	const n = 2*chunkSlots + 10
	grown := New(vclock.NewSim(), DefaultCapacity)
	presized := New(vclock.NewSim(), DefaultCapacity)
	for pos := 0; pos < DefaultCapacity; pos += chunkSlots {
		presized.chunks = append(presized.chunks, make([]slot, min(chunkSlots, DefaultCapacity-pos)))
	}
	recordN(grown, n)
	recordN(presized, n)
	if len(grown.chunks) != 3 {
		t.Fatalf("grown ring has %d chunks, want 3", len(grown.chunks))
	}
	if !reflect.DeepEqual(grown.Events(), presized.Events()) {
		t.Fatal("grown ring's events differ from the pre-sized ring's")
	}
	a, b := EpochBreakdown(grown.Events()), EpochBreakdown(presized.Events())
	if len(a) != (n+2)/3 || !reflect.DeepEqual(a, b) {
		t.Fatalf("breakdown of %d epochs differs from the pre-sized ring's %d", len(a), len(b))
	}
	var ja, jb bytes.Buffer
	if err := grown.WriteJSONL(&ja); err != nil {
		t.Fatal(err)
	}
	if err := presized.WriteJSONL(&jb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja.Bytes(), jb.Bytes()) {
		t.Fatal("JSONL of the grown ring differs from the pre-sized ring's")
	}
}

// TestSlotIs64Bytes: the packed slot is what the ring's bound,
// capacity × 64 B, is made of.
func TestSlotIs64Bytes(t *testing.T) {
	if size := unsafe.Sizeof(slot{}); size > 64 {
		t.Fatalf("slot is %d bytes, want <= 64", size)
	}
}

// leastAlloc runs f tries times and returns the fewest bytes and
// allocations one run made. MemStats counts the whole process, and the
// runtime now and then allocates on its own while f runs (five extra
// mallocs in about one fill of the ring in 300); f's own allocations
// are the same every run, so the least of a few runs is f's.
func leastAlloc(tries int, f func()) (bytes, mallocs uint64) {
	bytes, mallocs = math.MaxUint64, math.MaxUint64
	var before, after runtime.MemStats
	for range tries {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		mallocs = min(mallocs, after.Mallocs-before.Mallocs)
	}
	return bytes, mallocs
}

// TestRingCostsWhatItRecords: a new tracer allocates nothing sized by
// its capacity, one that recorded 100 events holds one chunk (no more
// bytes than the 128 whole-Event slots the doubling ring held for
// them), and a full ring holds capacity × 64 B.
func TestRingCostsWhatItRecords(t *testing.T) {
	clk := vclock.NewSim()
	var tr *Tracer
	if got, _ := leastAlloc(5, func() { tr = New(clk, DefaultCapacity) }); got >= 1024 {
		t.Fatalf("New(clock, %d) allocated %d bytes, want < 1 kB", DefaultCapacity, got)
	}
	recordN(tr, 100)
	if len(tr.chunks) != 1 || uintptr(ringSlots(tr))*unsafe.Sizeof(slot{}) > 128*unsafe.Sizeof(Event{}) {
		t.Fatalf("100 events hold %d chunks of %d slots, want one of <= 16 KiB", len(tr.chunks), ringSlots(tr))
	}
	// Growth stops at the capacity: the tracer, one allocation per
	// chunk and ⌈log₂(chunks)⌉ + 1 for the chunk index, then nothing
	// however long it records — and capacity × 64 B, plus under 20 KiB
	// for the chunks' allocation headers, the index, the tracer and the
	// short last chunk's rounding.
	const chunks = (DefaultCapacity + chunkSlots - 1) / chunkSlots
	got, allocs := leastAlloc(5, func() {
		tr = New(clk, DefaultCapacity)
		recordN(tr, 3*DefaultCapacity)
	})
	if want := 1 + chunks + bits.Len(chunks-1) + 1; allocs > uint64(want) && !raceBuild {
		t.Fatalf("filling and wrapping a %d-slot ring allocated %v times, want <= %d", DefaultCapacity, allocs, want)
	}
	if want := uint64(DefaultCapacity*64 + 20<<10); got > want {
		t.Fatalf("filling and wrapping a %d-slot ring allocated %d bytes, want <= %d", DefaultCapacity, got, want)
	}
}

// TestDroppedCounterSumsAcrossTracers: the registry counter is shared
// by every tracer instrumented into it, so it must count each
// overwrite, not mirror one ring's total.
func TestDroppedCounterSumsAcrossTracers(t *testing.T) {
	reg := NewRegistry()
	a, b := New(vclock.NewSim(), 4), New(vclock.NewSim(), 4)
	a.Instrument(reg)
	b.Instrument(reg)
	for i := 0; i < 10; i++ {
		a.Event(EventRetry, int64(i), Event{})
		b.Event(EventRetry, int64(i), Event{})
	}
	if a.Dropped() != 6 || b.Dropped() != 6 {
		t.Fatalf("Dropped() = %d and %d, want 6 and 6", a.Dropped(), b.Dropped())
	}
	if v := reg.Counter("here_trace_dropped_total", "").Value(); v != 12 {
		t.Fatalf("here_trace_dropped_total = %d, want 12", v)
	}
	if v := reg.Counter("here_trace_events_total", "").Value(); v != 20 {
		t.Fatalf("here_trace_events_total = %d, want 20", v)
	}
}

// TestConcurrentRecordAndRead drives Record against Events and Len
// while the ring grows and then wraps; under -race this is the check
// that a chunk is added only under the tracer's mutex.
func TestConcurrentRecordAndRead(t *testing.T) {
	const writers, each, capacity = 4, 300, chunkSlots + 44
	tr := New(vclock.NewSim(), capacity)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tr.Event(EventFault, NoEpoch, Event{Note: "x"})
			}
		}()
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				evs := tr.Events()
				for j := 1; j < len(evs); j++ {
					if evs[j].Seq != evs[j-1].Seq+1 {
						t.Errorf("Events() not consecutive: seq %d follows %d", evs[j].Seq, evs[j-1].Seq)
						return
					}
				}
				if n := tr.Len(); n > capacity {
					t.Errorf("Len() = %d exceeds capacity %d", n, capacity)
					return
				}
			}
		}()
	}
	wg.Wait()
	if tr.Len() != capacity || tr.Dropped() != writers*each-capacity {
		t.Fatalf("Len %d Dropped %d, want %d and %d", tr.Len(), tr.Dropped(), capacity, writers*each-capacity)
	}
}

// sameEvent compares two events field by field, Start by instant: a
// packed Start comes back on the tracer's clock reading, not the
// caller's.
func sameEvent(a, b Event) bool {
	if !a.Start.Equal(b.Start) {
		return false
	}
	a.Start, b.Start = time.Time{}, time.Time{}
	return a == b
}

// TestEventsThatDoNotPackAreKeptWhole: the 257th distinct label (""
// is the first), Pages or Shard outside uint32 and a Start Sub cannot
// measure are stored whole beside the ring, read back unchanged, and
// leave with the slot that pointed at them.
func TestEventsThatDoNotPackAreKeptWhole(t *testing.T) {
	const capacity = 300
	tr := New(vclock.NewSim(), capacity)
	base := tr.Start()
	var want []Event
	rec := func(ev Event) {
		ev.Seq = uint64(len(want))
		tr.Record(ev)
		want = append(want, ev)
	}
	for i := 0; i < 260; i++ {
		rec(Event{Kind: SpanPause, Epoch: int64(i), Start: base, Engine: fmt.Sprintf("engine-%d", i)})
	}
	rec(Event{Kind: SpanPause, Engine: "engine-0", Outcome: "engine-254"}) // in the table: packs
	rec(Event{Kind: SpanEncode, Shard: 1 << 32, Start: base})
	rec(Event{Kind: SpanEncode, Pages: 1 << 32, Start: base})
	rec(Event{Kind: SpanEncode, Pages: math.MaxUint32, Shard: math.MaxUint32, Start: base}) // packs
	rec(Event{Kind: SpanEncode, Pages: -1, Shard: -2, Start: base})
	rec(Event{Kind: EventFault, Epoch: NoEpoch})                                            // zero Start: packs
	rec(Event{Kind: EventFault, Epoch: NoEpoch, Start: base.AddDate(-300, 0, 0)})           // Sub saturates
	rec(Event{Kind: EventFault, Epoch: NoEpoch, Start: base.AddDate(300, 0, 0), Note: "x"}) // Sub saturates
	if len(tr.labels) != 256 {
		t.Fatalf("label table holds %d names, want 256", len(tr.labels))
	}
	if wantWhole := 260 - 255 + 5; len(tr.whole) != wantWhole {
		t.Fatalf("%d events kept whole, want %d", len(tr.whole), wantWhole)
	}
	got := tr.Events()
	if len(got) != len(want) {
		t.Fatalf("Events() holds %d, want %d", len(got), len(want))
	}
	for i := range got {
		if !sameEvent(got[i], want[i]) {
			t.Fatalf("event %d reads back as\n%+v, want\n%+v", i, got[i], want[i])
		}
	}
	if !got[len(got)-3].Start.IsZero() {
		t.Fatalf("zero Start reads back as %v", got[len(got)-3].Start)
	}
	var ja, jb bytes.Buffer
	if err := tr.WriteJSONL(&ja); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&jb, base, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja.Bytes(), jb.Bytes()) {
		t.Fatal("JSONL of the ring differs from the JSONL of the events recorded")
	}
	// Overwriting the ring releases every whole event with its slot.
	recordN(tr, capacity)
	if len(tr.whole) != 0 || tr.Len() != capacity || tr.Dropped() != uint64(len(want)) {
		t.Fatalf("after a full wrap: %d whole, Len %d, Dropped %d", len(tr.whole), tr.Len(), tr.Dropped())
	}
}

// TestPackedStartExportsLikeWhole: whatever clock reading Start
// carries — monotonic or wall, before or after the tracer's start —
// the packed offset exports the t_us the Event itself exports.
func TestPackedStartExportsLikeWhole(t *testing.T) {
	for _, clk := range []vclock.Clock{vclock.NewSim(), vclock.NewReal()} {
		tr := New(clk, 64)
		base, now := tr.Start(), time.Now()
		var want []Event
		for i, at := range []time.Time{
			base, base.Add(-time.Nanosecond), base.Add(time.Hour + 999), base.Round(0).Add(-3 * time.Second),
			now, now.Round(0), now.Add(-1500 * time.Millisecond), now.UTC().Add(7 * time.Microsecond),
			time.Unix(0, 0), time.Date(2200, 1, 1, 0, 0, 0, 1, time.UTC), {},
		} {
			ev := Event{Seq: uint64(i), Kind: SpanAck, Start: at, Dur: time.Duration(i)}
			tr.Record(ev)
			want = append(want, ev)
		}
		var ja, jb bytes.Buffer
		if err := tr.WriteJSONL(&ja); err != nil {
			t.Fatal(err)
		}
		if err := WriteJSONL(&jb, base, want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ja.Bytes(), jb.Bytes()) {
			t.Fatalf("%T: ring exports\n%s\nthe events export\n%s", clk, ja.Bytes(), jb.Bytes())
		}
		if len(tr.whole) != 0 {
			t.Fatalf("%T: %d events within ±292 years kept whole", clk, len(tr.whole))
		}
	}
}
