package trace

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

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
	for _, capacity := range []int{1, 63, 64, 65, 100, DefaultCapacity} {
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
				if cap(tr.buf) > capacity {
					t.Fatalf("buffer of %d slots exceeds capacity %d", cap(tr.buf), capacity)
				}
			})
		}
	}
}

// TestGrownRingEqualsPresizedRing: a trace that crossed two doublings
// reads back exactly like one recorded into a ring that never had to
// grow — events, breakdown and JSONL bytes.
func TestGrownRingEqualsPresizedRing(t *testing.T) {
	const n = 4*initialSlots - 10 // 64 → 128 → 256
	grown := New(vclock.NewSim(), DefaultCapacity)
	presized := New(vclock.NewSim(), DefaultCapacity)
	presized.buf = make([]Event, 0, DefaultCapacity)
	recordN(grown, n)
	recordN(presized, n)
	if cap(grown.buf) != 4*initialSlots {
		t.Fatalf("grown ring has %d slots, want %d", cap(grown.buf), 4*initialSlots)
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

// TestRingCostsWhatItRecords: a new tracer allocates nothing sized by
// its capacity, and one that recorded 100 events holds at most 128
// slots.
func TestRingCostsWhatItRecords(t *testing.T) {
	clk := vclock.NewSim()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr := New(clk, DefaultCapacity)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1024 {
		t.Fatalf("New(clock, %d) allocated %d bytes, want < 1 kB", DefaultCapacity, got)
	}
	recordN(tr, 100)
	if cap(tr.buf) > 128 {
		t.Fatalf("100 events hold %d slots, want <= 128", cap(tr.buf))
	}
	// Growth stops at the capacity: the tracer and log₂(16384/64) + 1
	// buffers, then nothing however long it records.
	allocs := testing.AllocsPerRun(1, func() {
		tr = New(clk, DefaultCapacity)
		recordN(tr, 3*DefaultCapacity)
	})
	if allocs > 1+9 {
		t.Fatalf("filling and wrapping a %d-slot ring allocated %v times, want <= 10", DefaultCapacity, allocs)
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
// that growth swaps the buffer only under the tracer's mutex.
func TestConcurrentRecordAndRead(t *testing.T) {
	const writers, each, capacity = 4, 300, 4 * initialSlots
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
