package trace

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"github.com/here-ft/here/internal/vclock"
)

// goldenCapacity is the ring the golden stream is recorded into: more
// than one 256-slot chunk and not a multiple of it, so the stream wraps
// across a part-filled last chunk.
const goldenCapacity = 300

// goldenEvents is how many events goldenStream records: enough to wrap
// the ring several times and count drops.
const goldenEvents = 1500

// goldenStream records a seeded stream that covers every Kind, NoEpoch,
// starts before the tracer's start, notes, both engines, the outcomes
// the callers use, more distinct labels than fit one byte, and Pages and
// Shard beyond 32 bits or below zero — all of these among the events
// the ring keeps.
func goldenStream(tr *Tracer, clk *vclock.SimClock) {
	rng := rand.New(rand.NewSource(29))
	engines := [...]string{"", "here", "remus"}
	outcomes := [...]string{"", "ok", "failed", "resync", "rollback", "fenced", "disconnect", "leg-dead", "escalated", "in-place"}
	notes := [...]string{"", "discard", "link-down: a→b", "attempt 2: \"boom\"", "mode=degraded\n"}
	for i := 0; i < goldenEvents; i++ {
		clk.Sleep(time.Duration(rng.Intn(5000)) * time.Microsecond)
		kind := SpanPause + Kind(i%int(kindEnd-SpanPause))
		epoch := int64(i / 7)
		if rng.Intn(6) == 0 {
			epoch = NoEpoch
		}
		ev := Event{
			Engine:  engines[rng.Intn(len(engines))],
			Outcome: outcomes[rng.Intn(len(outcomes))],
			Note:    notes[rng.Intn(len(notes))],
			Shard:   rng.Intn(9),
			Pages:   rng.Intn(1 << 20),
			Bytes:   rng.Int63n(1 << 40),
		}
		switch late := i >= goldenEvents-goldenCapacity; {
		case late && i%2 == 0:
			ev.Outcome = fmt.Sprintf("label-%d", i) // 300 more distinct labels
			ev.Engine = fmt.Sprintf("engine-%d", i)
		case late && i%4 == 1:
			ev.Pages = 1<<32 + i
			ev.Shard = 1<<33 + i
		case late && i%4 == 3:
			ev.Pages, ev.Shard = -i, -1
		}
		switch {
		case i%11 == 0:
			// A fault programmed before the tracer started.
			ev.Kind, ev.Epoch = kind, epoch
			ev.Start = tr.Start().Add(-time.Duration(rng.Intn(1e6)) * time.Microsecond)
			ev.Dur = time.Duration(rng.Intn(1e4)) * time.Microsecond
			tr.Record(ev)
		case kind.IsSpan():
			start := clk.Now().Add(-time.Duration(rng.Intn(3000)) * time.Microsecond)
			tr.Span(kind, epoch, start, ev)
		default:
			tr.Event(kind, epoch, ev)
		}
	}
}

// TestGoldenJSONL: the golden stream exports byte for byte what the
// tracer exported when every Event was stored whole (testdata/golden.jsonl
// was written by that tracer), and the ring's counters agree.
func TestGoldenJSONL(t *testing.T) {
	want, err := os.ReadFile("testdata/golden.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	clk := vclock.NewSim()
	tr := New(clk, goldenCapacity)
	goldenStream(tr, clk)
	if tr.Len() != goldenCapacity || tr.Dropped() != goldenEvents-goldenCapacity {
		t.Fatalf("Len %d Dropped %d, want %d and %d", tr.Len(), tr.Dropped(), goldenCapacity, goldenEvents-goldenCapacity)
	}
	var got bytes.Buffer
	if err := tr.WriteJSONL(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("JSONL has %d lines, golden %d", len(gl), len(wl))
	}
}
