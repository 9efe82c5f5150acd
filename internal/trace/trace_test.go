package trace

import (
	"bufio"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/here-ft/here/internal/vclock"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	tr.Record(Event{Kind: SpanPause})
	tr.Event(EventRetry, 0, Event{})
	if d := tr.Span(SpanScan, 0, time.Time{}, Event{}); d != 0 {
		t.Fatalf("nil Span = %v, want 0", d)
	}
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer holds state")
	}
	var buf strings.Builder
	if err := tr.WriteJSONL(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil WriteJSONL: err=%v out=%q", err, buf.String())
	}
}

func TestRingBufferDropAccounting(t *testing.T) {
	clk := vclock.NewSim()
	tr := New(clk, 4)
	for i := 0; i < 10; i++ {
		tr.Event(EventRetry, int64(i), Event{})
	}
	if tr.Len() != 4 {
		t.Fatalf("len = %d, want 4", tr.Len())
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", tr.Dropped())
	}
	evs := tr.Events()
	// The survivors are the newest four, oldest first, with monotone Seq.
	for i, ev := range evs {
		if ev.Epoch != int64(6+i) {
			t.Fatalf("event %d epoch = %d, want %d", i, ev.Epoch, 6+i)
		}
		if ev.Seq != uint64(6+i) {
			t.Fatalf("event %d seq = %d, want %d", i, ev.Seq, 6+i)
		}
	}
}

func TestSpanMeasuresClock(t *testing.T) {
	clk := vclock.NewSim()
	tr := New(clk, 0)
	start := clk.Now()
	clk.Sleep(250 * time.Millisecond)
	d := tr.Span(SpanTransfer, 3, start, Event{Bytes: 1024, Engine: "here"})
	if d != 250*time.Millisecond {
		t.Fatalf("span dur = %v", d)
	}
	evs := tr.Events()
	if len(evs) != 1 {
		t.Fatalf("%d events", len(evs))
	}
	ev := evs[0]
	if ev.Kind != SpanTransfer || ev.Epoch != 3 || ev.Dur != d || ev.Bytes != 1024 {
		t.Fatalf("event = %+v", ev)
	}
	if !ev.Kind.IsSpan() {
		t.Fatal("transfer not a span")
	}
	if EventRetry.IsSpan() {
		t.Fatal("retry is a span")
	}
}

func TestConcurrentRecord(t *testing.T) {
	tr := New(vclock.NewSim(), 128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Event(EventFault, NoEpoch, Event{Note: "x"})
			}
		}()
	}
	wg.Wait()
	if got := tr.Len() + int(tr.Dropped()); got != 800 {
		t.Fatalf("len+dropped = %d, want 800", got)
	}
}

func TestWriteJSONLRoundTrip(t *testing.T) {
	clk := vclock.NewSim()
	tr := New(clk, 0)
	start := clk.Now()
	clk.Sleep(time.Second)
	tr.Span(SpanPause, 0, start, Event{Engine: "here", Pages: 7, Bytes: 99, Outcome: "ok"})
	tr.Event(EventRollback, 0, Event{Note: "link down"})
	var buf strings.Builder
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(strings.NewReader(buf.String()))
	var lines []JSONEvent
	for sc.Scan() {
		var je JSONEvent
		if err := json.Unmarshal(sc.Bytes(), &je); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		lines = append(lines, je)
	}
	if len(lines) != 2 {
		t.Fatalf("%d lines", len(lines))
	}
	if lines[0].Kind != "pause" || lines[0].DurUs != 1_000_000 || lines[0].Pages != 7 {
		t.Fatalf("pause line = %+v", lines[0])
	}
	if lines[1].Kind != "rollback" || lines[1].TUs != 1_000_000 || lines[1].Note != "link down" {
		t.Fatalf("rollback line = %+v", lines[1])
	}
}

func TestEpochBreakdown(t *testing.T) {
	clk := vclock.NewSim()
	tr := New(clk, 0)
	base := clk.Now()
	rec := func(kind Kind, epoch int64, dur time.Duration, ev Event) {
		ev.Kind = kind
		ev.Epoch = epoch
		ev.Start = base
		ev.Dur = dur
		tr.Record(ev)
	}
	rec(SpanScan, 0, 10*time.Millisecond, Event{})
	rec(SpanEncode, 0, 5*time.Millisecond, Event{})
	rec(SpanEncode, 0, 4*time.Millisecond, Event{Shard: 1}) // parallel, excluded
	rec(SpanEncode, 0, 4*time.Millisecond, Event{Shard: 2}) // parallel, excluded
	rec(SpanTransfer, 0, 20*time.Millisecond, Event{})
	rec(SpanAck, 0, 1*time.Millisecond, Event{})
	rec(SpanRelease, 0, 0, Event{})
	rec(SpanPause, 0, 36*time.Millisecond, Event{Pages: 12, Bytes: 345, Engine: "here"})
	tr.Event(EventRetry, 1, Event{})
	rec(SpanPause, 1, time.Millisecond, Event{Outcome: "rollback"})
	tr.Event(EventRollback, 1, Event{})
	tr.Event(EventFault, NoEpoch, Event{Note: "link-down"}) // epochless, ignored

	out := EpochBreakdown(tr.Events())
	if len(out) != 2 {
		t.Fatalf("%d epochs", len(out))
	}
	e0 := out[0]
	if e0.Epoch != 0 || e0.Pause != 36*time.Millisecond || e0.Pages != 12 || e0.Bytes != 345 {
		t.Fatalf("epoch0 = %+v", e0)
	}
	if got := e0.StageSum(); got != 36*time.Millisecond {
		t.Fatalf("epoch0 stage sum = %v, want 36ms", got)
	}
	e1 := out[1]
	if e1.Retries != 1 || !e1.Rollback || e1.Outcome != "rollback" {
		t.Fatalf("epoch1 = %+v", e1)
	}
}

func TestKindStrings(t *testing.T) {
	for k := SpanPause; k < kindEnd; k++ {
		if strings.HasPrefix(k.String(), "kind(") {
			t.Fatalf("kind %d unnamed", k)
		}
	}
	for _, k := range []Kind{0, kindEnd, 99} {
		if !strings.HasPrefix(k.String(), "kind(") {
			t.Fatalf("kind %d named %q", k, k.String())
		}
	}
}

// TestEveryNamedKindRoundTrips: every Kind that String names, not just
// those below some bound, resolves back from its name — a JSONL trace
// loses no kind (herectl timeline skips the names it cannot resolve).
func TestEveryNamedKindRoundTrips(t *testing.T) {
	named := 0
	for k := Kind(0); k < math.MaxUint8; k++ {
		name := k.String()
		got, ok := KindFromString(name)
		if strings.HasPrefix(name, "kind(") {
			if ok {
				t.Fatalf("unnamed %q resolved to %v", name, got)
			}
			continue
		}
		named++
		if !ok || got != k {
			t.Fatalf("KindFromString(%q) = %v, %v; want %v", name, got, ok, k)
		}
	}
	if named != int(kindEnd-SpanPause) {
		t.Fatalf("%d kinds named, want %d", named, kindEnd-SpanPause)
	}
	if k, ok := KindFromString("recovery"); !ok || k != EventRecovery {
		t.Fatalf(`KindFromString("recovery") = %v, %v`, k, ok)
	}
}

func TestRemoteKindsRoundTrip(t *testing.T) {
	for k := SpanPause; k < kindEnd; k++ {
		got, ok := KindFromString(k.String())
		if !ok || got != k {
			t.Fatalf("KindFromString(%q) = %v, %v", k.String(), got, ok)
		}
	}
	if _, ok := KindFromString("no-such-kind"); ok {
		t.Fatal("unknown kind resolved")
	}
	for _, k := range []Kind{SpanRemoteRecv, SpanRemoteDecode, SpanRemoteApply, SpanRemoteAck} {
		if !k.IsSpan() {
			t.Fatalf("%v not classified as a span", k)
		}
	}
}
