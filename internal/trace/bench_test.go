package trace

import (
	"testing"
	"time"

	"github.com/here-ft/here/internal/vclock"
)

var benchEvent = Event{
	Kind: SpanScan, Epoch: 1, Dur: time.Millisecond,
	Engine: "here", Pages: 1024, Bytes: 4 << 20, Outcome: "ok",
}

var benchTracer *Tracer

// BenchmarkTracerNew is what a protection pays for its tracer before
// it has recorded anything.
func BenchmarkTracerNew(b *testing.B) {
	clk := vclock.NewSim()
	b.ReportAllocs()
	for b.Loop() {
		benchTracer = New(clk, DefaultCapacity)
	}
}

// BenchmarkTracerRecord prices Record in the ring's three states: cold
// (a new tracer's first event, which makes the first chunk), warm (a
// ring with room: the steady state until a protection has recorded its
// capacity) and wrapping (at capacity, every Record overwrites the
// oldest event); fill is a new tracer's whole life up to its capacity,
// whose B/op is the ring's size, ≈ capacity × 64 B.
func BenchmarkTracerRecord(b *testing.B) {
	clk := vclock.NewSim()
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			benchTracer = New(clk, DefaultCapacity)
			benchTracer.Record(benchEvent)
		}
	})
	b.Run("warm", func(b *testing.B) {
		tr := New(clk, DefaultCapacity)
		for i := 0; i < DefaultCapacity; i++ {
			tr.Record(benchEvent)
		}
		b.ReportAllocs()
		for b.Loop() {
			if tr.seq == DefaultCapacity {
				tr.seq, tr.c, tr.off = 0, 0, 0 // keep the chunks, make room again
			}
			tr.Record(benchEvent)
		}
	})
	b.Run("fill", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			benchTracer = New(clk, DefaultCapacity)
			for i := 0; i < DefaultCapacity; i++ {
				benchTracer.Record(benchEvent)
			}
		}
	})
	b.Run("wrapping", func(b *testing.B) {
		tr := New(clk, 1024)
		for i := 0; i < 1024; i++ {
			tr.Record(benchEvent)
		}
		b.ReportAllocs()
		for b.Loop() {
			tr.Record(benchEvent)
		}
	})
}
