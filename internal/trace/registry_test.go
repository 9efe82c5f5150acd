package trace

import (
	"strings"
	"sync"
	"testing"

	"github.com/here-ft/here/internal/vclock"
)

func TestRegistryGetOrCreate(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("here_x_total", "x")
	b := reg.Counter("here_x_total", "x again")
	if a != b {
		t.Fatal("same name returned distinct counters")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("shared counter not shared")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	reg.Gauge("here_x_total", "now a gauge")
}

func TestCounterSemantics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored
	if c.Value() != 5 {
		t.Fatalf("value = %d", c.Value())
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Fatalf("gauge = %v", g.Value())
	}
	g.Set(-1)
	if g.Value() != -1 {
		t.Fatalf("gauge = %v", g.Value())
	}
}

func TestHistogramObserve(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("here_pause_seconds", "pause", DurationBuckets())
	for i := 0; i < 100; i++ {
		h.Observe(0.002) // lands in the 0.01 bucket
	}
	h.Observe(3) // lands in the 5s bucket
	if h.Count() != 101 {
		t.Fatalf("count = %d", h.Count())
	}
	// Bucket i counts observations in (bounds[i-1], bounds[i]].
	if h.counts[4] != 100 || h.counts[10] != 1 {
		t.Fatalf("counts = %v, want 100 in the 0.01 bucket and 1 in the 5s bucket", h.counts)
	}
	var empty Histogram
	empty.counts = make([]uint64, 1)
	if (&empty).Count() != 0 {
		t.Fatal("empty histogram count")
	}
}

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("here_checkpoints_total", "completed checkpoints")
	c.Add(42)
	g := reg.Gauge("here_period_seconds_current", "current period")
	g.Set(1.5)
	h := reg.Histogram("here_pause_seconds", "checkpoint pause", []float64{0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(7)

	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE here_checkpoints_total counter",
		"here_checkpoints_total 42",
		"# TYPE here_period_seconds_current gauge",
		"here_period_seconds_current 1.5",
		"# TYPE here_pause_seconds histogram",
		`here_pause_seconds_bucket{le="0.01"} 1`,
		`here_pause_seconds_bucket{le="0.1"} 2`,
		`here_pause_seconds_bucket{le="+Inf"} 3`,
		"here_pause_seconds_count 3",
		"# HELP here_checkpoints_total completed checkpoints",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestConcurrentRegistryUse(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := reg.Counter("here_shared_total", "shared")
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
			reg.Histogram("here_shared_seconds", "shared", DurationBuckets()).Observe(0.1)
		}()
	}
	wg.Wait()
	if v := reg.Counter("here_shared_total", "").Value(); v != 8000 {
		t.Fatalf("counter = %d, want 8000", v)
	}
}

func TestTracerInstrument(t *testing.T) {
	reg := NewRegistry()
	tr := New(vclock.NewSim(), 2)
	tr.Instrument(reg)
	for i := 0; i < 5; i++ {
		tr.Event(EventRetry, 0, Event{})
	}
	if v := reg.Counter("here_trace_events_total", "").Value(); v != 5 {
		t.Fatalf("events counter = %d", v)
	}
	if v := reg.Counter("here_trace_dropped_total", "").Value(); v != 3 {
		t.Fatalf("dropped counter = %d", v)
	}
}
