package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.N() != 0 || s.Mean() != 0 || s.Percentile(50) != 0 {
		t.Fatal("empty summary must report zeros everywhere")
	}
}

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, v := range []float64{4, 1, 3, 2, 5} {
		s.Add(v)
	}
	if s.N() != 5 {
		t.Fatalf("N = %d, want 5", s.N())
	}
	if s.Mean() != 3 {
		t.Fatalf("Mean = %v, want 3", s.Mean())
	}
	if got := s.Percentile(50); got != 3 {
		t.Fatalf("p50 = %v, want 3", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Fatalf("p0 = %v, want 1", got)
	}
	if got := s.Percentile(100); got != 5 {
		t.Fatalf("p100 = %v, want 5", got)
	}
}

func TestSummaryAddDuration(t *testing.T) {
	var s Summary
	s.AddDuration(1500 * time.Millisecond)
	if got := s.Mean(); got != 1.5 {
		t.Fatalf("Mean = %v, want 1.5", got)
	}
}

func TestSummaryPercentileInterpolates(t *testing.T) {
	var s Summary
	s.Add(0)
	s.Add(10)
	if got := s.Percentile(50); got != 5 {
		t.Fatalf("p50 of {0,10} = %v, want 5", got)
	}
}

// Property: min ≤ Percentile(p) ≤ max and Percentile is monotone in p.
func TestSummaryPercentileProperties(t *testing.T) {
	f := func(raw []float64, pa, pb uint8) bool {
		var s Summary
		minV, maxV := math.Inf(1), math.Inf(-1)
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			s.Add(v)
			minV, maxV = math.Min(minV, v), math.Max(maxV, v)
		}
		if s.N() == 0 {
			return true
		}
		lo := float64(pa % 101)
		hi := float64(pb % 101)
		if lo > hi {
			lo, hi = hi, lo
		}
		vlo, vhi := s.Percentile(lo), s.Percentile(hi)
		return vlo <= vhi && minV <= vlo && vhi <= maxV
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSeries(t *testing.T) {
	s := NewSeries("period")
	s.Record(0, 25)
	s.Record(10*time.Second, 20)
	s.Record(20*time.Second, 15)
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if got := s.At(15 * time.Second); got != 20 {
		t.Fatalf("At(15s) = %v, want 20", got)
	}
	if got := s.At(-time.Second); got != 0 {
		t.Fatalf("At before first sample = %v, want 0", got)
	}
	if got := s.MeanBetween(5*time.Second, 25*time.Second); got != 17.5 {
		t.Fatalf("MeanBetween = %v, want 17.5", got)
	}
	if got := s.MeanBetween(100*time.Second, 200*time.Second); got != 0 {
		t.Fatalf("MeanBetween empty window = %v, want 0", got)
	}
}

// TestSeriesAtMatchesLinearScan pins At's binary search to the
// linear-scan semantics it replaced: latest sample at or before t,
// zero before the first sample.
func TestSeriesAtMatchesLinearScan(t *testing.T) {
	s := NewSeries("trace")
	for i := 0; i < 1000; i++ {
		s.Record(time.Duration(i*3)*time.Millisecond, float64(i))
	}
	linear := func(t time.Duration) float64 {
		var v float64
		for _, p := range s.Points {
			if p.T > t {
				break
			}
			v = p.V
		}
		return v
	}
	probes := []time.Duration{
		-time.Second, 0, time.Millisecond, 2 * time.Millisecond,
		3 * time.Millisecond, 1499 * time.Millisecond,
		1500 * time.Millisecond, 2997 * time.Millisecond, time.Hour,
	}
	for i := 0; i < 1000; i++ {
		probes = append(probes, time.Duration(i*3+1)*time.Millisecond)
	}
	for _, q := range probes {
		if got, want := s.At(q), linear(q); got != want {
			t.Fatalf("At(%v) = %v, want %v", q, got, want)
		}
	}
	empty := NewSeries("empty")
	if got := empty.At(time.Second); got != 0 {
		t.Fatalf("empty At = %v, want 0", got)
	}
}

func TestLinearFitExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9} // y = 2x + 1
	slope, intercept, r2 := LinearFit(xs, ys)
	if math.Abs(slope-2) > 1e-12 || math.Abs(intercept-1) > 1e-12 {
		t.Fatalf("fit = %vx + %v, want 2x + 1", slope, intercept)
	}
	if r2 < 0.999999 {
		t.Fatalf("r² = %v, want ~1", r2)
	}
}

func TestLinearFitDegenerate(t *testing.T) {
	if _, _, r2 := LinearFit([]float64{1}, []float64{1}); r2 != 0 {
		t.Fatalf("single point r² = %v, want 0", r2)
	}
	if _, _, r2 := LinearFit([]float64{1, 2}, []float64{5}); r2 != 0 {
		t.Fatalf("mismatched lengths r² = %v, want 0", r2)
	}
	slope, intercept, r2 := LinearFit([]float64{2, 2, 2}, []float64{1, 2, 3})
	if slope != 0 || intercept != 2 || r2 != 0 {
		t.Fatalf("vertical data fit = (%v,%v,%v)", slope, intercept, r2)
	}
	// Constant y is fit perfectly by the horizontal line.
	_, _, r2 = LinearFit([]float64{1, 2, 3}, []float64{4, 4, 4})
	if r2 != 1 {
		t.Fatalf("constant y r² = %v, want 1", r2)
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("Table 1", "Product", "CVEs", "DoS%")
	tab.AddRow("Xen", 312, 48.7)
	tab.AddRow("KVM", 74, 51.4)
	out := tab.String()
	for _, want := range []string{"Table 1", "Product", "Xen", "312", "48.7", "KVM"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestTableFormatsDurations(t *testing.T) {
	tab := NewTable("", "what", "dur")
	tab.AddRow("pause", 250*time.Millisecond)
	if !strings.Contains(tab.String(), "250ms") {
		t.Fatalf("duration not formatted: %s", tab.String())
	}
}

func TestWriteCSVMulti(t *testing.T) {
	a := NewSeries("load")
	a.Record(0, 20)
	a.Record(10*time.Second, 80)
	b := NewSeries("deg")
	b.Record(5*time.Second, 0.3)
	var buf strings.Builder
	if err := WriteCSVMulti(&buf, a, b); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "t_seconds,load,deg\n") {
		t.Fatalf("header wrong: %q", out)
	}
	if !strings.Contains(out, "5.000,20,0.3") || !strings.Contains(out, "10.000,80,0.3") {
		t.Fatalf("rows wrong: %q", out)
	}
	if err := WriteCSVMulti(&buf); err == nil {
		t.Fatal("no series accepted")
	}
}

// TestTimelineZeroDurationTransition is the boundary-semantics
// regression test: a state entered and left at the same instant must
// still appear in Totals (with zero duration), and Totals must
// include a zero-length open interval — the !now.Before(since) rule.
func TestTimelineZeroDurationTransition(t *testing.T) {
	t0 := time.Unix(1000, 0)
	tl := NewTimeline(t0, "protected")

	// Enter and leave "resyncing" at the same instant.
	t1 := t0.Add(time.Second)
	tl.Transition(t1, "resyncing")
	tl.Transition(t1, "protected")

	totals := tl.Totals(t1)
	if d, ok := totals["resyncing"]; !ok {
		t.Fatal("zero-duration state vanished from Totals")
	} else if d != 0 {
		t.Fatalf("resyncing = %v, want 0", d)
	}
	if totals["protected"] != time.Second {
		t.Fatalf("protected = %v, want 1s", totals["protected"])
	}

	// A clock running backwards must not corrupt the totals.
	tl.Transition(t1.Add(-time.Minute), "degraded")
	if d := tl.Totals(t1)["protected"]; d != time.Second {
		t.Fatalf("backwards transition changed protected to %v", d)
	}
}

// TestTimelineTotalsMatchesElapsed: the per-state totals must always
// partition the elapsed time exactly, zero-duration transitions
// included.
func TestTimelineTotalsMatchesElapsed(t *testing.T) {
	t0 := time.Unix(0, 0)
	tl := NewTimeline(t0, "a")
	now := t0
	steps := []struct {
		d time.Duration
		s string
	}{
		{0, "b"}, {time.Second, "c"}, {0, "a"}, {0, "b"},
		{500 * time.Millisecond, "a"}, {0, "c"},
	}
	for _, st := range steps {
		now = now.Add(st.d)
		tl.Transition(now, st.s)
	}
	var sum time.Duration
	for _, d := range tl.Totals(now) {
		sum += d
	}
	if want := now.Sub(t0); sum != want {
		t.Fatalf("totals sum to %v, elapsed %v", sum, want)
	}
}

// TestSummaryInterleavedAddPercentile: interleaving writes and
// percentile reads must keep reporting over the full history.
func TestSummaryInterleavedAddPercentile(t *testing.T) {
	var s Summary
	// Descending inserts are the worst case for the merge path.
	for i := 100; i > 0; i-- {
		s.Add(float64(i))
		if got := s.Percentile(0); got != float64(i) {
			t.Fatalf("after adding down to %d: min percentile = %v", i, got)
		}
		if got := s.Percentile(100); got != 100 {
			t.Fatalf("after adding down to %d: max percentile = %v", i, got)
		}
	}
	if s.N() != 100 {
		t.Fatalf("N = %d, want 100", s.N())
	}
	if got := s.Percentile(50); got != 50.5 {
		t.Fatalf("median = %v, want 50.5", got)
	}
	if got, want := s.Mean(), 50.5; math.Abs(got-want) > 1e-9 {
		t.Fatalf("mean = %v, want %v", got, want)
	}
}

// BenchmarkSummaryInterleaved measures the Add/Percentile interleave
// the dynamic period controller performs every checkpoint cycle. The
// merge-based Percentile keeps this linear-ish; a full re-sort per call
// would be O(n log n) each iteration.
func BenchmarkSummaryInterleaved(b *testing.B) {
	var s Summary
	for i := 0; i < b.N; i++ {
		s.Add(float64(i % 997))
		_ = s.Percentile(99)
	}
}

// BenchmarkSummaryBatchThenPercentile is the contrast case: bulk load,
// one read.
func BenchmarkSummaryBatchThenPercentile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var s Summary
		for j := 0; j < 1000; j++ {
			s.Add(float64(j % 97))
		}
		_ = s.Percentile(99)
	}
}

// TestWriteCSVMultiUnsortedDuplicates: sample times recorded out of
// order across series and duplicated within one series must produce a
// single, time-sorted row per distinct instant, with the last recorded
// value winning among duplicates.
func TestWriteCSVMultiUnsortedDuplicates(t *testing.T) {
	a := NewSeries("x")
	a.Record(2*time.Second, 1)
	a.Record(2*time.Second, 2) // duplicate instant: last value wins
	a.Record(4*time.Second, 3)
	b := NewSeries("y")
	b.Record(3*time.Second, 10) // interleaves between a's samples
	b.Record(1*time.Second, 5)  // union must still come out sorted

	var buf strings.Builder
	if err := WriteCSVMulti(&buf, a, b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	want := []string{
		"t_seconds,x,y",
		"1.000,0,5",
		"2.000,2,5", // not 1: the duplicate's last value
		"3.000,2,10",
		"4.000,3,10",
	}
	if len(lines) != len(want) {
		t.Fatalf("got %d lines, want %d:\n%s", len(lines), len(want), buf.String())
	}
	for i, w := range want {
		if lines[i] != w {
			t.Fatalf("line %d = %q, want %q", i, lines[i], w)
		}
	}
}

// failAfter errors once n bytes have been accepted.
type failAfter struct {
	n       int
	written int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.written+len(p) > f.n {
		room := f.n - f.written
		if room < 0 {
			room = 0
		}
		f.written += room
		return room, errFull
	}
	f.written += len(p)
	return len(p), nil
}

var errFull = &writeError{"disk full"}

type writeError struct{ msg string }

func (e *writeError) Error() string { return e.msg }

// TestWriteCSVErrorPropagation: the CSV writer must surface the
// writer's error — from the header write and from a row write.
func TestWriteCSVErrorPropagation(t *testing.T) {
	s := NewSeries("p")
	s.Record(0, 1)
	s.Record(time.Second, 2)

	if err := WriteCSVMulti(&failAfter{n: 0}, s); err == nil {
		t.Fatal("multi header write error swallowed")
	}
	if err := WriteCSVMulti(&failAfter{n: len("t_seconds,p\n") + 3}, s); err == nil {
		t.Fatal("multi row write error swallowed")
	}
}
