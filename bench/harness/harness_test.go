package harness

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{50, 3}, {90, 5}, {100, 5}, {1, 1}, {20, 1}, {21, 2}} {
		if got := Percentile(s, c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if s[0] != 5 {
		t.Error("Percentile sorted its input")
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("Percentile of nothing is not NaN")
	}
}

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// statistics.median / statistics.quantiles(v, n=4) of the same lists.
	v := []float64{10, 12, 11, 15, 14, 13, 19, 17, 16, 18}
	if got := Median(v); got != 14.5 {
		t.Errorf("Median = %v, want 14.5", got)
	}
	q1, q3 := Quartiles(v)
	if q1 != 11.75 || q3 != 17.25 {
		t.Errorf("Quartiles = %v, %v, want 11.75, 17.25", q1, q3)
	}
	if got, want := Spread(v), (17.25-11.75)/14.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("Spread = %v, want %v", got, want)
	}
	if got := Spread(v[:1]); got != 0 {
		t.Errorf("Spread of one sample = %v, want 0", got)
	}
	q1, q3 = Quartiles([]float64{1, 2, 4})
	if q1 != 1 || q3 != 4 {
		t.Errorf("Quartiles(1,2,4) = %v, %v, want 1, 4", q1, q3)
	}
	q1, q3 = Quartiles([]float64{3, 1})
	if q1 != 0.5 || q3 != 3.5 { // Python extrapolates past a two-point sample
		t.Errorf("Quartiles(1,3) = %v, %v, want 0.5, 3.5", q1, q3)
	}
}

func TestSamples(t *testing.T) {
	s := NewSamples(4)
	for _, ms := range []int{3, 1, 2, 10} {
		s.Add(time.Duration(ms) * time.Millisecond)
	}
	if s.Len() != 4 || s.Sum() != 16*time.Millisecond {
		t.Fatalf("Len %d Sum %v", s.Len(), s.Sum())
	}
	if got := s.P(50, time.Millisecond); got != 2 {
		t.Errorf("P50 = %v ms, want 2", got)
	}
	if got := s.Mean(time.Microsecond); got != 4000 {
		t.Errorf("Mean = %v us, want 4000", got)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{Name: "round", Parent: -1, Start: 0, End: 100 * ms},
		{Name: "tick", Parent: 0, Start: 10 * ms, End: 70 * ms},
		{Name: "probe", Parent: 1, Start: 20 * ms, End: 30 * ms},
		{Name: "probe", Parent: 1, Start: 30 * ms, End: 45 * ms},
		{Name: "api", Parent: 0, Start: 70 * ms, End: 90 * ms},
	}
	got := map[string]LayerTime{}
	for _, lt := range SelfTimes(spans) {
		got[lt.Name] = lt
	}
	want := map[string]LayerTime{
		"round": {Name: "round", Count: 1, Total: 100 * ms, Self: 20 * ms},
		"tick":  {Name: "tick", Count: 1, Total: 60 * ms, Self: 35 * ms},
		"probe": {Name: "probe", Count: 2, Total: 25 * ms, Self: 25 * ms},
		"api":   {Name: "api", Count: 1, Total: 20 * ms, Self: 20 * ms},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
}

func TestRecorderNestsAndExports(t *testing.T) {
	r := NewRecorder(8)
	r.SetRound(7)
	r.Begin("round")
	r.Begin("tick")
	if d := r.End(); d < 0 {
		t.Errorf("negative duration %v", d)
	}
	r.End()
	sp := r.Spans()
	if len(sp) != 2 || sp[0].Parent != -1 || sp[1].Parent != 0 || sp[1].Round != 7 {
		t.Fatalf("spans = %+v", sp)
	}
	if sp[1].Start < sp[0].Start || sp[1].End > sp[0].End {
		t.Errorf("child not inside parent: %+v", sp)
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, sp); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 || !strings.Contains(lines[1], `"name":"tick"`) || !strings.Contains(lines[1], `"parent":0`) {
		t.Errorf("JSONL = %q", buf.String())
	}
}

func TestPageGenIsDeterministic(t *testing.T) {
	a, b, c := NewPageGen(42), NewPageGen(42), NewPageGen(43)
	differs := false
	for i := 0; i < 20; i++ {
		pa, pb, pc := a.Page(), b.Page(), c.Page()
		if len(pa) != PageBytes || !bytes.Equal(pa, pb) {
			t.Fatalf("draw %d: same seed gave different pages", i)
		}
		differs = differs || !bytes.Equal(pa, pc)
		if sa, sb := a.Small(), b.Small(); len(sa) != 64 || !bytes.Equal(sa, sb) {
			t.Fatalf("draw %d: same seed gave different stores", i)
		}
	}
	if !differs {
		t.Error("different seeds gave the same pages")
	}
}

func TestPageGenNeverRepeatsAStore(t *testing.T) {
	g := NewPageGen(42)
	pages, smalls := map[string]bool{}, map[string]bool{}
	for i := 0; i < 3*PoolPages; i++ {
		pages[string(g.Page())] = true
		smalls[string(g.Small())] = true
	}
	if len(pages) != 3*PoolPages || len(smalls) != 3*PoolPages {
		t.Errorf("%d distinct pages and %d distinct stores of %d draws each", len(pages), len(smalls), 3*PoolPages)
	}
}

func TestPageWalkCoversRangeBeforeRepeating(t *testing.T) {
	w, again := NewPageWalk(7, 100, 164), NewPageWalk(7, 100, 164)
	for cycle := 0; cycle < 2; cycle++ {
		seen := map[uint64]bool{}
		for i := 0; i < 64; i++ {
			p := w.Next()
			if p != again.Next() {
				t.Fatal("same seed gave a different walk")
			}
			if p < 100 || p >= 164 || seen[p] {
				t.Fatalf("cycle %d draw %d: page %d out of range or repeated", cycle, i, p)
			}
			seen[p] = true
		}
	}
}

func TestCPUTimeAdvancesWithWork(t *testing.T) {
	before, err := CPUTime()
	if err != nil {
		t.Fatal(err)
	}
	x := 0
	for start := time.Now(); time.Since(start) < 50*time.Millisecond; {
		x++
	}
	after, err := CPUTime()
	if err != nil {
		t.Fatal(err)
	}
	if delta := after - before; delta < 10*time.Millisecond || delta > 5*time.Second {
		t.Errorf("50 ms of spinning (%d iterations) cost %v of CPU", x, delta)
	}
	if rss, err := PeakRSSBytes(); err != nil || rss <= 0 {
		t.Errorf("PeakRSSBytes = %d, %v", rss, err)
	}
}

func TestSinkCountsAndResets(t *testing.T) {
	s := NewSink()
	s.Header().Set("Content-Type", "application/json")
	s.WriteHeader(201)
	s.Write([]byte("hello"))
	if !s.OK() || s.Code != 201 || s.Bytes != 5 {
		t.Errorf("sink = %+v", s)
	}
	s.Reset()
	if s.Code != 0 || s.Bytes != 0 || len(s.Header()) != 0 {
		t.Errorf("after Reset: %+v", s)
	}
	s.Write([]byte("x"))
	if s.Code != 200 {
		t.Errorf("implicit status = %d", s.Code)
	}
	s.Reset()
	s.WriteHeader(404)
	if s.OK() {
		t.Error("404 counted as OK")
	}
}
