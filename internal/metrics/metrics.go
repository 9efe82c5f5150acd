// Package metrics provides the small measurement toolkit shared by the
// HERE engines and the experiment harness: summary statistics, time
// series, histograms and text table rendering for paper-style output.
package metrics

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// Timeline records labeled state transitions against a clock and
// accumulates the time spent in each state. The replication engine
// uses one to account protection modes (protected/degraded/resyncing),
// from which availability statistics are derived. It is safe for
// concurrent use.
type Timeline struct {
	mu          sync.Mutex
	current     string
	since       time.Time
	totals      map[string]time.Duration
	transitions int
}

// NewTimeline returns a timeline in the given initial state.
func NewTimeline(start time.Time, initial string) *Timeline {
	return &Timeline{
		current: initial,
		since:   start,
		totals:  make(map[string]time.Duration),
	}
}

// Current reports the present state.
func (t *Timeline) Current() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.current
}

// Transitions reports how many state changes were recorded.
func (t *Timeline) Transitions() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.transitions
}

// Transition moves the timeline into state at now, closing the open
// interval. Transitioning into the current state is a no-op. A state
// entered and left at the same instant still appears in Totals with a
// zero duration: the boundary test is !now.Before(since), so only a
// clock running backwards skips accounting.
func (t *Timeline) Transition(now time.Time, state string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if state == t.current {
		return
	}
	if !now.Before(t.since) {
		t.totals[t.current] += now.Sub(t.since)
	}
	t.current = state
	t.since = now
	t.transitions++
}

// Time reports the cumulative duration spent in state, including the
// open interval up to now.
func (t *Timeline) Time(now time.Time, state string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	d := t.totals[state]
	if state == t.current && !now.Before(t.since) {
		d += now.Sub(t.since)
	}
	return d
}

// Totals reports the cumulative duration per state, including the open
// interval up to now. The current state is always present, even when
// it was entered at now itself.
func (t *Timeline) Totals(now time.Time) map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]time.Duration, len(t.totals)+1)
	for s, d := range t.totals {
		out[s] = d
	}
	if !now.Before(t.since) {
		out[t.current] += now.Sub(t.since)
	}
	return out
}

// Summary accumulates scalar observations and reports basic statistics.
// The zero value is ready to use. Summary is not safe for concurrent use.
//
// Observations live in two parts: a sorted prefix and a small unsorted
// tail of values added since the last Percentile call. Percentile sorts
// only the tail and merges it into the prefix — O(k log k + n) for k new
// values over n old ones — so callers interleaving Add and Percentile
// (the dynamic period controller does, every cycle) never pay a full
// re-sort of the history.
type Summary struct {
	sorted  []float64 // sorted prefix
	pending []float64 // values added since the last merge
}

// Add records one observation.
func (s *Summary) Add(v float64) {
	s.pending = append(s.pending, v)
}

// AddDuration records a duration observation in seconds.
func (s *Summary) AddDuration(d time.Duration) { s.Add(d.Seconds()) }

// N reports the number of observations.
func (s *Summary) N() int { return len(s.sorted) + len(s.pending) }

// Sum reports the sum of all observations.
func (s *Summary) Sum() float64 {
	var sum float64
	for _, v := range s.sorted {
		sum += v
	}
	for _, v := range s.pending {
		sum += v
	}
	return sum
}

// Mean reports the arithmetic mean, or 0 with no observations.
func (s *Summary) Mean() float64 {
	if s.N() == 0 {
		return 0
	}
	return s.Sum() / float64(s.N())
}

// Min reports the smallest observation, or 0 with no observations.
func (s *Summary) Min() float64 {
	if s.N() == 0 {
		return 0
	}
	var m float64
	set := false
	if len(s.sorted) > 0 {
		m, set = s.sorted[0], true
	}
	for _, v := range s.pending {
		if !set || v < m {
			m, set = v, true
		}
	}
	return m
}

// Max reports the largest observation, or 0 with no observations.
func (s *Summary) Max() float64 {
	if s.N() == 0 {
		return 0
	}
	var m float64
	set := false
	if len(s.sorted) > 0 {
		m, set = s.sorted[len(s.sorted)-1], true
	}
	for _, v := range s.pending {
		if !set || v > m {
			m, set = v, true
		}
	}
	return m
}

// Stddev reports the population standard deviation.
func (s *Summary) Stddev() float64 {
	n := s.N()
	if n == 0 {
		return 0
	}
	mean := s.Mean()
	var acc float64
	for _, v := range s.sorted {
		d := v - mean
		acc += d * d
	}
	for _, v := range s.pending {
		d := v - mean
		acc += d * d
	}
	return math.Sqrt(acc / float64(n))
}

// merge folds the pending tail into the sorted prefix: sort the k new
// values, then a single linear merge pass. Cost is O(k log k + n),
// against O((n+k) log (n+k)) for re-sorting everything.
func (s *Summary) merge() {
	if len(s.pending) == 0 {
		return
	}
	sort.Float64s(s.pending)
	if len(s.sorted) == 0 {
		s.sorted = append(s.sorted, s.pending...)
		s.pending = s.pending[:0]
		return
	}
	merged := make([]float64, 0, len(s.sorted)+len(s.pending))
	i, j := 0, 0
	for i < len(s.sorted) && j < len(s.pending) {
		if s.sorted[i] <= s.pending[j] {
			merged = append(merged, s.sorted[i])
			i++
		} else {
			merged = append(merged, s.pending[j])
			j++
		}
	}
	merged = append(merged, s.sorted[i:]...)
	merged = append(merged, s.pending[j:]...)
	s.sorted = merged
	s.pending = s.pending[:0]
}

// Percentile reports the p-th percentile (0 ≤ p ≤ 100), interpolated
// linearly between the two closest ranks at p/100 × (n−1) of the sorted
// observations, or 0 with no observations. Values added
// since the last call are merged in first (see Summary's cost note);
// with nothing pending the call is a pure read.
func (s *Summary) Percentile(p float64) float64 {
	s.merge()
	n := len(s.sorted)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return s.sorted[0]
	}
	if p >= 100 {
		return s.sorted[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.sorted[lo]
	}
	frac := rank - float64(lo)
	return s.sorted[lo]*(1-frac) + s.sorted[hi]*frac
}

// Point is one sample of a time series.
type Point struct {
	T time.Duration // offset from the start of the experiment
	V float64
}

// Series is an append-only time series, used for the Fig 9/10 traces
// (checkpoint period and instantaneous degradation over time).
type Series struct {
	Name   string
	Points []Point
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Record appends a sample.
func (s *Series) Record(t time.Duration, v float64) {
	s.Points = append(s.Points, Point{T: t, V: v})
}

// Len reports the number of samples.
func (s *Series) Len() int { return len(s.Points) }

// At reports the value of the latest sample at or before t, or 0 if the
// series has no sample that early. Record appends in ascending T order,
// so the lookup binary-searches rather than scanning — the Fig 9/10
// renderers call At once per plotted point over traces with thousands
// of samples.
func (s *Series) At(t time.Duration) float64 {
	i := sort.Search(len(s.Points), func(i int) bool { return s.Points[i].T > t })
	if i == 0 {
		return 0
	}
	return s.Points[i-1].V
}

// MeanBetween reports the mean of samples with lo ≤ T ≤ hi.
func (s *Series) MeanBetween(lo, hi time.Duration) float64 {
	var sum float64
	var n int
	for _, p := range s.Points {
		if p.T < lo || p.T > hi {
			continue
		}
		sum += p.V
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// LinearFit fits y = a*x + b by least squares over (x, y) pairs and
// reports the slope a, the intercept b, and the coefficient of
// determination r². It reports r² = 0 for fewer than two points.
func LinearFit(xs, ys []float64) (slope, intercept, r2 float64) {
	n := len(xs)
	if n != len(ys) || n < 2 {
		return 0, 0, 0
	}
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return 0, my, 0
	}
	slope = sxy / sxx
	intercept = my - slope*mx
	if syy == 0 {
		return slope, intercept, 1
	}
	r2 = sxy * sxy / (sxx * syy)
	return slope, intercept, r2
}

// Table renders aligned text tables in the style of the paper's tables,
// for the bench harness output.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case time.Duration:
			row[i] = v.String()
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// NumRows reports the number of data rows added so far.
func (t *Table) NumRows() int { return len(t.rows) }

func formatFloat(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e9:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// String renders the table as aligned text.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	total := len(t.Headers) - 1
	for _, w := range widths {
		total += w + 1
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// WriteCSV writes the series as "seconds,value" rows with a header.
func (s *Series) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "t_seconds,%s\n", s.Name); err != nil {
		return err
	}
	for _, p := range s.Points {
		if _, err := fmt.Fprintf(w, "%.3f,%g\n", p.T.Seconds(), p.V); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSVMulti writes several series sharing a time axis as one CSV:
// each row is the latest value of every series at one sample instant
// (the union of all sample times). Unlike Series.At, it does not
// require samples in ascending order: each series is viewed through a
// stable sort, so out-of-order recordings land on the right row and
// the last-recorded value wins among duplicate instants.
func WriteCSVMulti(w io.Writer, series ...*Series) error {
	if len(series) == 0 {
		return errors.New("metrics: no series")
	}
	names := make([]string, len(series))
	views := make([][]Point, len(series))
	times := map[time.Duration]bool{}
	for i, s := range series {
		names[i] = s.Name
		pts := append([]Point(nil), s.Points...)
		sort.SliceStable(pts, func(a, b int) bool { return pts[a].T < pts[b].T })
		views[i] = pts
		for _, p := range pts {
			times[p.T] = true
		}
	}
	sorted := make([]time.Duration, 0, len(times))
	for t := range times {
		sorted = append(sorted, t)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	at := func(pts []Point, t time.Duration) float64 {
		i := sort.Search(len(pts), func(i int) bool { return pts[i].T > t })
		if i == 0 {
			return 0
		}
		return pts[i-1].V
	}
	if _, err := fmt.Fprintf(w, "t_seconds,%s\n", strings.Join(names, ",")); err != nil {
		return err
	}
	for _, t := range sorted {
		cells := make([]string, 0, len(series)+1)
		cells = append(cells, fmt.Sprintf("%.3f", t.Seconds()))
		for i := range series {
			cells = append(cells, fmt.Sprintf("%g", at(views[i], t)))
		}
		if _, err := fmt.Fprintln(w, strings.Join(cells, ",")); err != nil {
			return err
		}
	}
	return nil
}
