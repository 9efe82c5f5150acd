package harness

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"time"
)

// Span is one timed call the benchmark made into a layer. Parent is the
// index of the span that caused it (-1 for a root); spans of one round
// share Round.
type Span struct {
	Name   string
	Round  int
	Parent int
	Start  time.Duration // since the recorder was created
	End    time.Duration
}

// Recorder keeps spans in memory and writes them out when the pass
// ends. It is used from the single driver goroutine only.
type Recorder struct {
	origin time.Time
	spans  []Span
	open   []int // stack of open span indices
	round  int
}

// NewRecorder returns a recorder with room for n spans.
func NewRecorder(n int) *Recorder {
	return &Recorder{origin: time.Now(), spans: make([]Span, 0, n)}
}

// SetRound tags the spans begun from now on.
func (r *Recorder) SetRound(round int) { r.round = round }

// Begin opens a span as a child of the innermost open span.
func (r *Recorder) Begin(name string) {
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, Span{
		Name: name, Round: r.round, Parent: parent, Start: time.Since(r.origin),
	})
	r.open = append(r.open, len(r.spans)-1)
}

// End closes the innermost open span and returns its duration.
func (r *Recorder) End() time.Duration {
	i := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	r.spans[i].End = time.Since(r.origin)
	return r.spans[i].End - r.spans[i].Start
}

// Spans returns the recorded spans in start order.
func (r *Recorder) Spans() []Span { return r.spans }

// LayerTime is one row of the per-layer table.
type LayerTime struct {
	Name  string
	Count int
	Total time.Duration // sum of span durations
	Self  time.Duration // Total minus the time covered by child spans
}

// SelfTimes aggregates spans by name. A span's self time is its
// duration minus the part of that interval its direct children cover
// (children never overlap: the recorder is single-threaded).
func SelfTimes(spans []Span) []LayerTime {
	child := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string]*LayerTime{}
	for i, s := range spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &LayerTime{Name: s.Name}
			byName[s.Name] = lt
		}
		d := s.End - s.Start
		lt.Count++
		lt.Total += d
		lt.Self += d - child[i]
	}
	out := make([]LayerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

type jsonSpan struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Round   int     `json:"round"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	Clock   string  `json:"clock"`
}

// WriteJSONL writes one JSON object per span.
func WriteJSONL(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, s := range spans {
		if err := enc.Encode(jsonSpan{
			ID: i, Parent: s.Parent, Round: s.Round, Name: s.Name,
			StartUS: float64(s.Start) / float64(time.Microsecond),
			EndUS:   float64(s.End) / float64(time.Microsecond),
			Clock:   "wall",
		}); err != nil {
			return err
		}
	}
	return bw.Flush()
}
