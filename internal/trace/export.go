package trace

import (
	"bufio"
	"encoding/json"
	"io"
	"time"
)

// JSONEvent is the exported (JSONL) form of one Event. Times are
// offsets from the tracer's start in microseconds, so traces recorded
// against the fixed-epoch virtual clock stay byte-for-byte
// reproducible.
type JSONEvent struct {
	Seq     uint64 `json:"seq"`
	TUs     int64  `json:"t_us"`
	Kind    string `json:"kind"`
	Epoch   int64  `json:"epoch"`
	DurUs   int64  `json:"dur_us,omitempty"`
	Engine  string `json:"engine,omitempty"`
	Shard   int    `json:"shard,omitempty"`
	Pages   int    `json:"pages,omitempty"`
	Bytes   int64  `json:"bytes,omitempty"`
	Outcome string `json:"outcome,omitempty"`
	Note    string `json:"note,omitempty"`
}

// KindFromString resolves an exported kind name ("pause", "remote-apply",
// …) back to its Kind, for consumers (herectl timeline) that rebuild
// Events from a JSONL trace; ok is false for unknown names.
func KindFromString(name string) (Kind, bool) {
	for k := SpanPause; k < kindEnd; k++ {
		if kindNames[k] == name {
			return k, true
		}
	}
	return 0, false
}

// WriteJSONL writes the tracer's events as one JSON object per line,
// oldest first, followed by nothing else — the stream is grep- and
// jq-friendly. The tracer keeps its events; exporting does not drain.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	return WriteJSONL(w, t.start, t.Events())
}

// WriteJSONL writes events as JSONL with times offset from start.
func WriteJSONL(w io.Writer, start time.Time, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range events {
		je := JSONEvent{
			Seq:     ev.Seq,
			TUs:     ev.Start.Sub(start).Microseconds(),
			Kind:    ev.Kind.String(),
			Epoch:   ev.Epoch,
			DurUs:   ev.Dur.Microseconds(),
			Engine:  ev.Engine,
			Shard:   ev.Shard,
			Pages:   ev.Pages,
			Bytes:   ev.Bytes,
			Outcome: ev.Outcome,
			Note:    ev.Note,
		}
		if err := enc.Encode(je); err != nil {
			return err
		}
	}
	return bw.Flush()
}
