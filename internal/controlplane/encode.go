package controlplane

import (
	"cmp"
	"encoding/json"
	"math"
	"net/http"
	"reflect"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"unicode/utf8"

	"github.com/here-ft/here/internal/orchestrator"
	"github.com/here-ft/here/internal/placement"
)

// The VMStatus encoder renders exactly what json.Marshal renders for the
// same value — field order, omitempty and nil-slice rules, HTML-safe
// string escaping, float formatting — without reflection: a fleet read
// is served at the cost of its bytes. FuzzVMStatusJSON holds it to
// encoding/json byte for byte; a field added to VMStatus or one of its
// DTOs must be added here too.

// appendVMStatus appends the JSON object of v. It fails only where
// encoding/json fails: on a NaN or infinite float.
func appendVMStatus(dst []byte, v *VMStatus) ([]byte, error) {
	if err := floatErr(v); err != nil {
		return dst, err
	}
	dst = append(dst, `{"name":`...)
	dst = appendString(dst, v.Name)
	dst = append(dst, `,"generation":`...)
	dst = strconv.AppendInt(dst, int64(v.Generation), 10)
	dst = append(dst, `,"mode":`...)
	dst = appendString(dst, v.Mode)
	dst = append(dst, `,"running":`...)
	dst = strconv.AppendBool(dst, v.Running)
	dst = append(dst, `,"epoch":`...)
	dst = strconv.AppendUint(dst, v.Epoch, 10)
	dst = append(dst, `,"period_ms":`...)
	dst = strconv.AppendInt(dst, v.PeriodMS, 10)
	dst = append(dst, `,"degradation_budget":`...)
	dst = appendFloat(dst, v.Budget)
	dst = append(dst, `,"max_period_ms":`...)
	dst = strconv.AppendInt(dst, v.MaxPeriod, 10)
	dst = append(dst, `,"primary":`...)
	dst = appendHost(dst, &v.Primary)
	if v.Secondary != nil {
		dst = append(dst, `,"secondary":`...)
		dst = appendHost(dst, v.Secondary)
	}
	if len(v.Secondaries) > 0 {
		dst = append(dst, `,"secondaries":[`...)
		for i := range v.Secondaries {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendHost(dst, &v.Secondaries[i])
		}
		dst = append(dst, ']')
	}
	if v.Want != 0 {
		dst = append(dst, `,"want":`...)
		dst = strconv.AppendInt(dst, int64(v.Want), 10)
	}
	if v.Quorum != 0 {
		dst = append(dst, `,"quorum":`...)
		dst = strconv.AppendInt(dst, int64(v.Quorum), 10)
	}
	if len(v.Legs) > 0 {
		dst = append(dst, `,"legs":[`...)
		for i := range v.Legs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendLeg(dst, &v.Legs[i])
		}
		dst = append(dst, ']')
	}
	if v.Placement != nil {
		dst = append(dst, `,"placement":`...)
		dst = appendDecision(dst, v.Placement)
	}
	if p := v.RecoveryPolicy; p != nil {
		dst = append(dst, `,"recovery_policy":{"deadline_ms":`...)
		dst = strconv.AppendInt(dst, p.DeadlineMS, 10)
		dst = append(dst, `,"max_attempts":`...)
		dst = strconv.AppendInt(dst, int64(p.MaxAttempts), 10)
		dst = append(dst, `,"backoff_ms":`...)
		dst = strconv.AppendInt(dst, p.BackoffMS, 10)
		dst = append(dst, `,"jitter":`...)
		dst = appendFloat(dst, p.Jitter)
		dst = append(dst, '}')
	}
	dst = append(dst, `,"checkpoints":`...)
	dst = strconv.AppendUint(dst, v.Checkpoints, 10)
	dst = append(dst, `,"pages_sent":`...)
	dst = strconv.AppendInt(dst, v.PagesSent, 10)
	dst = append(dst, `,"bytes_sent":`...)
	dst = strconv.AppendInt(dst, v.BytesSent, 10)
	r := &v.Recovery
	dst = append(dst, `,"recovery":{"retries":`...)
	dst = strconv.AppendInt(dst, r.Retries, 10)
	dst = append(dst, `,"rollbacks":`...)
	dst = strconv.AppendInt(dst, r.Rollbacks, 10)
	dst = append(dst, `,"degraded_entries":`...)
	dst = strconv.AppendInt(dst, r.DegradedEntries, 10)
	dst = append(dst, `,"resyncs":`...)
	dst = strconv.AppendInt(dst, r.Resyncs, 10)
	dst = append(dst, `,"resync_pages":`...)
	dst = strconv.AppendInt(dst, r.ResyncPages, 10)
	dst = append(dst, `,"resync_bytes":`...)
	dst = strconv.AppendInt(dst, r.ResyncBytes, 10)
	dst = append(dst, `,"protected_ms":`...)
	dst = strconv.AppendInt(dst, r.ProtectedMS, 10)
	dst = append(dst, `,"degraded_ms":`...)
	dst = strconv.AppendInt(dst, r.DegradedMS, 10)
	dst = append(dst, `,"resync_ms":`...)
	dst = strconv.AppendInt(dst, r.ResyncMS, 10)
	dst = append(dst, `},"wire":{"raw_bytes":`...)
	dst = strconv.AppendInt(dst, v.Wire.RawBytes, 10)
	dst = append(dst, `,"encoded_bytes":`...)
	dst = strconv.AppendInt(dst, v.Wire.EncodedBytes, 10)
	dst = append(dst, `,"ratio":`...)
	dst = appendFloat(dst, v.Wire.Ratio)
	return append(dst, "}}"...), nil
}

// floatErr returns the error encoding/json reports for v: the first
// float, in field order, that JSON cannot carry.
func floatErr(v *VMStatus) error {
	if err := checkFloat(v.Budget); err != nil {
		return err
	}
	if d := v.Placement; d != nil {
		if err := checkFloat(d.Primary.Score); err != nil {
			return err
		}
		for i := range d.Secondaries {
			if err := checkFloat(d.Secondaries[i].Score); err != nil {
				return err
			}
		}
	}
	if p := v.RecoveryPolicy; p != nil {
		if err := checkFloat(p.Jitter); err != nil {
			return err
		}
	}
	return checkFloat(v.Wire.Ratio)
}

func checkFloat(f float64) error {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	return nil
}

func appendHost(dst []byte, h *HostDTO) []byte {
	dst = append(dst, `{"name":`...)
	dst = appendString(dst, h.Name)
	dst = append(dst, `,"kind":`...)
	dst = appendString(dst, h.Kind)
	dst = append(dst, `,"product":`...)
	dst = appendString(dst, h.Product)
	dst = append(dst, `,"health":`...)
	dst = appendString(dst, h.Health)
	if h.Reason != "" {
		dst = append(dst, `,"reason":`...)
		dst = appendString(dst, h.Reason)
	}
	dst = append(dst, `,"vms":`...)
	dst = strconv.AppendInt(dst, int64(h.VMs), 10)
	return append(dst, '}')
}

func appendLeg(dst []byte, l *LegDTO) []byte {
	dst = append(dst, `{"index":`...)
	dst = strconv.AppendInt(dst, int64(l.Index), 10)
	dst = append(dst, `,"host":`...)
	dst = appendString(dst, l.Host)
	dst = append(dst, `,"product":`...)
	dst = appendString(dst, l.Product)
	dst = append(dst, `,"acked_epoch":`...)
	dst = strconv.AppendUint(dst, l.AckedEpoch, 10)
	dst = append(dst, `,"pending_pages":`...)
	dst = strconv.AppendInt(dst, int64(l.PendingPages), 10)
	if l.NeedsSeed {
		dst = append(dst, `,"needs_seed":true`...)
	}
	if l.Dead {
		dst = append(dst, `,"dead":true`...)
	}
	if l.DeadCause != "" {
		dst = append(dst, `,"dead_cause":`...)
		dst = appendString(dst, l.DeadCause)
	}
	return append(dst, '}')
}

// appendDecision renders a placement rationale. Unlike VMStatus's
// slices, Decision.Secondaries has no omitempty: nil is null.
func appendDecision(dst []byte, d *placement.Decision) []byte {
	dst = append(dst, `{"primary":`...)
	dst = appendChoice(dst, &d.Primary)
	dst = append(dst, `,"secondaries":`...)
	if d.Secondaries == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range d.Secondaries {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendChoice(dst, &d.Secondaries[i])
		}
		dst = append(dst, ']')
	}
	if len(d.Rejections) > 0 {
		dst = append(dst, `,"rejections":[`...)
		for i := range d.Rejections {
			r := &d.Rejections[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"host":`...)
			dst = appendString(dst, r.Host)
			dst = append(dst, `,"flavor":`...)
			dst = appendString(dst, string(r.Flavor))
			dst = append(dst, `,"reason":`...)
			dst = appendString(dst, string(r.Reason))
			if r.Overlap != 0 {
				dst = append(dst, `,"overlap":`...)
				dst = strconv.AppendInt(dst, int64(r.Overlap), 10)
			}
			if r.Detail != "" {
				dst = append(dst, `,"detail":`...)
				dst = appendString(dst, r.Detail)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if d.Shortfall != 0 {
		dst = append(dst, `,"shortfall":`...)
		dst = strconv.AppendInt(dst, int64(d.Shortfall), 10)
	}
	return append(dst, '}')
}

func appendChoice(dst []byte, c *placement.Choice) []byte {
	dst = append(dst, `{"host":`...)
	dst = appendString(dst, c.Host)
	dst = append(dst, `,"flavor":`...)
	dst = appendString(dst, string(c.Flavor))
	dst = append(dst, `,"overlap":`...)
	dst = strconv.AppendInt(dst, int64(c.Overlap), 10)
	dst = append(dst, `,"load":`...)
	dst = strconv.AppendInt(dst, int64(c.Load), 10)
	dst = append(dst, `,"score":`...)
	dst = appendFloat(dst, c.Score)
	if c.Warm {
		dst = append(dst, `,"warm":true`...)
	}
	return append(dst, '}')
}

// appendFloat formats a finite f as encoding/json does: like
// strconv's shortest 'f', switching to 'e' below 1e-6 and from 1e21,
// with the exponent's leading zero dropped (1e-07 → 1e-7).
func appendFloat(dst []byte, f float64) []byte {
	// An integral value below 2^53 prints as its integer digits; -0
	// keeps its sign, so it takes the general path.
	if i := int64(f); float64(i) == f && i > -1<<53 && i < 1<<53 && (i != 0 || !math.Signbit(f)) {
		return strconv.AppendInt(dst, i, 10)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// appendString quotes s as encoding/json does with HTML escaping on:
// <, > and & become \u003c, \u003e and \u0026, U+2028 and U+2029 are
// escaped, and each byte of invalid UTF-8 becomes \ufffd.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if htmlSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

const hexDigits = "0123456789abcdef"

// htmlSafe marks the ASCII bytes that go into a JSON string as they
// are: printable, and none of " \ < > &.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for b := byte(' '); b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return t
}()

// maxPooledBody caps the response buffers kept for reuse: a larger
// body (a fleet of several thousand protections) is left to the GC, so
// the pool never pins more than this per buffer.
const maxPooledBody = 1 << 20

var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// writeVMStatus answers st as a VMStatus.
func writeVMStatus(w http.ResponseWriter, code int, st orchestrator.Status) {
	writeEncoded(w, code, func(buf []byte) ([]byte, error) {
		v := toVMStatus(st)
		return appendVMStatus(buf, &v)
	})
}

// writeVMList answers all as the VMList collection, converting every
// row into one reused VMStatus. The body is sized once, after its first
// row, at the last list's size (held in size) or that row's times the
// rows: growing a list of thousands of rows from small copies it over.
func writeVMList(w http.ResponseWriter, all []orchestrator.Status, size *atomic.Int64) {
	writeEncoded(w, http.StatusOK, func(buf []byte) ([]byte, error) {
		buf = append(buf, `{"vms":[`...)
		var v VMStatus
		for i := range all {
			if i > 0 {
				buf = append(buf, ',')
			}
			v.fill(&all[i])
			var err error
			if buf, err = appendVMStatus(buf, &v); err != nil {
				return buf, err
			}
			if i == 0 {
				est := cmp.Or(int(size.Load()), len(buf)*len(all))
				buf = slices.Grow(buf, est+est/32)
			}
		}
		buf = append(buf, "]}"...)
		size.Store(int64(len(buf)))
		return buf, nil
	})
}

// writeEncoded answers the JSON value enc appends, built in one pooled
// buffer and sent with one Write: the bytes writeJSON sends for the
// same value, trailing newline included.
func writeEncoded(w http.ResponseWriter, code int, enc func([]byte) ([]byte, error)) {
	bp := bodyPool.Get().(*[]byte)
	buf, err := enc((*bp)[:0])
	if err == nil {
		buf = append(buf, '\n')
		writeBody(w, code, buf)
	} else {
		writeError(w, err)
	}
	if cap(buf) <= maxPooledBody {
		*bp = buf
		bodyPool.Put(bp)
	}
}
