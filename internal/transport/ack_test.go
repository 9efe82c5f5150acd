package transport

import (
	"errors"
	"testing"
	"time"
)

// TestDecodeAck: every ack is the 48-byte form encodeAck writes. Any
// other length — including the bare 8-byte epoch of protocol v1, which
// no peer has ever sent — is a typed error that kills the session.
func TestDecodeAck(t *testing.T) {
	stages := ackStages{Recv: time.Millisecond, Decode: 2 * time.Millisecond, Apply: 3, Ack: 4}
	full := encodeAck(7, 0xfeed, stages)
	for _, tc := range []struct {
		name    string
		payload []byte
		bad     bool
	}{
		{"v2 ack", full, false},
		{"empty", nil, true},
		{"v1 bare epoch", u64payload(7), true},
		{"truncated", full[:ackSize-1], true},
		{"trailing byte", append(append([]byte(nil), full...), 0), true},
	} {
		seq, span, st, err := decodeAck(tc.payload)
		var size ackSizeError
		switch {
		case tc.bad && (!errors.As(err, &size) || int(size) != len(tc.payload)):
			t.Errorf("%s: err = %v, want an ackSizeError of %d", tc.name, err, len(tc.payload))
		case !tc.bad && (err != nil || seq != 7 || span != 0xfeed || st != stages):
			t.Errorf("%s: decoded %d, %#x, %+v, %v", tc.name, seq, span, st, err)
		}
	}
}
