package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzReadMsg: the reader takes exactly one message off the stream, in a
// buffer sized by the length it declared and never by more than
// maxMessage, and the writer turns what it returned back into the same
// bytes.
func FuzzReadMsg(f *testing.F) {
	for _, m := range goldenMsgs() {
		b := wantBytes(m.typ, m.ctx, m.payload)
		f.Add(b)
		f.Add(b[:len(b)/2])
		f.Add(append(b, b...))
	}
	f.Add([]byte{})
	f.Add([]byte{msgPing, 8, 0, 0})
	f.Add([]byte{msgSeed, 1, 0, 0, 0x40, 0xff})    // one byte over maxMessage
	f.Add([]byte{msgSeed, 0xff, 0xff, 0xff, 0xff}) // the uint32 a >4 GiB stream used to wrap to
	f.Add([]byte{msgCheckpoint, 0, 0, 0x10, 0, 1}) // 1 MiB declared, one byte sent

	f.Fuzz(func(t *testing.T, data []byte) {
		declared := -1
		if len(data) >= msgOverhead {
			declared = int(binary.LittleEndian.Uint32(data[1:]))
		}
		if declared > 1<<20 && declared <= maxMessage && declared > len(data) {
			t.Skip("a truncated message is read into a buffer of its declared length: legal, and too slow to fuzz at up to 1 GiB each")
		}
		r := bytes.NewReader(data)
		typ, payload, _, err := readMsg(r)
		if err != nil {
			switch {
			case declared < 0: // no header
			case declared > maxMessage:
				if r.Len() != len(data)-msgOverhead {
					t.Fatalf("an over-limit length of %d was followed by reading payload", declared)
				}
			case len(data)-msgOverhead >= declared:
				t.Fatalf("a complete %d-byte message was refused: %v", declared, err)
			}
			return
		}
		whole := data[:msgOverhead+declared]
		if typ != data[0] || !bytes.Equal(payload, whole[msgOverhead:]) || r.Len() != len(data)-len(whole) {
			t.Fatalf("read type 0x%02x and %d bytes with %d left over, from a %d-byte message in %d bytes",
				typ, len(payload), r.Len(), len(whole), len(data))
		}
		if declared > maxMessage || cap(payload) >= 2*declared && declared > 0 || declared == 0 && payload != nil {
			t.Fatalf("a message declaring %d bytes got a %d-byte buffer", declared, cap(payload))
		}
		var out bytes.Buffer
		if err := writeMsg(&out, typ, nil, payload); err != nil || !bytes.Equal(out.Bytes(), whole) {
			t.Fatalf("writeMsg did not reproduce the message: %v", err)
		}
		putPayload(payload)
	})
}

// FuzzDecodeHello: the hello parser never panics and accepts only the
// one encoding encodeHello produces.
func FuzzDecodeHello(f *testing.F) {
	valid := encodeHello(hello{Version: ProtocolVersion, WireVersion: wireVersion,
		Generation: 3, MemBytes: 1 << 20, AckedSeq: 8, TraceID: 0xfeed, Protection: "vm0"})
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(append(append([]byte(nil), valid...), 0))
	f.Add(valid[:8+2+2+8+8+8+8+2]) // empty name
	f.Add([]byte("HERETRNS"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := decodeHello(data)
		if err != nil {
			return
		}
		if h.Protection == "" || !bytes.Equal(encodeHello(h), data) {
			t.Fatalf("accepted a hello that does not re-encode to itself: %+v", h)
		}
	})
}

// FuzzDecodeAck: an ack is its 48 bytes or a typed size error.
func FuzzDecodeAck(f *testing.F) {
	valid := encodeAck(7, 0xfeed, ackStages{Recv: 1, Decode: 2, Apply: 3, Ack: 4})
	f.Add(valid)
	f.Add(valid[:ackSize-1])
	f.Add(u64payload(7))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		seq, span, st, err := decodeAck(data)
		if err != nil {
			var size ackSizeError
			if !errors.As(err, &size) || int(size) != len(data) || len(data) == ackSize {
				t.Fatalf("%d-byte ack: %v", len(data), err)
			}
			return
		}
		if !bytes.Equal(encodeAck(seq, span, st), data) {
			t.Fatal("accepted an ack that does not re-encode to itself")
		}
	})
}

// FuzzDecodeStream: a stream payload splits into its context and the
// rest, which aliases the input, and the writer puts the same bytes back
// behind a header.
func FuzzDecodeStream(f *testing.F) {
	for _, m := range goldenMsgs() {
		if m.ctx != nil {
			f.Add(wantBytes(m.typ, m.ctx, m.payload)[msgOverhead:])
		}
	}
	f.Add(make([]byte, streamCtxSize-1))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		ctx, stream, err := decodeStream(data)
		if err != nil {
			if len(data) >= streamCtxSize {
				t.Fatalf("%d-byte stream payload refused: %v", len(data), err)
			}
			return
		}
		if len(stream) != len(data)-streamCtxSize || len(stream) > 0 && &stream[0] != &data[streamCtxSize] {
			t.Fatalf("stream is %d bytes of a %d-byte payload, or a copy", len(stream), len(data))
		}
		var out bytes.Buffer
		if err := writeMsg(&out, msgCheckpoint, &ctx, stream); err != nil || !bytes.Equal(out.Bytes()[msgOverhead:], data) {
			t.Fatalf("writeMsg did not reproduce the payload: %v", err)
		}
	})
}
