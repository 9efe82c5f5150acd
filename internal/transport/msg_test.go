package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/wire"
)

// wantBytes is a message as the retired writeMsg + encodeStream pair put
// it on the wire: type ‖ len ‖ [seq ‖ gen ‖ span] ‖ payload.
func wantBytes(typ byte, ctx *streamCtx, payload []byte) []byte {
	var body []byte
	if ctx != nil {
		body = binary.LittleEndian.AppendUint64(body, ctx.Seq)
		body = binary.LittleEndian.AppendUint64(body, ctx.Gen)
		body = binary.LittleEndian.AppendUint64(body, ctx.SpanID)
	}
	body = append(body, payload...)
	out := []byte{typ}
	out = binary.LittleEndian.AppendUint32(out, uint32(len(body)))
	return append(out, body...)
}

// goldenMsg is one message handed to the writer.
type goldenMsg struct {
	name    string
	typ     byte
	ctx     *streamCtx
	payload []byte
}

// goldenMsgs is one message of each shape the writer serves.
func goldenMsgs() []goldenMsg {
	stream := bytes.Repeat([]byte{0xc5, 0x01, 0x7e}, 40<<10) // 120 KiB: more than one socket write
	return []goldenMsg{
		{"ping", msgPing, nil, u64payload(9)},
		{"ack", msgAck, nil, encodeAck(7, 0xfeed, ackStages{Recv: 1, Decode: 2, Apply: 3, Ack: 4})},
		{"empty", msgError, nil, nil},
		{"checkpoint", msgCheckpoint, &streamCtx{Seq: 7, Gen: 3, SpanID: 0xabcdef}, stream},
		{"seed", msgSeed, &streamCtx{Seq: 1, Gen: 1 << 40, SpanID: 1}, stream[:4097]},
		{"empty stream", msgCheckpoint, &streamCtx{Seq: 2}, nil},
	}
}

// TestWriteMsgGolden: the bytes on the wire are the ones protocol v2
// always carried, on the writev path of a TCP connection and on the
// sequential-write path of any other writer — no version bump needed.
func TestWriteMsgGolden(t *testing.T) {
	t.Run("io.Writer", func(t *testing.T) {
		for _, m := range goldenMsgs() {
			var buf bytes.Buffer
			if err := writeMsg(&buf, m.typ, m.ctx, m.payload); err != nil {
				t.Fatalf("%s: %v", m.name, err)
			}
			if !bytes.Equal(buf.Bytes(), wantBytes(m.typ, m.ctx, m.payload)) {
				t.Errorf("%s: wrote %d bytes that differ from type‖len‖[ctx]‖payload", m.name, buf.Len())
			}
		}
	})
	t.Run("tcp", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		got := make(chan []byte, 1)
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				got <- nil
				return
			}
			defer conn.Close()
			b, _ := io.ReadAll(conn)
			got <- b
		}()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := conn.(*net.TCPConn); !ok {
			t.Fatalf("dialed a %T, the writev path needs a *net.TCPConn", conn)
		}
		var want []byte
		for _, m := range goldenMsgs() {
			payload := append([]byte(nil), m.payload...)
			if err := writeMsg(conn, m.typ, m.ctx, m.payload); err != nil {
				t.Fatalf("%s: %v", m.name, err)
			}
			if !bytes.Equal(payload, m.payload) {
				t.Fatalf("%s: the writer changed the caller's payload", m.name)
			}
			want = append(want, wantBytes(m.typ, m.ctx, m.payload)...)
		}
		conn.Close()
		if b := <-got; !bytes.Equal(b, want) {
			t.Errorf("peer read %d bytes, want the %d golden ones", len(b), len(want))
		}
	})
}

// TestReadMsgRoundTrip: the one reader returns what the one writer
// wrote, for every shape, back to back on one stream.
func TestReadMsgRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	for _, m := range goldenMsgs() {
		if err := writeMsg(&buf, m.typ, m.ctx, m.payload); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range goldenMsgs() {
		typ, payload, _, err := readMsg(&buf)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if want := wantBytes(m.typ, m.ctx, m.payload)[msgOverhead:]; typ != m.typ || !bytes.Equal(payload, want) {
			t.Errorf("%s: read type 0x%02x and %d bytes, want 0x%02x and %d", m.name, typ, len(payload), m.typ, len(want))
		}
		if m.ctx != nil {
			ctx, stream, err := decodeStream(payload)
			if err != nil || ctx != *m.ctx || !bytes.Equal(stream, m.payload) {
				t.Errorf("%s: decodeStream = %+v, %d bytes, %v", m.name, ctx, len(stream), err)
			}
		}
		putPayload(payload)
	}
	if _, _, _, err := readMsg(&buf); err != io.EOF {
		t.Errorf("read past the last message: %v, want io.EOF", err)
	}
}

// TestStreamTooLarge: a stream the framing cannot carry is refused at
// the sender with a typed permanent error before a byte is written —
// not truncated to uint32, not left for the server to drop the session
// on. Lengths are faked here; TestSendTooLargeKeepsSession drives a real
// Client with a slice of that length.
func TestStreamTooLarge(t *testing.T) {
	ctx := &streamCtx{Seq: 1}
	for _, tc := range []struct {
		name string
		ctx  *streamCtx
		n    int
		bad  bool
	}{
		{"limit, no ctx", nil, maxMessage, false},
		{"limit, with ctx", ctx, maxMessage - streamCtxSize, false},
		{"one over, no ctx", nil, maxMessage + 1, true},
		{"ctx tips it over", ctx, maxMessage - streamCtxSize + 1, true},
		{"wraps uint32", ctx, 1<<32 + 5, true},
	} {
		n, err := msgLen(tc.ctx, tc.n)
		switch {
		case tc.bad && !(errors.Is(err, ErrStreamTooLarge) && isPermanent(err)):
			t.Errorf("%s: err = %v, want a permanent ErrStreamTooLarge", tc.name, err)
		case !tc.bad && (err != nil || int(n) < tc.n):
			t.Errorf("%s: msgLen = %d, %v", tc.name, n, err)
		}
	}
}

// pipeSession runs the server side of one connection over net.Pipe and
// completes the handshake, returning the client end.
func pipeSession(t *testing.T, srv *Server, protection string, memBytes uint64) net.Conn {
	t.Helper()
	cliEnd, srvEnd := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.handle(srvEnd)
	}()
	t.Cleanup(func() {
		cliEnd.Close()
		<-done
	})
	cliEnd.SetDeadline(time.Now().Add(5 * time.Second))
	h := hello{Version: ProtocolVersion, WireVersion: wireVersion, Generation: 1, MemBytes: memBytes, Protection: protection}
	if err := writeMsg(cliEnd, msgHello, nil, encodeHello(h)); err != nil {
		t.Fatal(err)
	}
	if typ, _, _, err := readMsg(cliEnd); err != nil || typ != msgWelcome {
		t.Fatalf("handshake reply 0x%02x, %v", typ, err)
	}
	return cliEnd
}

// TestRejectBeforeMutate: a message whose envelope and commit frame
// name different epochs is refused with the replica exactly as it was —
// memory, acknowledged epoch, counters — and the peer is told why.
// Before, the stream was decoded into the replica first and refused
// after.
func TestRejectBeforeMutate(t *testing.T) {
	const memBytes = 1 << 20
	srv := NewServer(ServerConfig{})
	conn := pipeSession(t, srv, "vm0", memBytes)

	guest := memory.NewGuestMemory(memBytes)
	page := bytes.Repeat([]byte{0x5a}, memory.PageSize)
	for p := memory.PageNum(3); p < 7; p++ {
		if err := guest.WritePage(p, page); err != nil {
			t.Fatal(err)
		}
	}
	enc := wire.NewEncoder(false)
	good, err := enc.Encode(guest, []memory.PageNum{3, 4, 5, 6}, []byte("state-1"), nil, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeMsg(conn, msgCheckpoint, &streamCtx{Seq: 1, Gen: 1}, good.Stream); err != nil {
		t.Fatal(err)
	}
	if typ, _, _, err := readMsg(conn); err != nil || typ != msgAck {
		t.Fatalf("reply to the good checkpoint: 0x%02x, %v", typ, err)
	}
	mem, state, acked, _ := srv.Replica("vm0")
	hashBefore := mem.Hash()
	stBefore := srv.Status()[0]

	// A well-formed stream sealed as epoch 2 under an envelope saying 3.
	if err := guest.WritePage(4, bytes.Repeat([]byte{0xa5}, memory.PageSize)); err != nil {
		t.Fatal(err)
	}
	bad, err := enc.Encode(guest, []memory.PageNum{4, 9}, []byte("state-2"), nil, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeMsg(conn, msgCheckpoint, &streamCtx{Seq: 3, Gen: 1}, bad.Stream); err != nil {
		t.Fatal(err)
	}
	typ, payload, _, err := readMsg(conn)
	if err != nil || typ != msgError {
		t.Fatalf("reply to the mismatched checkpoint: 0x%02x %q, %v; want msgError", typ, payload, err)
	}
	if _, _, _, err := readMsg(conn); err == nil {
		t.Error("the session survived a refused stream")
	}

	mem2, state2, acked2, _ := srv.Replica("vm0")
	if mem2 != mem || mem2.Hash() != hashBefore {
		t.Error("refused stream changed replica memory")
	}
	if string(state2) != string(state) || string(state2) != "state-1" {
		t.Errorf("refused stream changed the state record: %q", state2)
	}
	st := srv.Status()[0]
	if acked2 != acked || st.AckedSeq != 1 || !st.Acked || st.Checkpoints != stBefore.Checkpoints || st.Bytes != stBefore.Bytes {
		t.Errorf("refused stream moved the replica's counters: %+v, before %+v", st, stBefore)
	}
}

// TestPayloadPool: a buffer is reused for a message of its own size
// class and no other, and an empty payload takes none.
func TestPayloadPool(t *testing.T) {
	if b := getPayload(0); b != nil {
		t.Errorf("getPayload(0) = %d-byte buffer", cap(b))
	}
	putPayload(nil)
	for _, n := range []int{1, 8, 48, 4096, 66_000, 8<<20 + 24} {
		b := getPayload(n)
		if len(b) != n || cap(b) >= 2*n {
			t.Errorf("getPayload(%d): len %d cap %d", n, len(b), cap(b))
		}
		putPayload(b)
	}
	// A 64 MiB seed buffer must not come back for an 8 MiB checkpoint.
	putPayload(make([]byte, 64<<20))
	if b := getPayload(8 << 20); cap(b) >= 16<<20 {
		t.Errorf("an %d-byte buffer serves an 8 MiB message", cap(b))
	}
}

// TestWriteMsgAllocates: what the writer allocates does not depend on
// the size of the stream — a 64 KiB and an 8 MiB checkpoint cost the
// same few dozen bytes (the header array and the net.Buffers that
// escape into the writev call).
func TestWriteMsgAllocates(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		if conn, err := ln.Accept(); err == nil {
			io.Copy(io.Discard, conn)
			conn.Close()
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	ctx := &streamCtx{Seq: 1, Gen: 1, SpanID: 1}
	perMsg := func(stream []byte) uint64 {
		const n = 10
		write := func() {
			if err := writeMsg(conn, msgCheckpoint, ctx, stream); err != nil {
				t.Fatal(err)
			}
		}
		write() // the peer's copy buffer and the poller's first use are not the writer's
		// TotalAlloc is the whole process's: the peer goroutine and the
		// runtime allocate beside the writer, more the longer a window
		// lasts. They only ever add, so the least of a few windows is the
		// writer's own share.
		least := ^uint64(0)
		for window := 0; window < 5; window++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < n; i++ {
				write()
			}
			runtime.ReadMemStats(&after)
			least = min(least, (after.TotalAlloc-before.TotalAlloc)/n)
		}
		return least
	}
	small, large := perMsg(make([]byte, 64<<10)), perMsg(make([]byte, 8<<20))
	if small > 512 || large > 512 {
		t.Errorf("writeMsg allocated %d B for a 64 KiB stream and %d B for an 8 MiB one, want a few dozen for both", small, large)
	}
	t.Logf("writeMsg: %d B per 64 KiB message, %d B per 8 MiB message", small, large)
}
