// Package transport is the real network transport between two hered
// daemons: a length-prefixed message stream over net.Conn that carries
// internal/wire checkpoint streams from a primary-side Client to a
// secondary-side Server, replacing the in-process hand-off of
// internal/simnet for deployments where the two sides are separate
// processes (or separate machines).
//
// The connection protocol has three layers:
//
//   - Handshake. The client opens every connection with a hello frame
//     carrying the transport protocol version, the wire-codec version,
//     the protection name, the replica memory size, the client's
//     fencing generation and its last acknowledged checkpoint epoch.
//     The server validates all of it and answers with a welcome frame
//     carrying its own generation and the last epoch it acknowledged —
//     or a reject frame. A peer presenting a fencing generation below
//     the server's current one is refused with ErrFenced before a
//     single frame of state can flow: a fenced old primary cannot push
//     checkpoints, at the wire boundary rather than only in
//     failover.Guard.
//
//   - Messages. After the handshake both sides exchange typed,
//     length-prefixed messages: checkpoint and seed streams (the framed
//     internal/wire bytes, applied by the server with wire.Decode and
//     acknowledged per epoch), pings/pongs for keepalive, and a fatal
//     error message. A stream is not copied on its way: the sender
//     writes the caller's bytes in place behind a small header
//     (writeMsg), the receiver reads them into a pooled buffer that is
//     valid until apply returns and then serves the next message
//     (readMsg, putPayload) — apply copies what it keeps.
//
//   - Keepalive and reconnect. The client pings on a configurable
//     interval; a configurable number of consecutively missed pongs
//     declares the path dead (N-missed-heartbeat detection, the same
//     policy failover.Monitor applies to simulated links). A dead
//     connection moves the client into the disconnected state — the
//     replicator rides it out in degraded mode — while a background
//     loop redials with jittered exponential backoff. Every successful
//     re-handshake exchanges acked epochs again, so the replicator can
//     resume with a delta resync from the last mutually-acknowledged
//     epoch instead of a full re-seed.
//
// The Client implements replication.Transport, replication's
// CheckpointSender/seed-streaming extensions and failover's monitored
// Path, so the whole existing recovery ladder (retry → rollback →
// degraded → delta resync) runs unchanged over real, failable TCP.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net"
	"sync"
	"time"

	"github.com/here-ft/here/internal/wire"
)

// ProtocolVersion is the transport protocol version exchanged in the
// handshake. Peers with a different version are rejected.
//
// Version history:
//
//	1 — initial protocol (PR 6).
//	2 — cross-node trace context: hello carries a trace ID, stream
//	    payloads carry (generation, span ID), acks carry the
//	    secondary-side stage timings (recv/decode/apply/ack).
const ProtocolVersion uint16 = 2

// helloMagic opens every connection.
var helloMagic = [8]byte{'H', 'E', 'R', 'E', 'T', 'R', 'N', 'S'}

// Message types.
const (
	msgHello      byte = 0x01 // client → server: handshake request
	msgWelcome    byte = 0x02 // server → client: handshake accepted
	msgReject     byte = 0x03 // server → client: handshake refused
	msgCheckpoint byte = 0x04 // client → server: one checkpoint wire stream
	msgSeed       byte = 0x05 // client → server: one seeding-round wire stream
	msgAck        byte = 0x06 // server → client: stream decoded and applied
	msgPing       byte = 0x07 // client → server: keepalive probe
	msgPong       byte = 0x08 // server → client: keepalive reply
	msgError      byte = 0x09 // either side: fatal error, connection closes
)

// Reject reason codes carried in a reject frame.
const (
	rejectVersion  uint16 = 1
	rejectFenced   uint16 = 2
	rejectBadHello uint16 = 3
	rejectMemSize  uint16 = 4
)

// maxMessage bounds one message payload. Checkpoint streams of even a
// large simulated guest stay far below this; the bound keeps a corrupt
// length prefix from driving a huge allocation.
const maxMessage = 1 << 30

// msgOverhead is the per-message framing cost: type byte plus the
// uint32 payload length.
const msgOverhead = 1 + 4

// Typed errors reported by the transport.
var (
	// ErrFenced is returned when the peer refuses the handshake because
	// the presented fencing generation is stale: a newer activation (or
	// a restarted control plane) advanced the generation past this
	// client's. The holder is a fenced old primary; it must never push
	// checkpoints. Permanent — reconnecting cannot help.
	ErrFenced = errors.New("transport: fencing generation superseded; peer refused handshake")
	// ErrVersionMismatch is returned when the peer speaks a different
	// protocol or wire-codec version. Permanent.
	ErrVersionMismatch = errors.New("transport: protocol version mismatch")
	// ErrRejected is returned for any other handshake refusal.
	ErrRejected = errors.New("transport: peer refused handshake")
	// ErrDisconnected is returned by sends while the connection is down
	// and the reconnect loop has not yet restored it. Transient: the
	// caller's retry/degraded machinery should ride it out.
	ErrDisconnected = errors.New("transport: disconnected")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("transport: closed")
	// ErrAckTimeout is returned when a shipped stream was not
	// acknowledged within the configured deadline; the connection is
	// torn down because the stream boundary is no longer trustworthy.
	ErrAckTimeout = errors.New("transport: acknowledgement timed out")
	// ErrStreamTooLarge is returned, before a byte is written, for a
	// stream the message framing cannot carry (over maxMessage, 1 GiB).
	// Permanent — resending the same stream cannot help.
	ErrStreamTooLarge = errors.New("transport: stream exceeds the message size limit")
)

// permanentError wraps a failure that no amount of reconnecting or
// resending can cure (fencing, version mismatch, an oversize stream).
// replication's retry machinery asks for it via the anonymous
// interface{ Permanent() bool } so the packages stay decoupled.
type permanentError struct{ err error }

func (e *permanentError) Error() string   { return e.err.Error() }
func (e *permanentError) Unwrap() error   { return e.err }
func (e *permanentError) Permanent() bool { return true }

// FenceSource reports the current fencing generation a server enforces
// at its wire boundary. *failover.Guard implements it.
type FenceSource interface {
	Generation() uint64
}

// StaticFence is a fixed fencing generation, for servers not backed by
// a live failover.Guard.
type StaticFence uint64

// Generation implements FenceSource.
func (f StaticFence) Generation() uint64 { return uint64(f) }

// hello is the client's handshake request.
type hello struct {
	Version     uint16 // transport protocol version
	WireVersion uint16 // internal/wire stream version
	Generation  uint64 // client's fencing generation
	MemBytes    uint64 // replica guest-memory size
	AckedSeq    uint64 // last acked checkpoint epoch + 1; 0 = none
	TraceID     uint64 // client-chosen trace ID for this connection
	Protection  string // protection (VM) name
}

// welcome is the server's handshake acceptance.
type welcome struct {
	Version    uint16 // server's transport protocol version
	Generation uint64 // server's current fencing generation
	AckedSeq   uint64 // last epoch the server acknowledged + 1; 0 = none
}

// PeerStatus is one transport endpoint's observable state, surfaced
// through the control-plane status API and the twonode demo.
type PeerStatus struct {
	// Role is "client" (primary side) or "server" (secondary side).
	Role string `json:"role"`
	// Protection is the VM name the stream belongs to.
	Protection string `json:"protection"`
	// State is "connected", "disconnected", "fenced" or "closed".
	State string `json:"state"`
	// RemoteAddr is the peer's address, when connected.
	RemoteAddr string `json:"remote_addr,omitempty"`
	// Generation is the fencing generation in effect on this side.
	Generation uint64 `json:"generation"`
	// AckedSeq is the last mutually-acknowledged checkpoint epoch
	// (meaningful only when Acked is true).
	AckedSeq uint64 `json:"acked_seq"`
	Acked    bool   `json:"acked"`
	// Connects and Disconnects count connection-state transitions.
	Connects    int64 `json:"connects"`
	Disconnects int64 `json:"disconnects"`
	// Checkpoints counts acknowledged checkpoint streams; SeedRounds
	// counts acknowledged seeding rounds.
	Checkpoints int64 `json:"checkpoints"`
	SeedRounds  int64 `json:"seed_rounds"`
	// Bytes is the stream payload volume sent (client) or received
	// (server).
	Bytes int64 `json:"bytes"`
}

// msgLen is the length word of a message whose payload is an optional
// stream context followed by n more bytes. A payload over maxMessage is
// refused here, at the sender, with the permanent ErrStreamTooLarge: the
// receiver would drop the session on it, and past 4 GiB the uint32 word
// would wrap.
func msgLen(ctx *streamCtx, n int) (uint32, error) {
	total := uint64(n)
	if ctx != nil {
		total += streamCtxSize
	}
	if total > maxMessage {
		return 0, &permanentError{err: fmt.Errorf("%w: %d bytes, limit %d", ErrStreamTooLarge, total, maxMessage)}
	}
	return uint32(total), nil
}

// writeMsg writes one message: type, length, the stream context of a
// checkpoint / seed message (nil for every other type) and the payload.
// The header goes out together with the caller's payload through
// net.Buffers — one writev on a *net.TCPConn, sequential writes on any
// other writer — so nothing proportional to the payload is copied or
// allocated. Nothing is written when the message is over maxMessage.
func writeMsg(w io.Writer, typ byte, ctx *streamCtx, payload []byte) error {
	n, err := msgLen(ctx, len(payload))
	if err != nil {
		return err
	}
	var hdr [msgOverhead + streamCtxSize]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint32(hdr[1:], n)
	head := hdr[:msgOverhead]
	if ctx != nil {
		binary.LittleEndian.PutUint64(hdr[msgOverhead:], ctx.Seq)
		binary.LittleEndian.PutUint64(hdr[msgOverhead+8:], ctx.Gen)
		binary.LittleEndian.PutUint64(hdr[msgOverhead+16:], ctx.SpanID)
		head = hdr[:]
	}
	bufs := net.Buffers{head, payload}
	_, err = bufs.WriteTo(w)
	return err
}

// payloadPools holds received-payload buffers between messages, by size
// class: payloadPools[k] keeps buffers whose capacity is in
// [1<<k, 2<<k), so a message reuses a buffer less than twice its size
// and a guest's 64 MiB seed buffer does not stay pinned under its 8 MiB
// checkpoints. A pool, not a buffer per session: idle sessions hold
// nothing and the collector empties what goes unused.
var payloadPools [31]sync.Pool // bits.Len(maxMessage) classes

// getPayload returns an n-byte buffer, pooled when one fits.
func getPayload(n int) []byte {
	if n == 0 {
		return nil
	}
	if b, _ := payloadPools[bits.Len(uint(n))-1].Get().([]byte); cap(b) >= n {
		return b[:n]
	}
	return make([]byte, n)
}

// putPayload hands a buffer readMsg returned back for reuse. The caller
// must hold no reference into it afterwards.
func putPayload(b []byte) {
	if cap(b) == 0 {
		return
	}
	payloadPools[bits.Len(uint(cap(b)))-1].Put(b[:cap(b)])
}

// readMsg reads one message. The payload buffer is taken from the pool
// only after the header has arrived, so a connection waiting for its
// next message holds none; it is the caller's until putPayload. recv is
// how long the payload spent being read off the wire — the clock starts
// after the header, so idle time between messages is not charged to it.
func readMsg(r io.Reader) (typ byte, payload []byte, recv time.Duration, err error) {
	var hdr [msgOverhead]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, 0, err
	}
	start := time.Now()
	n := binary.LittleEndian.Uint32(hdr[1:])
	if n > maxMessage {
		return 0, nil, 0, fmt.Errorf("transport: %d-byte message exceeds limit", n)
	}
	payload = getPayload(int(n))
	if _, err := io.ReadFull(r, payload); err != nil {
		putPayload(payload)
		return 0, nil, 0, err
	}
	return hdr[0], payload, time.Since(start), nil
}

// encodeHello serializes a hello payload.
func encodeHello(h hello) []byte {
	b := make([]byte, 0, 8+2+2+8+8+8+8+2+len(h.Protection))
	b = append(b, helloMagic[:]...)
	b = binary.LittleEndian.AppendUint16(b, h.Version)
	b = binary.LittleEndian.AppendUint16(b, h.WireVersion)
	b = binary.LittleEndian.AppendUint64(b, h.Generation)
	b = binary.LittleEndian.AppendUint64(b, h.MemBytes)
	b = binary.LittleEndian.AppendUint64(b, h.AckedSeq)
	b = binary.LittleEndian.AppendUint64(b, h.TraceID)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(h.Protection)))
	return append(b, h.Protection...)
}

// decodeHello parses a hello payload.
func decodeHello(b []byte) (hello, error) {
	var h hello
	if len(b) < 8+2+2+8+8+8+8+2 {
		return h, fmt.Errorf("transport: short hello (%d bytes)", len(b))
	}
	if string(b[:8]) != string(helloMagic[:]) {
		return h, errors.New("transport: bad hello magic")
	}
	b = b[8:]
	h.Version = binary.LittleEndian.Uint16(b[0:2])
	h.WireVersion = binary.LittleEndian.Uint16(b[2:4])
	h.Generation = binary.LittleEndian.Uint64(b[4:12])
	h.MemBytes = binary.LittleEndian.Uint64(b[12:20])
	h.AckedSeq = binary.LittleEndian.Uint64(b[20:28])
	h.TraceID = binary.LittleEndian.Uint64(b[28:36])
	nameLen := int(binary.LittleEndian.Uint16(b[36:38]))
	if len(b[38:]) != nameLen {
		return h, fmt.Errorf("transport: hello name length %d, have %d bytes", nameLen, len(b[38:]))
	}
	h.Protection = string(b[38:])
	if h.Protection == "" {
		return h, errors.New("transport: empty protection name")
	}
	return h, nil
}

// encodeWelcome serializes a welcome payload.
func encodeWelcome(w welcome) []byte {
	b := make([]byte, 0, 2+8+8)
	b = binary.LittleEndian.AppendUint16(b, w.Version)
	b = binary.LittleEndian.AppendUint64(b, w.Generation)
	return binary.LittleEndian.AppendUint64(b, w.AckedSeq)
}

// decodeWelcome parses a welcome payload.
func decodeWelcome(b []byte) (welcome, error) {
	var w welcome
	if len(b) != 2+8+8 {
		return w, fmt.Errorf("transport: short welcome (%d bytes)", len(b))
	}
	w.Version = binary.LittleEndian.Uint16(b[0:2])
	w.Generation = binary.LittleEndian.Uint64(b[2:10])
	w.AckedSeq = binary.LittleEndian.Uint64(b[10:18])
	return w, nil
}

// encodeReject serializes a reject payload.
func encodeReject(code uint16, msg string) []byte {
	b := make([]byte, 0, 2+len(msg))
	b = binary.LittleEndian.AppendUint16(b, code)
	return append(b, msg...)
}

// rejectError maps a reject payload to its typed error.
func rejectError(b []byte) error {
	if len(b) < 2 {
		return &permanentError{err: ErrRejected}
	}
	code := binary.LittleEndian.Uint16(b[0:2])
	msg := string(b[2:])
	switch code {
	case rejectFenced:
		return &permanentError{err: fmt.Errorf("%w: %s", ErrFenced, msg)}
	case rejectVersion:
		return &permanentError{err: fmt.Errorf("%w: %s", ErrVersionMismatch, msg)}
	default:
		return &permanentError{err: fmt.Errorf("%w: %s", ErrRejected, msg)}
	}
}

// streamCtx is the compact trace context that rides ahead of every
// checkpoint/seed stream: the epoch, the sender's fencing generation
// and the span ID of the sender's transfer span, so spans recorded on
// both nodes name the same hop.
type streamCtx struct {
	Seq    uint64 // checkpoint epoch (seed round during seeding)
	Gen    uint64 // sender's fencing generation
	SpanID uint64 // sender-side transfer span ID, echoed in the ack
}

// streamCtxSize is the encoded stream context: three little-endian
// words, written by writeMsg and split off by decodeStream.
const streamCtxSize = 8 * 3

// decodeStream splits a checkpoint/seed payload into its context and
// the framed wire stream, which aliases b.
func decodeStream(b []byte) (ctx streamCtx, stream []byte, err error) {
	if len(b) < streamCtxSize {
		return streamCtx{}, nil, fmt.Errorf("transport: short stream payload (%d bytes)", len(b))
	}
	ctx.Seq = binary.LittleEndian.Uint64(b[0:8])
	ctx.Gen = binary.LittleEndian.Uint64(b[8:16])
	ctx.SpanID = binary.LittleEndian.Uint64(b[16:24])
	return ctx, b[streamCtxSize:], nil
}

// ackStages are the secondary-side stage timings carried back in a
// checkpoint/seed ack, measured on the secondary's monotonic clock:
// wire read, decode, replica apply, and the ack encode+write itself
// (the last is the previous ack's cost lower-bounded at measurement
// time — the write that carries it cannot time itself).
type ackStages struct {
	Recv   time.Duration
	Decode time.Duration
	Apply  time.Duration
	Ack    time.Duration
}

// ackSize is the length of every ack payload: six little-endian words.
const ackSize = 8 * 6

// ackSizeError is an ack payload of any other length.
type ackSizeError int

func (e ackSizeError) Error() string {
	return fmt.Sprintf("transport: %d-byte ack payload, want %d", int(e), ackSize)
}

// encodeAck serializes an ack: the acked epoch, the echoed span ID and
// the stage timings.
func encodeAck(seq, spanID uint64, st ackStages) []byte {
	b := make([]byte, 0, ackSize)
	b = binary.LittleEndian.AppendUint64(b, seq)
	b = binary.LittleEndian.AppendUint64(b, spanID)
	b = binary.LittleEndian.AppendUint64(b, uint64(st.Recv))
	b = binary.LittleEndian.AppendUint64(b, uint64(st.Decode))
	b = binary.LittleEndian.AppendUint64(b, uint64(st.Apply))
	b = binary.LittleEndian.AppendUint64(b, uint64(st.Ack))
	return b
}

// decodeAck parses an ack payload.
func decodeAck(b []byte) (seq, spanID uint64, st ackStages, err error) {
	if len(b) != ackSize {
		return 0, 0, ackStages{}, ackSizeError(len(b))
	}
	seq = binary.LittleEndian.Uint64(b[0:8])
	spanID = binary.LittleEndian.Uint64(b[8:16])
	st.Recv = time.Duration(binary.LittleEndian.Uint64(b[16:24]))
	st.Decode = time.Duration(binary.LittleEndian.Uint64(b[24:32]))
	st.Apply = time.Duration(binary.LittleEndian.Uint64(b[32:40]))
	st.Ack = time.Duration(binary.LittleEndian.Uint64(b[40:48]))
	return seq, spanID, st, nil
}

// u64payload serializes a bare uint64 (pings, pongs).
func u64payload(v uint64) []byte {
	return binary.LittleEndian.AppendUint64(make([]byte, 0, 8), v)
}

// decodeU64 parses a bare uint64 payload.
func decodeU64(b []byte) (uint64, error) {
	if len(b) != 8 {
		return 0, fmt.Errorf("transport: %d-byte payload, want 8", len(b))
	}
	return binary.LittleEndian.Uint64(b), nil
}

// wireVersion is the wire-codec version advertised in the handshake;
// split out so the hello encoder need not import wire at its call
// sites.
const wireVersion = wire.Version
