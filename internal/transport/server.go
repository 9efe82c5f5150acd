package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/trace"
	"github.com/here-ft/here/internal/wire"
)

// ServerConfig configures the secondary-side listener.
type ServerConfig struct {
	// Fence supplies the fencing generation enforced at the wire
	// boundary: a hello presenting a lower generation is rejected
	// before any state can flow. *failover.Guard satisfies it; nil
	// means generation 0 (accept everyone until a replica has seen a
	// higher generation).
	Fence FenceSource
	// Tracer receives connect/disconnect/fence events plus the
	// secondary-side remote-recv/decode/apply/ack spans for every
	// applied stream (nil disables). Span durations are wall-clock —
	// they measure real work on this node.
	Tracer *trace.Tracer
	// Metrics receives the here_transport_* counters (nil disables).
	Metrics *trace.Registry
	// Logf receives connection-level diagnostics (nil discards).
	Logf func(format string, args ...any)
}

// replica is the server-side state of one protection: the replica
// guest memory checkpoint streams decode into, the last acknowledged
// epoch, and the single active connection allowed to feed it.
type replica struct {
	mu          sync.Mutex
	mem         *memory.GuestMemory
	state       []byte // last machine-state record decoded
	ackedSeq    uint64
	acked       bool
	lastGen     uint64 // highest fencing generation seen for this protection
	conn        net.Conn
	connGen     uint64
	remoteAddr  string
	connects    int64
	disconnects int64
	checkpoints int64
	seedRounds  int64
	bytes       int64
}

// Server is the secondary-side transport endpoint: it accepts client
// connections, enforces fencing at the handshake, decodes checkpoint
// and seed streams into per-protection replica memory, and
// acknowledges each applied epoch. One connection per protection is
// active at a time; a newer (or equal, i.e. reconnecting) generation
// takes the stream over, a stale generation is refused.
type Server struct {
	cfg ServerConfig

	mu       sync.Mutex
	ln       net.Listener
	replicas map[string]*replica
	closed   bool
	wg       sync.WaitGroup

	mConnects    *trace.Counter
	mDisconnects *trace.Counter
	mFenced      *trace.Counter
	mRecvBytes   *trace.Counter
	mCheckpoints *trace.Counter
	mSeedRounds  *trace.Counter
	mAcks        *trace.Counter
	mApplySec    *trace.Histogram
}

// NewServer returns a server ready to Listen.
func NewServer(cfg ServerConfig) *Server {
	if cfg.Fence == nil {
		cfg.Fence = StaticFence(0)
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s := &Server{cfg: cfg, replicas: make(map[string]*replica)}
	if reg := cfg.Metrics; reg != nil {
		s.mConnects = reg.Counter("here_transport_connects_total",
			"transport connections accepted or established")
		s.mDisconnects = reg.Counter("here_transport_disconnects_total",
			"transport connections lost or torn down")
		s.mFenced = reg.Counter("here_transport_fenced_total",
			"handshakes refused for a stale fencing generation")
		s.mRecvBytes = reg.Counter("here_transport_recv_bytes_total",
			"checkpoint and seed stream bytes received")
		s.mCheckpoints = reg.Counter("here_transport_checkpoints_total",
			"checkpoint streams applied and acknowledged")
		s.mSeedRounds = reg.Counter("here_transport_seed_rounds_total",
			"seeding-round streams applied and acknowledged")
		s.mAcks = reg.Counter("here_transport_acks_total",
			"epoch acknowledgements exchanged")
		s.mApplySec = reg.Histogram("here_transport_apply_seconds",
			"secondary-side decode+apply time per received stream",
			trace.DurationBuckets())
	}
	return s
}

// Listen binds addr (e.g. "127.0.0.1:0") and serves connections in the
// background until Close.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrClosed
	}
	if s.ln != nil {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("transport: already listening on %s", s.ln.Addr())
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return nil
}

// Addr reports the bound listen address ("" before Listen).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener and drops every active connection. The
// replica state (memory, acked epochs) is retained so a secondary-side
// activation can still read it.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	reps := make([]*replica, 0, len(s.replicas))
	for _, r := range s.replicas {
		reps = append(reps, r)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, r := range reps {
		r.mu.Lock()
		if r.conn != nil {
			r.conn.Close()
		}
		r.mu.Unlock()
	}
	s.wg.Wait()
	return nil
}

// Replica returns the replica guest memory and last decoded machine
// state record for a protection, for secondary-side activation
// (failover.ActivateFromImage). ok is false if the protection has
// never connected.
func (s *Server) Replica(name string) (mem *memory.GuestMemory, state []byte, acked uint64, ok bool) {
	s.mu.Lock()
	r := s.replicas[name]
	s.mu.Unlock()
	if r == nil {
		return nil, nil, 0, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.mem, r.state, r.ackedSeq, true
}

// Status reports every known protection's transport state.
func (s *Server) Status() []PeerStatus {
	s.mu.Lock()
	names := make([]string, 0, len(s.replicas))
	reps := make([]*replica, 0, len(s.replicas))
	for n, r := range s.replicas {
		names = append(names, n)
		reps = append(reps, r)
	}
	s.mu.Unlock()
	out := make([]PeerStatus, 0, len(reps))
	for i, r := range reps {
		r.mu.Lock()
		st := PeerStatus{
			Role:        "server",
			Protection:  names[i],
			State:       "disconnected",
			Generation:  r.lastGen,
			AckedSeq:    r.ackedSeq,
			Acked:       r.acked,
			Connects:    r.connects,
			Disconnects: r.disconnects,
			Checkpoints: r.checkpoints,
			SeedRounds:  r.seedRounds,
			Bytes:       r.bytes,
		}
		if r.conn != nil {
			st.State = "connected"
			st.RemoteAddr = r.remoteAddr
		}
		r.mu.Unlock()
		out = append(out, st)
	}
	return out
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// handle runs one connection: handshake, then the message loop until
// the peer disconnects, a protocol error occurs, or a newer connection
// takes the protection over.
func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	remote := conn.RemoteAddr().String()

	typ, payload, _, err := readMsg(conn)
	if err != nil {
		s.cfg.Logf("transport: %s: reading hello: %v", remote, err)
		return
	}
	if typ != msgHello {
		s.reject(conn, rejectBadHello, fmt.Sprintf("expected hello, got 0x%02x", typ))
		return
	}
	h, err := decodeHello(payload)
	putPayload(payload) // the hello is decoded by value, its name copied
	if err != nil {
		s.reject(conn, rejectBadHello, err.Error())
		return
	}
	if h.Version != ProtocolVersion {
		s.reject(conn, rejectVersion,
			fmt.Sprintf("transport protocol %d, want %d", h.Version, ProtocolVersion))
		return
	}
	if h.WireVersion != wireVersion {
		s.reject(conn, rejectVersion,
			fmt.Sprintf("wire codec %d, want %d", h.WireVersion, wireVersion))
		return
	}
	if gen := s.cfg.Fence.Generation(); h.Generation < gen {
		s.fence(conn, remote, h, gen)
		return
	}
	if h.MemBytes == 0 {
		s.reject(conn, rejectMemSize, "zero replica memory size")
		return
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	r := s.replicas[h.Protection]
	if r == nil {
		r = &replica{}
		s.replicas[h.Protection] = r
	}
	s.mu.Unlock()

	r.mu.Lock()
	// The wire-level fence also remembers the highest generation this
	// protection has ever presented: even if the guard has not advanced
	// yet, an old primary below a generation we have already served is
	// refused.
	if h.Generation < r.lastGen {
		prev := r.lastGen
		r.mu.Unlock()
		s.fence(conn, remote, h, prev)
		return
	}
	if r.mem != nil && r.mem.SizeBytes() != h.MemBytes {
		r.mu.Unlock()
		s.reject(conn, rejectMemSize, fmt.Sprintf(
			"replica memory is %d bytes, hello says %d", r.mem.SizeBytes(), h.MemBytes))
		return
	}
	if r.mem == nil {
		r.mem = memory.NewGuestMemory(h.MemBytes)
	}
	// Newer or equal generation takes the stream over: the reconnecting
	// (or newly activated) primary wins, the displaced connection is
	// closed.
	if old := r.conn; old != nil {
		old.Close()
		r.disconnects++
		s.mDisconnects.Inc()
	}
	r.conn = conn
	r.connGen = h.Generation
	r.remoteAddr = remote
	r.lastGen = h.Generation
	r.connects++
	w := welcome{Version: ProtocolVersion, Generation: s.cfg.Fence.Generation()}
	if r.acked {
		w.AckedSeq = r.ackedSeq + 1
	}
	r.mu.Unlock()

	if err := writeMsg(conn, msgWelcome, nil, encodeWelcome(w)); err != nil {
		s.dropConn(r, conn, "writing welcome: "+err.Error())
		return
	}
	s.mConnects.Inc()
	s.cfg.Tracer.Event(trace.EventTransport, trace.NoEpoch, trace.Event{
		Note: fmt.Sprintf("accept %s protection=%s gen=%d acked=%d",
			remote, h.Protection, h.Generation, w.AckedSeq),
	})
	s.cfg.Logf("transport: %s: accepted protection=%s gen=%d", remote, h.Protection, h.Generation)

	s.serveConn(r, conn, h.Protection)
}

// fence refuses a stale-generation hello: typed reject on the wire, a
// trace event, and not one byte of state applied.
func (s *Server) fence(conn net.Conn, remote string, h hello, current uint64) {
	s.mFenced.Inc()
	s.cfg.Tracer.Event(trace.EventTransport, trace.NoEpoch, trace.Event{
		Outcome: "fenced",
		Note: fmt.Sprintf("reject %s protection=%s gen=%d current=%d",
			remote, h.Protection, h.Generation, current),
	})
	s.cfg.Logf("transport: %s: fenced protection=%s gen=%d current=%d",
		remote, h.Protection, h.Generation, current)
	s.reject(conn, rejectFenced, fmt.Sprintf(
		"generation %d superseded by %d", h.Generation, current))
}

func (s *Server) reject(conn net.Conn, code uint16, msg string) {
	writeMsg(conn, msgReject, nil, encodeReject(code, msg))
}

// dropConn records the loss of an active connection if conn still owns
// the replica.
func (s *Server) dropConn(r *replica, conn net.Conn, reason string) {
	r.mu.Lock()
	owned := r.conn == conn
	if owned {
		r.conn = nil
		r.remoteAddr = ""
		r.disconnects++
	}
	r.mu.Unlock()
	if !owned {
		return // a takeover already displaced this connection
	}
	s.mDisconnects.Inc()
	s.cfg.Tracer.Event(trace.EventTransport, trace.NoEpoch, trace.Event{
		Outcome: "disconnect",
		Note:    reason,
	})
	s.cfg.Logf("transport: connection lost: %s", reason)
}

// serveConn runs the post-handshake message loop. A received payload is
// valid until serveMsg returns — apply copies what it keeps — and then
// goes back to the pool for the next message of its size.
func (s *Server) serveConn(r *replica, conn net.Conn, protection string) {
	for {
		typ, payload, recvDur, err := readMsg(conn)
		if err != nil {
			reason := err.Error()
			if errors.Is(err, io.EOF) {
				reason = "peer closed"
			}
			s.dropConn(r, conn, protection+": "+reason)
			return
		}
		ok := s.serveMsg(r, conn, protection, typ, payload, recvDur)
		putPayload(payload)
		if !ok {
			return
		}
	}
}

// serveMsg handles one message and reports whether the connection
// stays up.
func (s *Server) serveMsg(r *replica, conn net.Conn, protection string, typ byte, payload []byte, recvDur time.Duration) bool {
	switch typ {
	case msgPing:
		if err := writeMsg(conn, msgPong, nil, payload); err != nil {
			s.dropConn(r, conn, protection+": writing pong: "+err.Error())
			return false
		}
	case msgCheckpoint, msgSeed:
		ctx, stream, err := decodeStream(payload)
		if err != nil {
			s.fail(r, conn, protection, err)
			return false
		}
		decodeDur, applyDur, err := s.apply(r, typ, protection, ctx.Seq, stream)
		if err != nil {
			s.fail(r, conn, protection, err)
			return false
		}
		ackStart := time.Now()
		s.span(trace.SpanRemoteRecv, ctx.Seq, recvDur, protection, int64(len(payload)))
		s.span(trace.SpanRemoteDecode, ctx.Seq, decodeDur, protection, int64(len(stream)))
		s.span(trace.SpanRemoteApply, ctx.Seq, applyDur, protection, 0)
		st := ackStages{Recv: recvDur, Decode: decodeDur, Apply: applyDur, Ack: time.Since(ackStart)}
		if err := writeMsg(conn, msgAck, nil, encodeAck(ctx.Seq, ctx.SpanID, st)); err != nil {
			s.dropConn(r, conn, protection+": writing ack: "+err.Error())
			return false
		}
		s.span(trace.SpanRemoteAck, ctx.Seq, time.Since(ackStart), protection, 0)
		s.mAcks.Inc()
	case msgError:
		s.dropConn(r, conn, protection+": peer error: "+string(payload))
		return false
	default:
		s.fail(r, conn, protection, fmt.Errorf("transport: unexpected message 0x%02x", typ))
		return false
	}
	return true
}

// span records one secondary-side stage span into the server's tracer.
// Durations are wall-clock measurements of real work on this node; the
// start instant is taken from the tracer's own clock so export offsets
// stay consistent with the rest of the trace.
func (s *Server) span(kind trace.Kind, seq uint64, dur time.Duration, protection string, bytes int64) {
	tr := s.cfg.Tracer
	if tr == nil {
		return
	}
	tr.Record(trace.Event{
		Kind:  kind,
		Epoch: int64(seq),
		Start: tr.Clock().Now(),
		Dur:   dur,
		Bytes: bytes,
		Note:  protection,
	})
}

// fail reports a protocol or decode error to the peer and drops the
// connection. apply refuses a stream before its first page is written
// (the envelope's epoch is checked against the commit frame up front,
// wire.Decode validates before applying), so replica memory and the
// acknowledged epoch are untouched by the rejected stream.
func (s *Server) fail(r *replica, conn net.Conn, protection string, err error) {
	writeMsg(conn, msgError, nil, []byte(err.Error()))
	s.dropConn(r, conn, protection+": "+err.Error())
}

// apply decodes one stream into the replica, reporting the wire-decode
// and state-install durations separately. A checkpoint advances the
// acknowledged epoch; a seeding round resets it — the seed image is a
// fresh baseline and prior checkpoint acks no longer describe it.
//
// stream belongs to the caller and is reused for the next message: what
// outlives the call (the state record here, pages and disk payloads in
// wire.Decode) is copied out of it.
func (s *Server) apply(r *replica, typ byte, protection string, seq uint64, stream []byte) (decodeDur, applyDur time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	decodeStart := time.Now()
	// Decode seals the replica to whatever epoch the commit frame names,
	// so an envelope that disagrees with it is refused before the first
	// page is written. A stream with no readable commit frame falls
	// through: Decode rejects it, untouched too, with the exact reason.
	if got, err := wire.CommitSeq(stream); err == nil && got != seq {
		return 0, 0, fmt.Errorf("transport: stream seq %d, message says %d", got, seq)
	}
	res, err := wire.Decode(stream, r.mem)
	decodeDur = time.Since(decodeStart)
	if err != nil {
		return decodeDur, 0, err
	}
	applyStart := time.Now()
	if res.State != nil {
		r.state = res.State
	}
	r.bytes += int64(len(stream))
	s.mRecvBytes.Add(int64(len(stream)))
	if typ == msgCheckpoint {
		r.ackedSeq = seq
		r.acked = true
		r.checkpoints++
		s.mCheckpoints.Inc()
		if reg := s.cfg.Metrics; reg != nil {
			reg.Gauge(trace.Labeled("here_transport_replica_acked_epoch", "protection", protection),
				"last checkpoint epoch applied and acknowledged, per protection").Set(float64(seq))
		}
	} else {
		r.ackedSeq = 0
		r.acked = false
		r.seedRounds++
		s.mSeedRounds.Inc()
	}
	applyDur = time.Since(applyStart)
	if s.mApplySec != nil {
		s.mApplySec.Observe((decodeDur + applyDur).Seconds())
	}
	return decodeDur, applyDur, nil
}
