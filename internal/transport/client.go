package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"github.com/here-ft/here/internal/trace"
)

// ClientConfig configures the primary-side transport endpoint.
type ClientConfig struct {
	// Addr is the peer server's TCP address.
	Addr string
	// Protection names the VM whose checkpoints this client carries.
	Protection string
	// MemBytes is the replica guest-memory size announced in the
	// handshake; the server allocates (or validates) its replica from
	// it.
	MemBytes uint64
	// Generation is the fencing generation presented in every
	// handshake. A client whose generation falls behind the server's is
	// permanently fenced.
	Generation uint64
	// DialTimeout bounds one connection attempt (default 5s).
	DialTimeout time.Duration
	// KeepaliveInterval is the ping cadence (default 1s).
	KeepaliveInterval time.Duration
	// KeepaliveMisses is how many consecutive unanswered pings declare
	// the connection dead (default 3) — the same N-missed-heartbeat
	// policy failover.Monitor applies.
	KeepaliveMisses int
	// AckTimeout bounds the wait for one stream's acknowledgement
	// (default 15s).
	AckTimeout time.Duration
	// ReconnectMin and ReconnectMax bound the jittered exponential
	// backoff between redial attempts (defaults 100ms and 5s).
	ReconnectMin time.Duration
	ReconnectMax time.Duration
	// Tracer receives connect/disconnect events (nil disables).
	Tracer *trace.Tracer
	// Metrics receives the here_transport_* counters (nil disables).
	Metrics *trace.Registry
	// Logf receives connection-level diagnostics (nil discards).
	Logf func(format string, args ...any)
}

func (c *ClientConfig) withDefaults() {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.KeepaliveInterval <= 0 {
		c.KeepaliveInterval = time.Second
	}
	if c.KeepaliveMisses <= 0 {
		c.KeepaliveMisses = 3
	}
	if c.AckTimeout <= 0 {
		c.AckTimeout = 15 * time.Second
	}
	if c.ReconnectMin <= 0 {
		c.ReconnectMin = 100 * time.Millisecond
	}
	if c.ReconnectMax < c.ReconnectMin {
		c.ReconnectMax = 5 * time.Second
		if c.ReconnectMax < c.ReconnectMin {
			c.ReconnectMax = c.ReconnectMin
		}
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// ackFrame is one decoded acknowledgement: the acked epoch plus the
// secondary-side stage timings.
type ackFrame struct {
	seq    uint64
	spanID uint64
	st     ackStages
}

// session is one live connection: its socket, the channel acks arrive
// on, and the keepalive bookkeeping. A session dies exactly once
// (kill), which closes done.
type session struct {
	conn net.Conn
	acks chan ackFrame

	writeMu sync.Mutex // serializes Send writes against keepalive pings

	mu       sync.Mutex
	dead     bool
	reason   string
	pingSent uint64 // pings written
	pongSeen uint64 // highest pong received

	done chan struct{}
}

func (s *session) kill(reason string) bool {
	s.mu.Lock()
	if s.dead {
		s.mu.Unlock()
		return false
	}
	s.dead = true
	s.reason = reason
	s.mu.Unlock()
	s.conn.Close()
	close(s.done)
	return true
}

// Client is the primary-side transport endpoint. It dials the
// secondary, performs the fencing handshake, ships checkpoint and seed
// streams synchronously (one in flight, acknowledged per epoch), pings
// on a keepalive interval, and — when the connection dies — moves to
// the disconnected state while a background loop redials with jittered
// exponential backoff. Each successful re-handshake refreshes the
// server's acknowledged epoch so the replicator can delta-resync from
// it instead of re-seeding.
//
// Client implements the replication.Transport interface (Transfer,
// Down, PropagationDelay), its CheckpointSender extension
// (SendCheckpoint, SendSeed, PeerAcked) and the failover monitor's
// Path, so it drops in wherever a simnet.Link did.
type Client struct {
	cfg ClientConfig

	traceID uint64 // client-chosen, sent in every hello

	mu          sync.Mutex
	sess        *session
	state       string // "connected", "disconnected", "fenced", "closed"
	permErr     error  // set when fenced / version-mismatched
	serverGen   uint64
	serverAcked uint64
	ackedOK     bool
	rtt         time.Duration
	lastStages  ackStages // remote stage timings from the last ack
	lastStageOK bool
	connects    int64
	disconnects int64
	checkpoints int64
	seedRounds  int64
	sentBytes   int64
	closed      chan struct{}
	wg          sync.WaitGroup
	reconnectOn bool

	mConnects    *trace.Counter
	mDisconnects *trace.Counter
	mReconnects  *trace.Counter
	mKeepalive   *trace.Counter
	mSentBytes   *trace.Counter
	mAcks        *trace.Counter
}

// Dial connects to cfg.Addr and performs the handshake. A permanent
// rejection (ErrFenced, ErrVersionMismatch) is returned immediately —
// reconnecting cannot cure it. A transient failure (connection
// refused, peer not up yet) returns a working Client in the
// disconnected state with the reconnect loop already running, so a
// primary may start before its secondary.
func Dial(cfg ClientConfig) (*Client, error) {
	cfg.withDefaults()
	if cfg.Addr == "" {
		return nil, fmt.Errorf("transport: no peer address")
	}
	if cfg.Protection == "" {
		return nil, fmt.Errorf("transport: no protection name")
	}
	if cfg.MemBytes == 0 {
		return nil, fmt.Errorf("transport: zero replica memory size")
	}
	c := &Client{
		cfg:     cfg,
		traceID: rand.Uint64(),
		state:   "disconnected",
		closed:  make(chan struct{}),
	}
	if reg := cfg.Metrics; reg != nil {
		c.mConnects = reg.Counter("here_transport_connects_total",
			"transport connections accepted or established")
		c.mDisconnects = reg.Counter("here_transport_disconnects_total",
			"transport connections lost or torn down")
		c.mReconnects = reg.Counter("here_transport_reconnects_total",
			"successful reconnects after a lost connection")
		c.mKeepalive = reg.Counter("here_transport_keepalive_misses_total",
			"keepalive intervals with no pong from the peer")
		c.mSentBytes = reg.Counter("here_transport_sent_bytes_total",
			"checkpoint and seed stream bytes sent")
		c.mAcks = reg.Counter("here_transport_acks_total",
			"epoch acknowledgements exchanged")
	}
	if err := c.connect(); err != nil {
		if isPermanent(err) {
			c.mu.Lock()
			c.state = "fenced"
			c.permErr = err
			c.mu.Unlock()
			return nil, err
		}
		c.cfg.Logf("transport: initial dial %s: %v (reconnecting)", cfg.Addr, err)
		c.startReconnect()
	}
	return c, nil
}

func isPermanent(err error) bool {
	var p interface{ Permanent() bool }
	return errors.As(err, &p) && p.Permanent()
}

// connect dials, handshakes, and on success installs a new session
// with its reader and keepalive goroutines.
func (c *Client) connect() error {
	conn, err := net.DialTimeout("tcp", c.cfg.Addr, c.cfg.DialTimeout)
	if err != nil {
		return err
	}
	c.mu.Lock()
	acked := c.serverAcked
	ackedOK := c.ackedOK
	c.mu.Unlock()
	h := hello{
		Version:     ProtocolVersion,
		WireVersion: wireVersion,
		Generation:  c.cfg.Generation,
		MemBytes:    c.cfg.MemBytes,
		TraceID:     c.traceID,
		Protection:  c.cfg.Protection,
	}
	if ackedOK {
		h.AckedSeq = acked + 1
	}
	conn.SetDeadline(time.Now().Add(c.cfg.DialTimeout))
	if err := writeMsg(conn, msgHello, nil, encodeHello(h)); err != nil {
		conn.Close()
		return fmt.Errorf("transport: sending hello: %w", err)
	}
	typ, payload, _, err := readMsg(conn)
	if err != nil {
		conn.Close()
		return fmt.Errorf("transport: reading handshake reply: %w", err)
	}
	defer putPayload(payload) // the welcome and the reject error are decoded by value
	conn.SetDeadline(time.Time{})
	switch typ {
	case msgWelcome:
	case msgReject:
		conn.Close()
		return rejectError(payload)
	default:
		conn.Close()
		return fmt.Errorf("transport: unexpected handshake reply 0x%02x", typ)
	}
	w, err := decodeWelcome(payload)
	if err != nil {
		conn.Close()
		return err
	}
	if w.Version != ProtocolVersion {
		conn.Close()
		return &permanentError{err: fmt.Errorf("%w: server speaks %d", ErrVersionMismatch, w.Version)}
	}

	sess := &session{
		conn: conn,
		acks: make(chan ackFrame, 1),
		done: make(chan struct{}),
	}
	c.mu.Lock()
	reconnected := c.connects > 0
	c.sess = sess
	c.state = "connected"
	c.serverGen = w.Generation
	if w.AckedSeq > 0 {
		c.serverAcked = w.AckedSeq - 1
		c.ackedOK = true
	} else {
		c.serverAcked = 0
		c.ackedOK = false
	}
	c.connects++
	c.mu.Unlock()

	c.mConnects.Inc()
	if reconnected {
		c.mReconnects.Inc()
	}
	c.cfg.Tracer.Event(trace.EventTransport, trace.NoEpoch, trace.Event{
		Note: fmt.Sprintf("connect %s gen=%d peer-acked=%d", c.cfg.Addr, c.cfg.Generation, w.AckedSeq),
	})
	c.cfg.Logf("transport: connected %s (peer acked %d, ok=%v)",
		c.cfg.Addr, w.AckedSeq, w.AckedSeq > 0)

	c.wg.Add(2)
	go c.readLoop(sess)
	go c.keepalive(sess)
	return nil
}

// readLoop dispatches inbound messages for one session until it dies.
func (c *Client) readLoop(sess *session) {
	defer c.wg.Done()
	for {
		typ, payload, _, err := readMsg(sess.conn)
		if err != nil {
			c.sessionDied(sess, "read: "+err.Error())
			return
		}
		switch typ {
		case msgPong:
			seq, err := decodeU64(payload)
			if err != nil {
				c.sessionDied(sess, "bad pong: "+err.Error())
				return
			}
			sess.mu.Lock()
			if seq > sess.pongSeen {
				sess.pongSeen = seq
			}
			sess.mu.Unlock()
		case msgAck:
			seq, spanID, st, err := decodeAck(payload)
			if err != nil {
				c.sessionDied(sess, "bad ack: "+err.Error())
				return
			}
			select {
			case sess.acks <- ackFrame{seq: seq, spanID: spanID, st: st}:
			default:
				// No sender waiting (timed out); drop.
			}
		case msgError:
			c.sessionDied(sess, "peer error: "+string(payload))
			return
		default:
			c.sessionDied(sess, fmt.Sprintf("unexpected message 0x%02x", typ))
			return
		}
		putPayload(payload) // every case above decoded it by value
	}
}

// keepalive pings on the configured interval and declares the session
// dead after KeepaliveMisses consecutive unanswered pings.
func (c *Client) keepalive(sess *session) {
	defer c.wg.Done()
	ticker := time.NewTicker(c.cfg.KeepaliveInterval)
	defer ticker.Stop()
	for {
		select {
		case <-sess.done:
			return
		case <-c.closed:
			return
		case <-ticker.C:
		}
		sess.mu.Lock()
		missed := sess.pingSent - sess.pongSeen
		sess.pingSent++
		seq := sess.pingSent
		sess.mu.Unlock()
		if missed > 0 {
			c.mKeepalive.Inc()
			c.cfg.Logf("transport: keepalive: %d unanswered ping(s)", missed)
		}
		if missed >= uint64(c.cfg.KeepaliveMisses) {
			c.sessionDied(sess, fmt.Sprintf("%d keepalive pings unanswered", missed))
			return
		}
		start := time.Now()
		sess.writeMu.Lock()
		err := writeMsg(sess.conn, msgPing, nil, u64payload(seq))
		sess.writeMu.Unlock()
		if err != nil {
			c.sessionDied(sess, "writing ping: "+err.Error())
			return
		}
		// Opportunistic RTT sample: if the pong lands before the next
		// tick we fold the observation into PropagationDelay via the
		// read loop's pongSeen timestamping below.
		go c.sampleRTT(sess, seq, start)
	}
}

// sampleRTT waits briefly for ping seq's pong and records the round
// trip; it gives up silently at the next keepalive interval.
func (c *Client) sampleRTT(sess *session, seq uint64, start time.Time) {
	deadline := time.NewTimer(c.cfg.KeepaliveInterval)
	defer deadline.Stop()
	tick := time.NewTicker(c.cfg.KeepaliveInterval / 20)
	defer tick.Stop()
	for {
		select {
		case <-sess.done:
			return
		case <-deadline.C:
			return
		case <-tick.C:
			sess.mu.Lock()
			seen := sess.pongSeen >= seq
			sess.mu.Unlock()
			if seen {
				rtt := time.Since(start)
				c.mu.Lock()
				c.rtt = rtt
				c.mu.Unlock()
				return
			}
		}
	}
}

// sessionDied tears one session down (once) and kicks off reconnect.
func (c *Client) sessionDied(sess *session, reason string) {
	if !sess.kill(reason) {
		return
	}
	c.mu.Lock()
	if c.sess == sess {
		c.sess = nil
		if c.state == "connected" {
			c.state = "disconnected"
		}
		c.disconnects++
	}
	closed := c.state == "closed"
	c.mu.Unlock()
	c.mDisconnects.Inc()
	c.cfg.Tracer.Event(trace.EventTransport, trace.NoEpoch, trace.Event{
		Outcome: "disconnect",
		Note:    reason,
	})
	c.cfg.Logf("transport: disconnected: %s", reason)
	if !closed {
		c.startReconnect()
	}
}

// startReconnect launches the redial loop if one is not already
// running.
func (c *Client) startReconnect() {
	c.mu.Lock()
	if c.reconnectOn || c.state == "closed" || c.state == "fenced" {
		c.mu.Unlock()
		return
	}
	c.reconnectOn = true
	c.mu.Unlock()
	c.wg.Add(1)
	go c.reconnectLoop()
}

// reconnectLoop redials with jittered exponential backoff until a
// handshake succeeds, a permanent rejection fences the client, or the
// client closes.
func (c *Client) reconnectLoop() {
	defer c.wg.Done()
	defer func() {
		c.mu.Lock()
		c.reconnectOn = false
		c.mu.Unlock()
	}()
	backoff := c.cfg.ReconnectMin
	for attempt := 0; ; attempt++ {
		// Full jitter: sleep uniformly in [backoff/2, backoff].
		d := backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1))
		select {
		case <-c.closed:
			return
		case <-time.After(d):
		}
		err := c.connect()
		if err == nil {
			return
		}
		if isPermanent(err) {
			c.mu.Lock()
			c.state = "fenced"
			c.permErr = err
			c.mu.Unlock()
			c.cfg.Tracer.Event(trace.EventTransport, trace.NoEpoch, trace.Event{
				Outcome: "fenced",
				Note:    err.Error(),
			})
			c.cfg.Logf("transport: fenced, giving up: %v", err)
			return
		}
		c.cfg.Logf("transport: redial %s failed (attempt %d): %v", c.cfg.Addr, attempt+1, err)
		backoff *= 2
		if backoff > c.cfg.ReconnectMax {
			backoff = c.cfg.ReconnectMax
		}
	}
}

// send ships one stream and waits for its acknowledgement.
func (c *Client) send(typ byte, seq uint64, stream []byte) error {
	ctx := streamCtx{Seq: seq, Gen: c.cfg.Generation, SpanID: c.traceID ^ seq}
	if _, err := msgLen(&ctx, len(stream)); err != nil {
		return err // permanent whatever the connection's state; no byte written
	}
	c.mu.Lock()
	sess := c.sess
	perm := c.permErr
	state := c.state
	c.mu.Unlock()
	if perm != nil {
		return perm
	}
	if state == "closed" {
		return ErrClosed
	}
	if sess == nil {
		return ErrDisconnected
	}

	// Drain a stale ack left by a previous timed-out send.
	select {
	case <-sess.acks:
	default:
	}

	sess.writeMu.Lock()
	err := writeMsg(sess.conn, typ, &ctx, stream)
	sess.writeMu.Unlock()
	if err != nil {
		c.sessionDied(sess, "write: "+err.Error())
		return fmt.Errorf("%w: %v", ErrDisconnected, err)
	}

	var frame ackFrame
	timer := time.NewTimer(c.cfg.AckTimeout)
	defer timer.Stop()
	select {
	case frame = <-sess.acks:
		if frame.seq != seq {
			c.sessionDied(sess, fmt.Sprintf("ack for epoch %d, want %d", frame.seq, seq))
			return fmt.Errorf("%w: ack desync", ErrDisconnected)
		}
	case <-sess.done:
		sess.mu.Lock()
		reason := sess.reason
		sess.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrDisconnected, reason)
	case <-timer.C:
		c.sessionDied(sess, "ack timeout")
		return ErrAckTimeout
	}

	c.mAcks.Inc()
	c.mSentBytes.Add(int64(len(stream)))
	c.mu.Lock()
	c.sentBytes += int64(len(stream))
	c.lastStages = frame.st
	c.lastStageOK = true
	if typ == msgCheckpoint {
		c.serverAcked = seq
		c.ackedOK = true
		c.checkpoints++
	} else {
		c.serverAcked = 0
		c.ackedOK = false
		c.seedRounds++
	}
	c.mu.Unlock()
	return nil
}

// SendCheckpoint ships one checkpoint wire stream and waits for the
// peer to decode, apply and acknowledge it. On success the epoch
// becomes the mutually-acknowledged resync point.
func (c *Client) SendCheckpoint(seq uint64, stream []byte) error {
	return c.send(msgCheckpoint, seq, stream)
}

// SendSeed ships one seeding-round wire stream. Seed rounds rebuild
// the replica baseline, so they clear the acknowledged-epoch marker
// until the first post-seed checkpoint.
func (c *Client) SendSeed(round uint64, stream []byte) error {
	return c.send(msgSeed, round, stream)
}

// LastRemoteStages reports the secondary-side stage timings (wire
// read, decode, apply, ack) carried back in the most recent stream
// acknowledgement. ok is false when no ack has arrived yet. The
// replicator reads this right after a successful SendCheckpoint to
// merge the remote stages into the epoch's cross-node breakdown.
func (c *Client) LastRemoteStages() (recv, decode, apply, ack time.Duration, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.lastStages
	return st.Recv, st.Decode, st.Apply, st.Ack, c.lastStageOK
}

// PeerAcked reports the last checkpoint epoch the peer acknowledged,
// refreshed by every handshake and every checkpoint ack. ok is false
// when the peer holds no acked checkpoint (never connected, or
// mid-seed).
func (c *Client) PeerAcked() (seq uint64, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.serverAcked, c.ackedOK
}

// Transfer probes the connection with a ping round trip and reports
// its duration — the generic byte-mover face of replication.Transport.
// The byte count is advisory (real streams ride SendCheckpoint); a
// disconnected transport returns ErrDisconnected so retry/degraded
// machinery engages exactly as it does for a downed simnet link.
func (c *Client) Transfer(bytes int64, streams int) (time.Duration, error) {
	c.mu.Lock()
	sess := c.sess
	perm := c.permErr
	c.mu.Unlock()
	if perm != nil {
		return 0, perm
	}
	if sess == nil {
		return 0, ErrDisconnected
	}
	sess.mu.Lock()
	sess.pingSent++
	seq := sess.pingSent
	sess.mu.Unlock()
	start := time.Now()
	sess.writeMu.Lock()
	err := writeMsg(sess.conn, msgPing, nil, u64payload(seq))
	sess.writeMu.Unlock()
	if err != nil {
		c.sessionDied(sess, "write: "+err.Error())
		return 0, ErrDisconnected
	}
	deadline := time.NewTimer(c.cfg.AckTimeout)
	defer deadline.Stop()
	poll := time.NewTicker(time.Millisecond)
	defer poll.Stop()
	for {
		select {
		case <-sess.done:
			return 0, ErrDisconnected
		case <-deadline.C:
			c.sessionDied(sess, "ping timeout")
			return 0, ErrDisconnected
		case <-poll.C:
			sess.mu.Lock()
			seen := sess.pongSeen >= seq
			sess.mu.Unlock()
			if seen {
				rtt := time.Since(start)
				c.mu.Lock()
				c.rtt = rtt
				c.mu.Unlock()
				return rtt, nil
			}
		}
	}
}

// Down reports whether the transport is currently unable to ship
// (disconnected, fenced, or closed).
func (c *Client) Down() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state != "connected"
}

// PropagationDelay reports half the last measured ping round trip —
// the one-way latency estimate the failure detector compares against
// its heartbeat interval.
func (c *Client) PropagationDelay() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rtt / 2
}

// Status reports the client's observable transport state.
func (c *Client) Status() PeerStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := PeerStatus{
		Role:        "client",
		Protection:  c.cfg.Protection,
		State:       c.state,
		Generation:  c.cfg.Generation,
		AckedSeq:    c.serverAcked,
		Acked:       c.ackedOK,
		Connects:    c.connects,
		Disconnects: c.disconnects,
		Checkpoints: c.checkpoints,
		SeedRounds:  c.seedRounds,
		Bytes:       c.sentBytes,
	}
	if c.sess != nil {
		st.RemoteAddr = c.cfg.Addr
	}
	return st
}

// Err reports the permanent error that fenced the client, if any.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.permErr
}

// Close tears the connection down and stops the reconnect loop.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.state == "closed" {
		c.mu.Unlock()
		return nil
	}
	c.state = "closed"
	sess := c.sess
	c.sess = nil
	c.mu.Unlock()
	close(c.closed)
	if sess != nil {
		sess.kill("closed")
	}
	c.wg.Wait()
	return nil
}
