package transport_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/here-ft/here/internal/faults"
	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/trace"
	"github.com/here-ft/here/internal/transport"
	"github.com/here-ft/here/internal/wire"
)

const testMemBytes = 1 << 20 // 256 pages

// fill writes a recognizable pattern into pages [first, first+count).
func fill(t testing.TB, mem *memory.GuestMemory, first memory.PageNum, count int, tag byte) {
	t.Helper()
	var page [memory.PageSize]byte
	for i := 0; i < count; i++ {
		for j := range page {
			page[j] = tag + byte(i) + byte(j)
		}
		if err := mem.WritePage(first+memory.PageNum(i), page[:]); err != nil {
			t.Fatalf("WritePage: %v", err)
		}
	}
}

// legCodec is the sending side of a test protection, held the way a
// replication leg holds it: a content-aware encoder bound to a local
// mirror of the peer's replica, its delta baseline.
type legCodec struct {
	enc    *wire.Encoder
	mirror *memory.GuestMemory
}

func newLegCodec(t *testing.T) *legCodec {
	t.Helper()
	c := &legCodec{enc: wire.NewEncoder(true), mirror: memory.NewGuestMemory(testMemBytes)}
	if err := c.enc.Prime(c.mirror); err != nil {
		t.Fatalf("Prime: %v", err)
	}
	return c
}

// encode frames pages of mem into one checkpoint stream and applies it
// to the mirror (tests play the happy-path ack).
func encode(t *testing.T, c *legCodec, mem *memory.GuestMemory,
	pages []memory.PageNum, seq uint64) []byte {
	t.Helper()
	cp, err := c.enc.Encode(mem, pages, []byte(fmt.Sprintf("state-%d", seq)), nil, seq, 1)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if _, err := wire.Decode(cp.Stream, c.mirror); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	return cp.Stream
}

func pageRange(first memory.PageNum, count int) []memory.PageNum {
	out := make([]memory.PageNum, count)
	for i := range out {
		out[i] = first + memory.PageNum(i)
	}
	return out
}

// fastClient returns a ClientConfig with timing suited to tests.
func fastClient(addr string) transport.ClientConfig {
	return transport.ClientConfig{
		Addr:              addr,
		Protection:        "vm0",
		MemBytes:          testMemBytes,
		Generation:        1,
		DialTimeout:       2 * time.Second,
		KeepaliveInterval: 20 * time.Millisecond,
		KeepaliveMisses:   3,
		AckTimeout:        300 * time.Millisecond,
		ReconnectMin:      10 * time.Millisecond,
		ReconnectMax:      80 * time.Millisecond,
	}
}

// waitFor polls cond until it holds or the deadline lapses.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestCheckpointRoundTrip(t *testing.T) {
	reg := trace.NewRegistry()
	srv := transport.NewServer(transport.ServerConfig{Metrics: reg})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli, err := transport.Dial(fastClient(srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	mem := memory.NewGuestMemory(testMemBytes)
	enc := newLegCodec(t)
	fill(t, mem, 10, 4, 0x11)

	// A seeding round, then two checkpoints.
	if err := cli.SendSeed(1, encode(t, enc, mem, pageRange(10, 4), 1)); err != nil {
		t.Fatalf("SendSeed: %v", err)
	}
	if _, ok := cli.PeerAcked(); ok {
		t.Fatal("seed round must not set the acked checkpoint epoch")
	}
	fill(t, mem, 10, 2, 0x22)
	if err := cli.SendCheckpoint(1, encode(t, enc, mem, pageRange(10, 2), 1)); err != nil {
		t.Fatalf("SendCheckpoint 1: %v", err)
	}
	fill(t, mem, 12, 2, 0x33)
	if err := cli.SendCheckpoint(2, encode(t, enc, mem, pageRange(12, 2), 2)); err != nil {
		t.Fatalf("SendCheckpoint 2: %v", err)
	}

	if acked, ok := cli.PeerAcked(); !ok || acked != 2 {
		t.Fatalf("PeerAcked = %d,%v, want 2,true", acked, ok)
	}
	replica, state, acked, ok := srv.Replica("vm0")
	if !ok || acked != 2 {
		t.Fatalf("Replica acked = %d,%v, want 2,true", acked, ok)
	}
	if string(state) != "state-2" {
		t.Fatalf("replica state = %q, want state-2", state)
	}
	if replica.Hash() != mem.Hash() {
		t.Fatal("replica memory diverged from source")
	}
	sts := srv.Status()
	if len(sts) != 1 || sts[0].Checkpoints != 2 || sts[0].SeedRounds != 1 {
		t.Fatalf("server status = %+v", sts)
	}
	if got := cli.Status(); got.State != "connected" || got.Checkpoints != 2 {
		t.Fatalf("client status = %+v", got)
	}
	if reg.Counter("here_transport_checkpoints_total", "").Value() != 2 {
		t.Fatal("here_transport_checkpoints_total != 2")
	}
}

func TestFencedAtHandshake(t *testing.T) {
	reg := trace.NewRegistry()
	srv := transport.NewServer(transport.ServerConfig{
		Fence:   transport.StaticFence(5),
		Metrics: reg,
	})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cfg := fastClient(srv.Addr())
	cfg.Generation = 3
	_, err := transport.Dial(cfg)
	if err == nil {
		t.Fatal("stale generation accepted")
	}
	if !errors.Is(err, transport.ErrFenced) {
		t.Fatalf("error = %v, want ErrFenced", err)
	}
	var p interface{ Permanent() bool }
	if !errors.As(err, &p) || !p.Permanent() {
		t.Fatalf("fencing error not permanent: %v", err)
	}
	// Split-brain proof: not one byte of state reached the replica.
	if _, _, _, ok := srv.Replica("vm0"); ok {
		t.Fatal("fenced peer created replica state")
	}
	if reg.Counter("here_transport_fenced_total", "").Value() == 0 {
		t.Fatal("fenced handshake not counted")
	}

	// An up-to-generation peer is accepted on the same server.
	cfg.Generation = 5
	cli, err := transport.Dial(cfg)
	if err != nil {
		t.Fatalf("current-generation dial: %v", err)
	}
	cli.Close()
}

func TestStaleGenerationAfterTakeover(t *testing.T) {
	// The wire-level fence also remembers the highest generation each
	// protection has presented, so an old primary is refused even when
	// the server's guard has not advanced.
	srv := transport.NewServer(transport.ServerConfig{})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cfgA := fastClient(srv.Addr())
	cfgA.Generation = 2
	cliA, err := transport.Dial(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	defer cliA.Close()
	mem := memory.NewGuestMemory(testMemBytes)
	enc := newLegCodec(t)
	fill(t, mem, 0, 2, 0x44)
	if err := cliA.SendCheckpoint(1, encode(t, enc, mem, pageRange(0, 2), 1)); err != nil {
		t.Fatal(err)
	}

	cfgB := fastClient(srv.Addr())
	cfgB.Generation = 1
	_, err = transport.Dial(cfgB)
	if !errors.Is(err, transport.ErrFenced) {
		t.Fatalf("stale-generation dial error = %v, want ErrFenced", err)
	}
	if _, _, acked, ok := srv.Replica("vm0"); !ok || acked != 1 {
		t.Fatalf("replica acked = %d,%v after fenced dial, want 1,true", acked, ok)
	}
}

func TestReconnectResumesAckedEpoch(t *testing.T) {
	srv := transport.NewServer(transport.ServerConfig{})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	proxy, err := faults.NewProxy("127.0.0.1:0", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	cli, err := transport.Dial(fastClient(proxy.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	mem := memory.NewGuestMemory(testMemBytes)
	enc := newLegCodec(t)
	fill(t, mem, 5, 3, 0x55)
	if err := cli.SendCheckpoint(1, encode(t, enc, mem, pageRange(5, 3), 1)); err != nil {
		t.Fatal(err)
	}

	before := cli.Status()
	proxy.CutConnections()
	waitFor(t, "disconnect detection", func() bool {
		return cli.Status().Disconnects > before.Disconnects
	})
	waitFor(t, "reconnect", func() bool {
		st := cli.Status()
		return st.Connects > before.Connects && !cli.Down()
	})

	// The re-handshake restored the mutually-acked epoch.
	if acked, ok := cli.PeerAcked(); !ok || acked != 1 {
		t.Fatalf("PeerAcked after reconnect = %d,%v, want 1,true", acked, ok)
	}
	fill(t, mem, 5, 1, 0x66)
	if err := cli.SendCheckpoint(2, encode(t, enc, mem, pageRange(5, 1), 2)); err != nil {
		t.Fatalf("post-reconnect checkpoint: %v", err)
	}
	if st := cli.Status(); st.Connects < 2 || st.Disconnects < 1 {
		t.Fatalf("status after reconnect = %+v", st)
	}
}

func TestLostAckLeavesPeerAhead(t *testing.T) {
	// Stalling the downstream direction loses the acknowledgement after
	// the server applied the stream: the replica ends one epoch ahead
	// of the client's view. The re-handshake must surface the server's
	// acked epoch so the replicator can resync against it.
	srv := transport.NewServer(transport.ServerConfig{})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	proxy, err := faults.NewProxy("127.0.0.1:0", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	cli, err := transport.Dial(fastClient(proxy.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	mem := memory.NewGuestMemory(testMemBytes)
	enc := newLegCodec(t)
	fill(t, mem, 0, 2, 0x77)
	if err := cli.SendCheckpoint(1, encode(t, enc, mem, pageRange(0, 2), 1)); err != nil {
		t.Fatal(err)
	}

	proxy.SetStall(faults.Downstream, true)
	fill(t, mem, 2, 2, 0x88)
	err = cli.SendCheckpoint(2, encode(t, enc, mem, pageRange(2, 2), 2))
	if err == nil {
		t.Fatal("checkpoint acked through a stalled ack path")
	}
	// The server applied epoch 2 even though the client never saw the ack.
	waitFor(t, "server-side apply", func() bool {
		_, _, acked, ok := srv.Replica("vm0")
		return ok && acked == 2
	})

	proxy.SetStall(faults.Downstream, false)
	waitFor(t, "reconnect", func() bool { return !cli.Down() })
	if acked, ok := cli.PeerAcked(); !ok || acked != 2 {
		t.Fatalf("PeerAcked after lost ack = %d,%v, want 2,true (remote ahead)", acked, ok)
	}
}

func TestPartialWriteRejected(t *testing.T) {
	// A connection cut mid-message leaves the server with a truncated
	// stream; nothing may be applied from it.
	srv := transport.NewServer(transport.ServerConfig{})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	proxy, err := faults.NewProxy("127.0.0.1:0", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	cli, err := transport.Dial(fastClient(proxy.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	mem := memory.NewGuestMemory(testMemBytes)
	enc := newLegCodec(t)
	fill(t, mem, 0, 8, 0x99)

	// Cut each new connection after 64 upstream bytes: the next
	// checkpoint arrives truncated.
	before := cli.Status()
	proxy.CutAfter(64)
	proxy.CutConnections() // force a fresh (budgeted) connection
	waitFor(t, "disconnect detection", func() bool {
		return cli.Status().Disconnects > before.Disconnects
	})
	waitFor(t, "reconnect through budgeted proxy", func() bool {
		st := cli.Status()
		return st.Connects > before.Connects && !cli.Down()
	})

	err = cli.SendCheckpoint(1, encode(t, enc, mem, pageRange(0, 8), 1))
	if err == nil {
		t.Fatal("checkpoint survived a mid-stream cut")
	}
	if rep, _, acked, ok := srv.Replica("vm0"); ok {
		if acked != 0 {
			t.Fatalf("truncated stream advanced acked epoch to %d", acked)
		}
		if n := rep.PopulatedPages(); n != 0 {
			t.Fatalf("a stream cut mid-write put %d pages into the replica", n)
		}
	}
	if proxy.Cuts() == 0 {
		t.Fatal("proxy cut budget never fired")
	}

	// Disarm; the client recovers and the checkpoint goes through.
	proxy.CutAfter(0)
	waitFor(t, "recovery", func() bool { return !cli.Down() })
	waitFor(t, "checkpoint after recovery", func() bool {
		return cli.SendCheckpoint(1, encode(t, enc, mem, pageRange(0, 8), 1)) == nil
	})
}

func TestDialReturnsClientWhileServerDown(t *testing.T) {
	// A primary may start before its secondary: a refused dial yields a
	// working client in the disconnected state, and the reconnect loop
	// picks the server up when it appears.
	probe := transport.NewServer(transport.ServerConfig{})
	if err := probe.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr()
	probe.Close() // free the port; nothing listens now

	cli, err := transport.Dial(fastClient(addr))
	if err != nil {
		t.Fatalf("dial with server down: %v", err)
	}
	defer cli.Close()
	if !cli.Down() {
		t.Fatal("client claims connected with no server")
	}
	if err := cli.SendCheckpoint(1, []byte("x")); !errors.Is(err, transport.ErrDisconnected) {
		t.Fatalf("send while down = %v, want ErrDisconnected", err)
	}

	srv := transport.NewServer(transport.ServerConfig{})
	if err := srv.Listen(addr); err != nil {
		t.Skipf("port %s re-bind: %v", addr, err)
	}
	defer srv.Close()
	waitFor(t, "late connect", func() bool { return !cli.Down() })
}

func TestKeepaliveDetectsStalledPath(t *testing.T) {
	srv := transport.NewServer(transport.ServerConfig{})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	proxy, err := faults.NewProxy("127.0.0.1:0", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	reg := trace.NewRegistry()
	cfg := fastClient(proxy.Addr())
	cfg.Metrics = reg
	cli, err := transport.Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// Refuse reconnects and stall both directions: the client can only
	// learn the path is dead from missed keepalives.
	proxy.SetRefuse(true)
	proxy.SetStall(faults.Upstream, true)
	proxy.SetStall(faults.Downstream, true)
	waitFor(t, "keepalive failure detection", cli.Down)
	if reg.Counter("here_transport_keepalive_misses_total", "").Value() == 0 {
		t.Fatal("no keepalive misses counted")
	}

	proxy.SetStall(faults.Upstream, false)
	proxy.SetStall(faults.Downstream, false)
	proxy.SetRefuse(false)
	waitFor(t, "recovery", func() bool { return !cli.Down() })
}
