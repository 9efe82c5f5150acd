package transport_test

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/transport"
	"github.com/here-ft/here/internal/wire"
)

// bulkRig is a real Server on loopback, one connected Client and a guest
// whose every page is populated, for tests and benchmarks that move
// checkpoint-sized streams.
type bulkRig struct {
	srv   *transport.Server
	cli   *transport.Client
	guest *memory.GuestMemory
	enc   *wire.Encoder // raw: a stream of n pages is n*(PageSize+17) bytes and change
}

func newBulkRig(tb testing.TB, memBytes uint64) *bulkRig {
	tb.Helper()
	r := &bulkRig{guest: memory.NewGuestMemory(memBytes), enc: wire.NewEncoder(false)}
	fill(tb, r.guest, 0, int(r.guest.NumPages()), 0x01)
	r.srv = transport.NewServer(transport.ServerConfig{})
	if err := r.srv.Listen("127.0.0.1:0"); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { r.srv.Close() })
	cfg := fastClient(r.srv.Addr())
	cfg.MemBytes = memBytes
	cfg.KeepaliveInterval = time.Second
	cfg.AckTimeout = 30 * time.Second
	cli, err := transport.Dial(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { cli.Close() })
	r.cli = cli
	return r
}

// stream frames the guest's first n pages as checkpoint seq.
func (r *bulkRig) stream(tb testing.TB, n int, state []byte, disk []wire.DiskWrite, seq uint64) []byte {
	tb.Helper()
	cp, err := r.enc.Encode(r.guest, pageRange(0, n), state, disk, seq, 2)
	if err != nil {
		tb.Fatal(err)
	}
	return cp.Stream
}

// TestBufferReuseKeepsWhatWasApplied: large, small, large checkpoints
// back to back, each with a state record and disk frames, through a real
// Server whose payload buffer is recycled between them. The replica
// equals a local decode of the same streams after each one, and the
// state record the server kept from the first message is still intact
// after later messages have reused the buffer it arrived in — apply
// copies what it keeps.
func TestBufferReuseKeepsWhatWasApplied(t *testing.T) {
	const memBytes = 4 << 20
	r := newBulkRig(t, memBytes)
	mirror := memory.NewGuestMemory(memBytes)
	sector := func(tag byte) []wire.DiskWrite {
		return []wire.DiskWrite{
			{Sector: uint64(tag), Data: bytes.Repeat([]byte{tag}, wire.SectorSize)},
			{Sector: uint64(tag) + 1, Data: bytes.Repeat([]byte{^tag}, wire.SectorSize)},
		}
	}

	var firstState []byte // the server's own slice, not a copy
	for i, pages := range []int{1000, 2, 1000, 16, 1000} {
		seq := uint64(i + 1)
		state := bytes.Repeat([]byte{byte(0x40 + i)}, 300)
		// Change what the pages hold, so an apply that went missing shows.
		for p := 0; p < pages; p += 7 {
			if err := r.guest.WritePage(memory.PageNum(p), bytes.Repeat([]byte{byte(seq)}, memory.PageSize)); err != nil {
				t.Fatal(err)
			}
		}
		stream := r.stream(t, pages, state, sector(byte(i)), seq)
		if err := r.cli.SendCheckpoint(seq, stream); err != nil {
			t.Fatalf("checkpoint %d (%d pages): %v", seq, pages, err)
		}
		if _, err := wire.Decode(stream, mirror); err != nil {
			t.Fatal(err)
		}
		mem, gotState, acked, ok := r.srv.Replica("vm0")
		if !ok || acked != seq {
			t.Fatalf("checkpoint %d: replica acked %d, %v", seq, acked, ok)
		}
		if mem.Hash() != mirror.Hash() {
			t.Fatalf("checkpoint %d (%d pages): replica differs from a local decode of the same streams", seq, pages)
		}
		if !bytes.Equal(gotState, state) {
			t.Fatalf("checkpoint %d: replica state record is not the one sent", seq)
		}
		if i == 0 {
			firstState = gotState
		}
		if want := bytes.Repeat([]byte{0x40}, 300); !bytes.Equal(firstState, want) {
			t.Fatalf("after checkpoint %d the first message's state record changed: it aliased the receive buffer", seq)
		}
	}
}

// allocatedBy reports the least number of bytes one call of f allocated,
// process wide, over a few tries — the least because under -race
// sync.Pool drops a quarter of what it is given, on purpose.
func allocatedBy(f func()) uint64 {
	least := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 8; i++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d < least {
			least = d
		}
	}
	return least
}

// TestSendCheckpointAllocatesNoStreamCopy: once a size has been seen,
// shipping a checkpoint allocates nothing proportional to it on either
// end — the client writes the caller's stream in place, the server reads
// into the buffer the previous message of that size left in the pool.
// Client and server share this process, so the figure covers both; what
// remains is wire.Decode's frame index. The collector is off so that it
// cannot empty the pool between two messages.
func TestSendCheckpointAllocatesNoStreamCopy(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	r := newBulkRig(t, 16<<20)
	for _, pages := range []int{16, 2048} { // 64 KiB and 8 MiB of page content
		stream := r.stream(t, pages, []byte("state"), nil, 1)
		send := func() {
			if err := r.cli.SendCheckpoint(1, stream); err != nil {
				t.Fatal(err)
			}
		}
		send() // the first message of a size allocates its buffer
		if got, limit := allocatedBy(send), uint64(len(stream)/4); got > limit {
			t.Errorf("shipping a %d-byte stream allocated %d bytes, want under %d: a copy of the stream was made", len(stream), got, limit)
		}
	}
}

// BenchmarkSendCheckpoint ships one checkpoint stream of the named page
// content over loopback TCP to a real Server, which decodes it into its
// replica and acknowledges it: the transport layer end to end, wire
// decode included. MB/s is stream bytes over the full round trip; B/op
// covers both ends, which share the process.
func BenchmarkSendCheckpoint(b *testing.B) {
	const memBytes = 64 << 20
	r := newBulkRig(b, memBytes)
	for _, size := range []struct {
		name  string
		bytes int
	}{{"64KiB", 64 << 10}, {"8MiB", 8 << 20}, {"64MiB", 64 << 20}} {
		stream := r.stream(b, size.bytes/memory.PageSize, []byte("state"), nil, 1)
		b.Run(size.name, func(b *testing.B) {
			b.SetBytes(int64(len(stream)))
			b.ReportAllocs()
			for b.Loop() {
				if err := r.cli.SendCheckpoint(1, stream); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
