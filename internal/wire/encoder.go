package wire

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/trace"
)

// Encoder turns checkpoints into framed wire streams. In content-aware
// mode it picks the cheapest encoding per page: zero-run elision,
// XOR+RLE delta, or raw fallback.
//
// The delta baseline is the replica itself: Prime binds the memory the
// decoded streams land in, and every delta XORs against the page that
// memory holds at encode time. The encoder never writes it. The replica
// changes only when an acknowledged stream is decoded into it, so an
// abandoned checkpoint needs no codec step — the next encode still
// diffs against the last epoch the replica actually holds — and the
// encoder keeps no page copy of its own.
//
// An Encoder is safe for concurrent use; Encode itself fans the page
// work out across shard workers using the same round-robin 2 MiB
// region assignment as the transfer threads.
type Encoder struct {
	contentAware bool

	mu      sync.Mutex
	replica *memory.GuestMemory // the delta baseline, bound by Prime; read only

	// Registry counters (here_wire_*), set by Instrument; nil until then.
	rawBytesC, encodedBytesC, zeroPagesC, deltaFramesC, rawFramesC *trace.Counter
}

// Instrument registers the codec's counters into reg: every encoded
// stream accumulates its measured Stats into here_wire_raw_bytes_total,
// here_wire_encoded_bytes_total, here_wire_zero_pages_total,
// here_wire_delta_frames_total and here_wire_raw_frames_total.
func (e *Encoder) Instrument(reg *trace.Registry) {
	if reg == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rawBytesC = reg.Counter("here_wire_raw_bytes_total",
		"checkpoint payload before encoding")
	e.encodedBytesC = reg.Counter("here_wire_encoded_bytes_total",
		"framed stream bytes as shipped on the link")
	e.zeroPagesC = reg.Counter("here_wire_zero_pages_total",
		"pages elided as all-zero runs")
	e.deltaFramesC = reg.Counter("here_wire_delta_frames_total",
		"pages shipped as XOR deltas against the replica's page")
	e.rawFramesC = reg.Counter("here_wire_raw_frames_total",
		"pages shipped verbatim")
}

// NewEncoder returns an encoder. contentAware enables the zero/delta/
// raw encoding choice; false frames every page verbatim — the
// uncompressed baseline whose measured wire size matches what an
// unencoded stream would carry.
func NewEncoder(contentAware bool) *Encoder {
	return &Encoder{contentAware: contentAware}
}

// ContentAware reports whether content-aware encoding is enabled.
func (e *Encoder) ContentAware() bool { return e.contentAware }

// Prime binds the replica memory this encoder's streams are decoded
// into: from here on delta frames XOR against the pages mem holds when
// Encode runs. It copies nothing, so it costs the same for a fresh
// replica and for one that survived a previous process (the
// restart-resume path). Until a replica is bound there is nothing
// known to diff against and no delta frame is emitted.
func (e *Encoder) Prime(mem *memory.GuestMemory) error {
	if mem == nil {
		return fmt.Errorf("wire: prime from nil memory")
	}
	e.mu.Lock()
	e.replica = mem
	e.mu.Unlock()
	return nil
}

// Commit does nothing: the replica is the baseline, so an acknowledged
// stream has nothing to promote. It stays only because bench/probes.go,
// which an ordinary PR may not touch, calls it on its probe encoder; a
// bench-only PR primes that probe from its scratch replica instead of
// the guest and drops the call, and this method with it.
func (e *Encoder) Commit() {}

// Checkpoint is one encoded checkpoint stream.
type Checkpoint struct {
	// Seq is the checkpoint sequence number sealed in the commit frame.
	Seq uint64
	// Stream is the framed stream the decoder consumes.
	Stream []byte
	// WireSize is the modeled on-link size in bytes. It equals
	// len(Stream) except in raw mode, where zero-run frames stand for
	// the literal zero pages a real uncompressed stream would carry
	// and are charged at PageSize per page.
	WireSize int64
	// Stats is the encode measurement (WireSize = Stats.EncodedBytes).
	Stats Stats
}

// Encode frames one checkpoint: the given pages read from mem, the
// translated machine state record, and the journaled disk writes.
// Page encoding is sharded across `shards` workers by 2 MiB region,
// round-robin, mirroring the transfer threads. The VM is paused during
// checkpoints, so mem is stable for the duration of the call. A page
// listed more than once is framed once.
func (e *Encoder) Encode(mem *memory.GuestMemory, pages []memory.PageNum,
	state []byte, disk []DiskWrite, seq uint64, shards int) (*Checkpoint, error) {
	return e.encode(mem, pages, state, disk, seq, shards, false)
}

// EncodeOverwrite frames one checkpoint as overwrite-only content —
// zero-run and raw frames, never deltas — regardless of the encoder's
// mode. This is the remote-ahead resync stream: after a lost
// acknowledgement the peer replica may hold an epoch the bound replica
// memory does not (it applied a checkpoint whose ack never arrived), so
// XOR deltas would corrupt it. Overwrite frames are correct against any
// replica content, and decoding them leaves both sides equal on every
// page shipped: the next cycle is a plain delta again.
func (e *Encoder) EncodeOverwrite(mem *memory.GuestMemory, pages []memory.PageNum,
	state []byte, disk []DiskWrite, seq uint64) (*Checkpoint, error) {
	return e.encode(mem, pages, state, disk, seq, 1, true)
}

// encode is the one stream builder: page frames from framePages per
// shard, then the disk, state and commit frames and the stats.
func (e *Encoder) encode(mem *memory.GuestMemory, pages []memory.PageNum,
	state []byte, disk []DiskWrite, seq uint64, shards int, overwrite bool) (*Checkpoint, error) {

	start := time.Now()
	if mem == nil {
		return nil, fmt.Errorf("wire: encode: nil memory")
	}
	pages, err := uniquePages(pages, mem.NumPages())
	if err != nil {
		return nil, err
	}
	if shards < 1 {
		shards = 1
	}

	// An overwrite stream finds zero pages by content like a
	// content-aware one; it just may not delta.
	aware := e.contentAware || overwrite
	e.mu.Lock()
	var base *memory.GuestMemory
	if e.contentAware && !overwrite {
		base = e.replica
	}
	rawB, encB, zeroP, deltaF, rawF :=
		e.rawBytesC, e.encodedBytesC, e.zeroPagesC, e.deltaFramesC, e.rawFramesC
	e.mu.Unlock()

	// Round-robin 2 MiB region sharding, as the transfer threads do:
	// pages of region k go to worker k mod shards, preserving order so
	// consecutive zero pages still coalesce.
	parts := make([][]memory.PageNum, shards)
	for _, p := range pages {
		s := memory.RegionOf(p) % shards
		parts[s] = append(parts[s], p)
	}

	out := make([]shardFrames, shards)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		if len(parts[s]) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			out[s] = framePages(mem, base, aware, parts[s])
		}(s)
	}
	wg.Wait()

	stream := appendHeader(nil)
	var stats Stats
	for s := range out {
		stream = append(stream, out[s].buf...)
		stats.Add(out[s].stats)
	}

	var scratch []byte
	for _, w := range disk {
		if len(w.Data) != SectorSize {
			return nil, fmt.Errorf("wire: encode: disk write of %d bytes", len(w.Data))
		}
		scratch = scratch[:0]
		scratch = binary.LittleEndian.AppendUint64(scratch, w.Sector)
		scratch = append(scratch, w.Data...)
		stream = appendFrame(stream, frameDisk, scratch)
		stats.DiskFrames++
	}
	if state != nil {
		stream = appendFrame(stream, frameState, state)
		stats.StateFrames++
	}

	commit := make([]byte, 0, commitPayloadSize)
	commit = binary.LittleEndian.AppendUint64(commit, seq)
	commit = binary.LittleEndian.AppendUint64(commit,
		uint64(stats.ZeroPages)+uint64(stats.DeltaFrames)+uint64(stats.RawFrames))
	commit = binary.LittleEndian.AppendUint32(commit, uint32(stats.DiskFrames))
	commit = binary.LittleEndian.AppendUint32(commit, uint32(stats.StateFrames))
	stream = appendFrame(stream, frameCommit, commit)

	stats.RawBytes = int64(len(pages))*memory.PageSize + int64(len(state)) +
		int64(len(disk))*SectorSize
	stats.EncodedBytes = int64(len(stream))
	if !aware {
		// Raw mode ships the literal zeros; charge them.
		stats.EncodedBytes += stats.ZeroPages * memory.PageSize
	}
	stats.EncodeTime = time.Since(start)
	if rawB != nil {
		rawB.Add(stats.RawBytes)
		encB.Add(stats.EncodedBytes)
		zeroP.Add(stats.ZeroPages)
		deltaF.Add(stats.DeltaFrames)
		rawF.Add(stats.RawFrames)
	}
	return &Checkpoint{Seq: seq, Stream: stream, WireSize: stats.EncodedBytes, Stats: stats}, nil
}

// uniquePages checks every page against the memory size and drops
// repeats, keeping first occurrences: a page frames at most once per
// checkpoint in every mode. Dirty sets arrive ascending
// (DirtyBitmap.Snapshot / Peek), which the range check notices in the
// same pass; only an unordered list pays for a seen-bitmap and a copy.
func uniquePages(pages []memory.PageNum, numPages memory.PageNum) ([]memory.PageNum, error) {
	ascending := true
	for i, p := range pages {
		if p >= numPages {
			return nil, fmt.Errorf("wire: encode: page %d beyond memory (%d pages)", p, numPages)
		}
		if i > 0 && p <= pages[i-1] {
			ascending = false
		}
	}
	if ascending {
		return pages, nil
	}
	seen := memory.NewDirtyBitmap(numPages)
	out := make([]memory.PageNum, 0, len(pages))
	for _, p := range pages {
		if !seen.Test(p) {
			seen.Set(p)
			out = append(out, p)
		}
	}
	return out, nil
}

// shardFrames is one worker's output.
type shardFrames struct {
	buf   []byte
	stats Stats
}

// framePages is the one page framer: it frames one worker's pages of
// mem, already range-checked and free of repeats. aware finds zero
// pages by content (otherwise only never-populated pages count); a
// non-nil base allows delta frames, XORed against base's current page.
func framePages(mem, base *memory.GuestMemory, aware bool, pages []memory.PageNum) shardFrames {
	var (
		sf       shardFrames
		buf      [memory.PageSize]byte
		residual [memory.PageSize]byte
		payload  []byte
		rle      []byte
		runStart memory.PageNum
		runLen   uint32
	)
	flushRun := func() {
		if runLen == 0 {
			return
		}
		payload = payload[:0]
		payload = binary.LittleEndian.AppendUint64(payload, uint64(runStart))
		payload = binary.LittleEndian.AppendUint32(payload, runLen)
		sf.buf = appendFrame(sf.buf, frameZeroRun, payload)
		sf.stats.ZeroFrames++
		sf.stats.ZeroPages += int64(runLen)
		runLen = 0
	}

	for _, p := range pages {
		zero := !mem.Populated(p)
		if !zero {
			_ = mem.ReadPage(p, buf[:]) // p is in range, buf is a page
			zero = aware && allZero(buf[:])
		}
		if zero {
			if runLen > 0 && p == runStart+memory.PageNum(runLen) {
				runLen++
			} else {
				flushRun()
				runStart, runLen = p, 1
			}
			continue
		}
		flushRun()
		typ, body := frameRaw, buf[:]
		if base != nil {
			// XOR against the page the replica holds (an unpopulated one
			// reads as zeros, so first-time sparse content still deltas
			// well) and fall back to raw when the residual does not pay.
			if base.ReadPage(p, residual[:]) != nil {
				clear(residual[:]) // a page the replica lacks
			}
			for i := range residual {
				residual[i] ^= buf[i]
			}
			if rle = rleEncode(rle[:0], residual[:]); len(rle) < memory.PageSize {
				typ, body = frameDelta, rle
			}
		}
		payload = binary.LittleEndian.AppendUint64(payload[:0], uint64(p))
		payload = append(payload, body...)
		sf.buf = appendFrame(sf.buf, typ, payload)
		if typ == frameDelta {
			sf.stats.DeltaFrames++
		} else {
			sf.stats.RawFrames++
		}
	}
	flushRun()
	return sf
}
