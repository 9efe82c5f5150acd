package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"github.com/here-ft/here/internal/memory"
)

const testPages = 64 * memory.RegionPages // 128 MiB worth of page numbers

// newMem returns an empty guest memory of testPages pages.
func newMem() *memory.GuestMemory {
	return memory.NewGuestMemory(uint64(testPages) * memory.PageSize)
}

// randomPage fills a page buffer with seeded pseudo-random content.
func randomPage(rng *rand.Rand, buf []byte) {
	for i := range buf {
		buf[i] = byte(rng.Intn(256))
	}
}

// mutate dirties a set of pages on src with a mix of content: fresh
// random pages, small in-place edits, and explicit re-zeroing. It
// returns the dirty set.
func mutate(t *testing.T, rng *rand.Rand, src *memory.GuestMemory) []memory.PageNum {
	t.Helper()
	n := 1 + rng.Intn(200)
	seen := make(map[memory.PageNum]bool)
	var dirty []memory.PageNum
	var buf [memory.PageSize]byte
	for i := 0; i < n; i++ {
		p := memory.PageNum(rng.Intn(testPages))
		if seen[p] {
			continue
		}
		seen[p] = true
		dirty = append(dirty, p)
		switch rng.Intn(4) {
		case 0: // fresh random content
			randomPage(rng, buf[:])
		case 1: // small edit of the existing image (delta-friendly)
			if err := src.ReadPage(p, buf[:]); err != nil {
				t.Fatal(err)
			}
			off := rng.Intn(memory.PageSize - 8)
			for j := 0; j < 8; j++ {
				buf[off+j] = byte(rng.Intn(256))
			}
		case 2: // re-zeroed page (drops the backing page)
			clear(buf[:])
		case 3: // sparse content: a few words on a zero page
			clear(buf[:])
			buf[rng.Intn(memory.PageSize)] = byte(1 + rng.Intn(255))
		}
		if err := src.WritePage(p, buf[:]); err != nil {
			t.Fatal(err)
		}
	}
	return dirty
}

// newEncoder returns an encoder bound to dst, the replica its streams
// are decoded into.
func newEncoder(t *testing.T, contentAware bool, dst *memory.GuestMemory) *Encoder {
	t.Helper()
	enc := NewEncoder(contentAware)
	if err := enc.Prime(dst); err != nil {
		t.Fatal(err)
	}
	return enc
}

// roundTrip encodes the dirty set on src and decodes into dst — the
// acknowledged checkpoint — and fails the test on any error.
func roundTrip(t *testing.T, enc *Encoder, src, dst *memory.GuestMemory,
	dirty []memory.PageNum, seq uint64, shards int) (*Checkpoint, *Result) {
	t.Helper()
	cp, err := enc.Encode(src, dirty, nil, nil, seq, shards)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	res, err := Decode(cp.Stream, dst)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return cp, res
}

// TestRoundTripReproducesMemory drives many epochs of random mutation
// — including all-zero and re-zeroed pages — through both encoder
// modes and several shard counts, checking the decoded replica matches
// the source exactly after every epoch.
func TestRoundTripReproducesMemory(t *testing.T) {
	for _, contentAware := range []bool{false, true} {
		for _, shards := range []int{1, 3, 8} {
			rng := rand.New(rand.NewSource(int64(shards) + 100))
			src, dst := newMem(), newMem()
			enc := newEncoder(t, contentAware, dst)
			for epoch := 0; epoch < 12; epoch++ {
				dirty := mutate(t, rng, src)
				cp, res := roundTrip(t, enc, src, dst, dirty, uint64(epoch), shards)
				if src.Hash() != dst.Hash() {
					t.Fatalf("contentAware=%v shards=%d epoch %d: replica hash mismatch",
						contentAware, shards, epoch)
				}
				if res.Seq != uint64(epoch) {
					t.Fatalf("seq = %d, want %d", res.Seq, epoch)
				}
				if cp.Stats.RawBytes != int64(len(dirty))*memory.PageSize {
					t.Fatalf("RawBytes = %d, want %d pages",
						cp.Stats.RawBytes, len(dirty))
				}
				if got := cp.Stats.ZeroPages + cp.Stats.DeltaFrames +
					cp.Stats.RawFrames; got != int64(len(dirty)) {
					t.Fatalf("frame mix covers %d pages, dirty set has %d",
						got, len(dirty))
				}
			}
		}
	}
}

// TestContentAwareEncodesSmall checks the headline property: an idle
// or lightly-edited dirty set encodes to far fewer bytes than its raw
// size, via zero-run and delta frames.
func TestContentAwareEncodesSmall(t *testing.T) {
	src, dst := newMem(), newMem()
	enc := newEncoder(t, true, dst)
	rng := rand.New(rand.NewSource(7))

	// Epoch 0: 1000 touched-but-zero pages and 10 content pages.
	var dirty []memory.PageNum
	var buf [memory.PageSize]byte
	for p := memory.PageNum(0); p < 1000; p++ {
		dirty = append(dirty, p)
	}
	for p := memory.PageNum(1000); p < 1010; p++ {
		randomPage(rng, buf[:])
		if err := src.WritePage(p, buf[:]); err != nil {
			t.Fatal(err)
		}
		dirty = append(dirty, p)
	}
	cp, _ := roundTrip(t, enc, src, dst, dirty, 0, 4)
	if cp.Stats.ZeroPages != 1000 || cp.Stats.RawFrames != 10 {
		t.Fatalf("frame mix = %+v, want 1000 zero pages + 10 raw", cp.Stats)
	}
	// 1000 zero pages collapse to a handful of run frames; only the 10
	// random pages cost real bytes.
	if cp.WireSize > 11*memory.PageSize {
		t.Fatalf("WireSize = %d, want ≈ 10 pages", cp.WireSize)
	}

	// Epoch 1: edit 8 bytes in each content page — deltas should make
	// the whole checkpoint tiny.
	dirty = dirty[:0]
	for p := memory.PageNum(1000); p < 1010; p++ {
		if err := src.ReadPage(p, buf[:]); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 8; j++ {
			buf[100+j] ^= 0xFF
		}
		if err := src.WritePage(p, buf[:]); err != nil {
			t.Fatal(err)
		}
		dirty = append(dirty, p)
	}
	cp, _ = roundTrip(t, enc, src, dst, dirty, 1, 4)
	if cp.Stats.DeltaFrames != 10 {
		t.Fatalf("DeltaFrames = %d, want 10", cp.Stats.DeltaFrames)
	}
	if cp.WireSize > 1024 {
		t.Fatalf("delta checkpoint WireSize = %d, want well under 1 KiB", cp.WireSize)
	}
	if src.Hash() != dst.Hash() {
		t.Fatal("replica diverged")
	}
	if r := cp.Stats.Ratio(); r >= 0.01 {
		t.Fatalf("measured ratio = %f, want < 0.01", r)
	}
}

// TestRawModeChargesFullPages checks raw mode's modeled wire size: the
// stream still coalesces zero pages into run frames, but the link is
// charged PageSize per page as an unencoded stream would be.
func TestRawModeChargesFullPages(t *testing.T) {
	src, dst := newMem(), newMem()
	enc := newEncoder(t, false, dst)
	dirty := []memory.PageNum{0, 1, 2, 3, 4}
	cp, _ := roundTrip(t, enc, src, dst, dirty, 0, 2)
	if cp.WireSize < 5*memory.PageSize {
		t.Fatalf("WireSize = %d, want ≥ %d", cp.WireSize, 5*memory.PageSize)
	}
	if cp.Stats.ZeroFrames == 0 {
		t.Fatal("zero pages should still frame as runs physically")
	}
}

// TestRollbackKeepsBaseline checks that an abandoned checkpoint costs
// the codec nothing: a stream that is encoded but never decoded leaves
// the replica — the delta baseline — untouched, so the next encode
// still diffs against the last acknowledged epoch and the replica
// decodes to the source exactly.
func TestRollbackKeepsBaseline(t *testing.T) {
	src, dst := newMem(), newMem()
	enc := newEncoder(t, true, dst)
	var buf [memory.PageSize]byte
	rng := rand.New(rand.NewSource(3))
	randomPage(rng, buf[:])
	if err := src.WritePage(42, buf[:]); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, enc, src, dst, []memory.PageNum{42}, 0, 1)
	acked := dst.Hash()

	// Mutate and encode, but abandon the checkpoint: no decode.
	buf[0] ^= 0xAA
	if err := src.WritePage(42, buf[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := enc.Encode(src, []memory.PageNum{42}, nil, nil, 1, 1); err != nil {
		t.Fatal(err)
	}
	if dst.Hash() != acked {
		t.Fatal("encoding touched the replica")
	}

	// Mutate again; the re-encode must diff against epoch 0's image,
	// and the decoded replica must equal the current source.
	buf[1] ^= 0xBB
	if err := src.WritePage(42, buf[:]); err != nil {
		t.Fatal(err)
	}
	cp, _ := roundTrip(t, enc, src, dst, []memory.PageNum{42}, 2, 1)
	if cp.Stats.DeltaFrames != 1 {
		t.Fatalf("want a delta frame after the abandoned encode, got %+v", cp.Stats)
	}
	if src.Hash() != dst.Hash() {
		t.Fatal("replica diverged after abandon/re-encode")
	}
}

// TestRezeroedPageRoundTrips checks a page going all-zero and coming
// back: the zero run drops the replica's page, and the next content on
// it deltas against the implicit zero page, not the old image.
func TestRezeroedPageRoundTrips(t *testing.T) {
	src, dst := newMem(), newMem()
	enc := newEncoder(t, true, dst)
	var buf [memory.PageSize]byte
	buf[10] = 1
	if err := src.WritePage(5, buf[:]); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, enc, src, dst, []memory.PageNum{5}, 0, 1)
	clear(buf[:])
	if err := src.WritePage(5, buf[:]); err != nil {
		t.Fatal(err)
	}
	cp, _ := roundTrip(t, enc, src, dst, []memory.PageNum{5}, 1, 1)
	if cp.Stats.ZeroPages != 1 || dst.Populated(5) {
		t.Fatalf("re-zeroed page kept its replica image: stats %+v, populated %v",
			cp.Stats, dst.Populated(5))
	}
	buf[20] = 2
	if err := src.WritePage(5, buf[:]); err != nil {
		t.Fatal(err)
	}
	cp, _ = roundTrip(t, enc, src, dst, []memory.PageNum{5}, 2, 1)
	if cp.Stats.DeltaFrames != 1 {
		t.Fatalf("sparse content on a zero page should delta, got %+v", cp.Stats)
	}
	if src.Hash() != dst.Hash() {
		t.Fatal("replica diverged")
	}
}

// TestDuplicatePagesFrameOnce checks the one duplicate-page rule: a
// page listed twice is framed and counted once in every mode, in the
// order of first occurrence, and the replica still converges.
func TestDuplicatePagesFrameOnce(t *testing.T) {
	pages := []memory.PageNum{7, 3, 7, 600, 3, 4, 600}
	const unique = 4 // 7, 3, 600, 4
	for _, tc := range []struct {
		name                     string
		contentAware, overwrite  bool
		zero, delta, raw, encMin int64
	}{
		// Page 4 is never populated; 3 and 7 hold sparse content, 600 random.
		{name: "raw", zero: 1, raw: 3, encMin: 4 * memory.PageSize},
		{name: "content-aware", contentAware: true, zero: 1, delta: 2, raw: 1},
		{name: "overwrite", contentAware: true, overwrite: true, zero: 1, raw: 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src, dst := newMem(), newMem()
			enc := newEncoder(t, tc.contentAware, dst)
			var buf [memory.PageSize]byte
			for _, p := range []memory.PageNum{3, 7} {
				buf[int(p)] = byte(p)
				if err := src.WritePage(p, buf[:]); err != nil {
					t.Fatal(err)
				}
			}
			randomPage(rand.New(rand.NewSource(9)), buf[:])
			if err := src.WritePage(600, buf[:]); err != nil {
				t.Fatal(err)
			}
			var (
				cp  *Checkpoint
				err error
			)
			if tc.overwrite {
				cp, err = enc.EncodeOverwrite(src, pages, nil, nil, 0)
			} else {
				cp, err = enc.Encode(src, pages, nil, nil, 0, 2)
			}
			if err != nil {
				t.Fatal(err)
			}
			st := cp.Stats
			if st.ZeroPages != tc.zero || st.DeltaFrames != tc.delta || st.RawFrames != tc.raw {
				t.Fatalf("frame mix = %+v, want %d zero / %d delta / %d raw", st, tc.zero, tc.delta, tc.raw)
			}
			if st.RawBytes != unique*memory.PageSize {
				t.Fatalf("RawBytes = %d, want %d pages", st.RawBytes, unique)
			}
			if st.EncodedBytes < tc.encMin || st.EncodedBytes > (unique+1)*memory.PageSize {
				t.Fatalf("EncodedBytes = %d: a repeat was charged", st.EncodedBytes)
			}
			res, err := Decode(cp.Stream, dst)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if res.Pages != unique {
				t.Fatalf("commit frame counts %d pages, want %d", res.Pages, unique)
			}
			if src.Hash() != dst.Hash() {
				t.Fatal("replica diverged")
			}
		})
	}
}

// TestUnboundEncoderNeverDeltas checks the safe default: without a
// replica bound by Prime there is nothing known to diff against, so a
// content-aware encoder ships overwrite-safe frames only.
func TestUnboundEncoderNeverDeltas(t *testing.T) {
	enc := NewEncoder(true)
	src, dst := newMem(), newMem()
	var buf [memory.PageSize]byte
	buf[1] = 1
	for epoch := uint64(0); epoch < 2; epoch++ {
		buf[2] = byte(epoch)
		if err := src.WritePage(8, buf[:]); err != nil {
			t.Fatal(err)
		}
		cp, _ := roundTrip(t, enc, src, dst, []memory.PageNum{8}, epoch, 1)
		if cp.Stats.DeltaFrames != 0 || cp.Stats.RawFrames != 1 {
			t.Fatalf("epoch %d: frame mix = %+v, want one raw frame", epoch, cp.Stats)
		}
		if src.Hash() != dst.Hash() {
			t.Fatalf("epoch %d: replica diverged", epoch)
		}
	}
}

// TestPrimeCopiesNoPage checks that binding a replica is O(1): priming
// from a fully populated 64 MiB memory allocates next to nothing.
func TestPrimeCopiesNoPage(t *testing.T) {
	mem := memory.NewGuestMemory(64 << 20)
	var buf [memory.PageSize]byte
	buf[0] = 1
	for p := memory.PageNum(0); p < mem.NumPages(); p++ {
		if err := mem.WritePage(p, buf[:]); err != nil {
			t.Fatal(err)
		}
	}
	enc := NewEncoder(true)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := enc.Prime(mem); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1024 {
		t.Fatalf("Prime allocated %d bytes, want < 1 kB", got)
	}
	if err := enc.Prime(nil); err == nil {
		t.Fatal("nil replica accepted")
	}
}

// TestStateAndDiskFramesRoundTrip checks the non-page payloads.
func TestStateAndDiskFramesRoundTrip(t *testing.T) {
	enc := NewEncoder(true)
	src, dst := newMem(), newMem()
	state := []byte("machine-state-record")
	sector := make([]byte, SectorSize)
	sector[0] = 0xDE
	disk := []DiskWrite{{Sector: 9, Data: sector}, {Sector: 11, Data: sector}}
	cp, err := enc.Encode(src, nil, state, disk, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Decode(cp.Stream, dst)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.State, state) {
		t.Fatalf("state = %q, want %q", res.State, state)
	}
	if len(res.Disk) != 2 || res.Disk[0].Sector != 9 || res.Disk[1].Sector != 11 {
		t.Fatalf("disk writes = %+v", res.Disk)
	}
	if !bytes.Equal(res.Disk[0].Data, sector) {
		t.Fatal("sector data corrupted")
	}
	if cp.Stats.StateFrames != 1 || cp.Stats.DiskFrames != 2 {
		t.Fatalf("stats = %+v", cp.Stats)
	}
	if seq, err := CommitSeq(cp.Stream); err != nil || seq != 3 || seq != res.Seq {
		t.Fatalf("CommitSeq = %d, %v; the stream is sealed as 3", seq, err)
	}
	// The result owns its bytes: a receiver reuses the stream's buffer
	// for the next message as soon as Decode returns.
	for i := range cp.Stream {
		cp.Stream[i] = 0xEE
	}
	if !bytes.Equal(res.State, state) || !bytes.Equal(res.Disk[0].Data, sector) || !bytes.Equal(res.Disk[1].Data, sector) {
		t.Fatal("the decoded state record or a disk payload aliases the stream buffer")
	}
}

// TestDecodeRejectsCorruption flips every byte of a valid stream in
// turn: each corruption must be rejected with a typed error and must
// leave the destination untouched.
func TestDecodeRejectsCorruption(t *testing.T) {
	enc := NewEncoder(true)
	src := newMem()
	rng := rand.New(rand.NewSource(5))
	var buf [memory.PageSize]byte
	randomPage(rng, buf[:])
	if err := src.WritePage(1, buf[:]); err != nil {
		t.Fatal(err)
	}
	cp, err := enc.Encode(src, []memory.PageNum{0, 1}, []byte("st"),
		[]DiskWrite{{Sector: 1, Data: make([]byte, SectorSize)}}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	typed := []error{ErrTruncated, ErrMagic, ErrVersion, ErrFrameType,
		ErrFrameSize, ErrChecksum, ErrPageRange, ErrDelta, ErrCommit}
	for i := range cp.Stream {
		mutated := append([]byte(nil), cp.Stream...)
		mutated[i] ^= 0x01
		dst := newMem()
		_, err := Decode(mutated, dst)
		if err == nil {
			t.Fatalf("corruption at byte %d accepted", i)
		}
		// CommitSeq vouches for the commit frame alone: it names the
		// epoch the stream was sealed with or refuses, never another.
		if seq, err := CommitSeq(mutated); err == nil && seq != 0 || err != nil && !errors.Is(err, ErrCommit) {
			t.Fatalf("corruption at byte %d: CommitSeq = %d, %v", i, seq, err)
		}
		found := false
		for _, want := range typed {
			if errors.Is(err, want) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("corruption at byte %d: untyped error %v", i, err)
		}
		if dst.PopulatedPages() != 0 {
			t.Fatalf("corruption at byte %d half-applied: %d pages written",
				i, dst.PopulatedPages())
		}
	}
	// Truncation at every length must also reject without applying.
	for cut := 0; cut < len(cp.Stream); cut++ {
		dst := newMem()
		if _, err := Decode(cp.Stream[:cut], dst); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
		if dst.PopulatedPages() != 0 {
			t.Fatalf("truncation at %d half-applied", cut)
		}
		if seq, err := CommitSeq(cp.Stream[:cut]); !errors.Is(err, ErrCommit) {
			t.Fatalf("truncation at %d: CommitSeq = %d, %v", cut, seq, err)
		}
	}
}

// TestDecodeRejectsOutOfRange checks page- and structure-level limits.
func TestDecodeRejectsOutOfRange(t *testing.T) {
	enc := NewEncoder(false)
	big := memory.NewGuestMemory(16 * memory.PageSize)
	var buf [memory.PageSize]byte
	buf[0] = 1
	if err := big.WritePage(12, buf[:]); err != nil {
		t.Fatal(err)
	}
	cp, err := enc.Encode(big, []memory.PageNum{12}, nil, nil, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	small := memory.NewGuestMemory(4 * memory.PageSize)
	if _, err := Decode(cp.Stream, small); !errors.Is(err, ErrPageRange) {
		t.Fatalf("err = %v, want ErrPageRange", err)
	}
	if _, err := Decode(cp.Stream, nil); err == nil {
		t.Fatal("nil destination accepted")
	}
	if _, err := Decode(nil, small); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	if _, err := enc.Encode(big, []memory.PageNum{99}, nil, nil, 0, 1); err == nil {
		t.Fatal("encode accepted out-of-range page")
	}
}

// TestStatsRatio pins Stats.Ratio edge cases.
func TestStatsRatio(t *testing.T) {
	if r := (Stats{}).Ratio(); r != 1 {
		t.Fatalf("empty ratio = %v, want 1", r)
	}
	if r := (Stats{RawBytes: 100, EncodedBytes: 25}).Ratio(); r != 0.25 {
		t.Fatalf("ratio = %v, want 0.25", r)
	}
}
