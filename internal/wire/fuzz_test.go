package wire

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/here-ft/here/internal/memory"
)

// fuzzStream builds a small valid checkpoint stream for the seed
// corpus: a zero run, a content page, a delta on that page, disk
// writes and a state record across two epochs.
func fuzzStream(f *testing.F) []byte {
	f.Helper()
	enc := NewEncoder(true)
	src := memory.NewGuestMemory(64 * memory.PageSize)
	dst := memory.NewGuestMemory(64 * memory.PageSize)
	if err := enc.Prime(dst); err != nil {
		f.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	var buf [memory.PageSize]byte
	for i := range buf {
		buf[i] = byte(rng.Intn(256))
	}
	if err := src.WritePage(3, buf[:]); err != nil {
		f.Fatal(err)
	}
	cp, err := enc.Encode(src, []memory.PageNum{0, 1, 3}, nil, nil, 0, 2)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := Decode(cp.Stream, dst); err != nil {
		f.Fatal(err)
	}
	buf[17] ^= 0xF0
	if err := src.WritePage(3, buf[:]); err != nil {
		f.Fatal(err)
	}
	cp2, err := enc.Encode(src, []memory.PageNum{3}, []byte("state"),
		[]DiskWrite{{Sector: 2, Data: make([]byte, SectorSize)}}, 1, 2)
	if err != nil {
		f.Fatal(err)
	}
	return append(append([]byte(nil), cp.Stream...), cp2.Stream...)
}

// FuzzDecode feeds arbitrary byte streams to the checkpoint decoder:
// it must never panic, must reject malformed input with one of the
// package's typed errors, and must leave the destination memory
// untouched whenever it rejects. CommitSeq reads the same bytes first on
// the receive path and is held to the decoder's verdict.
func FuzzDecode(f *testing.F) {
	valid := fuzzStream(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte("HEREWIRE"))
	f.Add(append([]byte("HEREWIRE\x01\x00"), 0x01, 12, 0, 0, 0))
	f.Add([]byte("NOTMAGIC\x01\x00"))

	typed := []error{ErrTruncated, ErrMagic, ErrVersion, ErrFrameType,
		ErrFrameSize, ErrChecksum, ErrPageRange, ErrDelta, ErrCommit}
	f.Fuzz(func(t *testing.T, data []byte) {
		dst := memory.NewGuestMemory(64 * memory.PageSize)
		res, err := Decode(data, dst)
		// CommitSeq never refuses a stream Decode accepts, and agrees with
		// it on the epoch.
		if seq, cerr := CommitSeq(data); err == nil && (cerr != nil || seq != res.Seq) {
			t.Fatalf("CommitSeq = %d, %v on a stream Decode accepted as epoch %d", seq, cerr, res.Seq)
		}
		if err != nil {
			found := false
			for _, want := range typed {
				if errors.Is(err, want) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("untyped decode error: %v", err)
			}
			if dst.PopulatedPages() != 0 {
				t.Fatalf("rejected stream half-applied: %d pages", dst.PopulatedPages())
			}
			return
		}
		// Accepted input must carry a coherent result.
		if res.Pages < 0 || int64(len(res.Disk)) != res.Stats.DiskFrames {
			t.Fatalf("inconsistent result: %+v", res)
		}
	})
}
