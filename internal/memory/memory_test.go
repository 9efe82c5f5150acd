package memory

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestGuestMemorySizing(t *testing.T) {
	m := NewGuestMemory(10*PageSize + 1)
	if m.NumPages() != 11 {
		t.Fatalf("NumPages = %d, want 11 (rounded up)", m.NumPages())
	}
	if m.SizeBytes() != 11*PageSize {
		t.Fatalf("SizeBytes = %d, want %d", m.SizeBytes(), 11*PageSize)
	}
}

func TestGuestMemoryZeroFill(t *testing.T) {
	m := NewGuestMemory(4 * PageSize)
	buf := make([]byte, PageSize)
	for i := range buf {
		buf[i] = 0xFF
	}
	if err := m.ReadPage(2, buf); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("unwritten page byte %d = %#x, want 0", i, b)
		}
	}
	if m.PopulatedPages() != 0 {
		t.Fatalf("PopulatedPages = %d, want 0", m.PopulatedPages())
	}
}

func TestGuestMemoryWriteReadPage(t *testing.T) {
	m := NewGuestMemory(4 * PageSize)
	src := make([]byte, PageSize)
	for i := range src {
		src[i] = byte(i)
	}
	if err := m.WritePage(1, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, PageSize)
	if err := m.ReadPage(1, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, dst) {
		t.Fatal("read back mismatch")
	}
	if m.PopulatedPages() != 1 {
		t.Fatalf("PopulatedPages = %d, want 1", m.PopulatedPages())
	}
}

func TestGuestMemoryZeroPageDropsBacking(t *testing.T) {
	m := NewGuestMemory(2 * PageSize)
	src := make([]byte, PageSize)
	src[0] = 1
	if err := m.WritePage(0, src); err != nil {
		t.Fatal(err)
	}
	if m.PopulatedPages() != 1 {
		t.Fatal("expected one populated page")
	}
	clear(src)
	if err := m.WritePage(0, src); err != nil {
		t.Fatal(err)
	}
	if m.PopulatedPages() != 0 {
		t.Fatalf("all-zero write kept backing store: %d pages", m.PopulatedPages())
	}
}

// One non-zero byte anywhere in a page, the last one included, keeps
// the page backed and readable.
func TestGuestMemoryOneNonZeroByteKeepsBacking(t *testing.T) {
	for _, at := range []int{0, 7, 8, 2047, PageSize - 9, PageSize - 1} {
		m := NewGuestMemory(PageSize)
		src := make([]byte, PageSize)
		src[at] = 0x80
		if err := m.WritePage(0, src); err != nil {
			t.Fatal(err)
		}
		if m.PopulatedPages() != 1 {
			t.Fatalf("byte %d set: page dropped as all-zero", at)
		}
		got := make([]byte, PageSize)
		if err := m.ReadPage(0, got); err != nil || !bytes.Equal(got, src) {
			t.Fatalf("byte %d set: read back differs (err %v)", at, err)
		}
	}
}

func TestGuestMemoryBounds(t *testing.T) {
	m := NewGuestMemory(2 * PageSize)
	buf := make([]byte, PageSize)
	if err := m.ReadPage(2, buf); err == nil {
		t.Fatal("out-of-range ReadPage succeeded")
	}
	if err := m.WritePage(2, buf); err == nil {
		t.Fatal("out-of-range WritePage succeeded")
	}
	if err := m.ReadPage(0, buf[:10]); err == nil {
		t.Fatal("short dst ReadPage succeeded")
	}
	if err := m.WritePage(0, buf[:10]); err == nil {
		t.Fatal("short src WritePage succeeded")
	}
	if err := m.Write(Addr(2*PageSize-1), []byte{1, 2}); err == nil {
		t.Fatal("overflowing Write succeeded")
	}
	if err := m.Read(Addr(2*PageSize-1), buf[:2]); err == nil {
		t.Fatal("overflowing Read succeeded")
	}
}

func TestGuestMemoryCrossPageWrite(t *testing.T) {
	m := NewGuestMemory(3 * PageSize)
	data := make([]byte, PageSize+100)
	for i := range data {
		data[i] = byte(i % 251)
	}
	start := Addr(PageSize - 50)
	if err := m.Write(start, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := m.Read(start, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, got) {
		t.Fatal("cross-page write/read mismatch")
	}
}

func TestGuestMemoryHashIgnoresMaterializedZeroPages(t *testing.T) {
	a := NewGuestMemory(8 * PageSize)
	b := NewGuestMemory(8 * PageSize)
	data := make([]byte, PageSize)
	data[17] = 42
	if err := a.WritePage(3, data); err != nil {
		t.Fatal(err)
	}
	if err := b.WritePage(3, data); err != nil {
		t.Fatal(err)
	}
	// Materialize a zero page in b only (via a partial write of zeroes).
	if err := b.Write(Addr(5*PageSize), make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	if a.Hash() != b.Hash() {
		t.Fatal("hash differs despite equal logical contents")
	}
	data[17] = 43
	if err := b.WritePage(3, data); err != nil {
		t.Fatal(err)
	}
	if a.Hash() == b.Hash() {
		t.Fatal("hash collision on different contents")
	}
}

func TestGuestMemoryHashDependsOnSize(t *testing.T) {
	a := NewGuestMemory(4 * PageSize)
	b := NewGuestMemory(8 * PageSize)
	if a.Hash() == b.Hash() {
		t.Fatal("different-size empty memories hash equal")
	}
}

// Property: GuestMemory behaves like a flat byte array.
func TestGuestMemoryMatchesReferenceModel(t *testing.T) {
	const pages = 8
	type op struct {
		Addr uint16
		Data []byte
	}
	f := func(ops []op) bool {
		m := NewGuestMemory(pages * PageSize)
		ref := make([]byte, pages*PageSize)
		for _, o := range ops {
			addr := int(o.Addr) % (pages * PageSize)
			data := o.Data
			if len(data) > pages*PageSize-addr {
				data = data[:pages*PageSize-addr]
			}
			if err := m.Write(Addr(addr), data); err != nil {
				return false
			}
			copy(ref[addr:], data)
		}
		got := make([]byte, len(ref))
		if err := m.Read(0, got); err != nil {
			return false
		}
		return bytes.Equal(ref, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDirtyBitmapBasics(t *testing.T) {
	b := NewDirtyBitmap(200)
	if b.Count() != 0 {
		t.Fatal("fresh bitmap not clean")
	}
	b.Set(0)
	b.Set(63)
	b.Set(64)
	b.Set(199)
	b.Set(199) // duplicate
	b.Set(500) // out of range, ignored
	if b.Count() != 4 {
		t.Fatalf("Count = %d, want 4", b.Count())
	}
	if !b.Test(63) || b.Test(62) || b.Test(500) {
		t.Fatal("Test gives wrong answers")
	}
	got := b.Snapshot()
	want := []PageNum{0, 63, 64, 199}
	if len(got) != len(want) {
		t.Fatalf("Snapshot = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Snapshot = %v, want %v", got, want)
		}
	}
	if b.Count() != 0 || len(b.Snapshot()) != 0 {
		t.Fatal("Snapshot did not clear the bitmap")
	}
}

func TestDirtyBitmapPeekDoesNotClear(t *testing.T) {
	b := NewDirtyBitmap(100)
	b.Set(10)
	b.Set(20)
	if got := b.Peek(); len(got) != 2 {
		t.Fatalf("Peek = %v", got)
	}
	if b.Count() != 2 {
		t.Fatal("Peek cleared the bitmap")
	}
}

// Property: Snapshot returns exactly the distinct set pages, sorted.
func TestDirtyBitmapSnapshotProperty(t *testing.T) {
	f := func(pages []uint16) bool {
		const n = 1 << 12
		b := NewDirtyBitmap(n)
		seen := map[PageNum]bool{}
		for _, p := range pages {
			pn := PageNum(p) % n
			b.Set(pn)
			seen[pn] = true
		}
		snap := b.Snapshot()
		if len(snap) != len(seen) {
			return false
		}
		for i, p := range snap {
			if !seen[p] {
				return false
			}
			if i > 0 && snap[i-1] >= p {
				return false
			}
		}
		return b.Count() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPMLRingPushDrain(t *testing.T) {
	r := NewPMLRing(2, 4)
	if r.VCPU() != 2 {
		t.Fatalf("VCPU = %d", r.VCPU())
	}
	for i := 0; i < 4; i++ {
		if err := r.Push(PageNum(i)); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	err := r.Push(99)
	var over *ErrRingOverflow
	if !errors.As(err, &over) || over.VCPU != 2 {
		t.Fatalf("overflow error = %v", err)
	}
	pages, overflowed := r.Drain()
	if len(pages) != 4 || !overflowed {
		t.Fatalf("Drain = %v overflow=%v", pages, overflowed)
	}
	if r.Len() != 0 {
		t.Fatal("ring not empty after drain")
	}
	if _, overflowed := r.Drain(); overflowed {
		t.Fatal("overflow flag not reset by drain")
	}
}

func TestPMLRingDefaultCapacity(t *testing.T) {
	r := NewPMLRing(0, 0)
	for i := 0; i < DefaultPMLCapacity; i++ {
		if err := r.Push(PageNum(i)); err != nil {
			t.Fatalf("push %d on default-capacity ring: %v", i, err)
		}
	}
	if err := r.Push(0); err == nil {
		t.Fatal("expected overflow at default capacity")
	}
}

func TestTrackerRoutesToRingAndBitmap(t *testing.T) {
	tr := NewTracker(1000, 2, 8)
	tr.MarkDirty(0, 5)
	tr.MarkDirty(1, 6)
	tr.MarkDirty(-1, 7) // no ring, bitmap only
	tr.MarkDirty(9, 8)  // out-of-range vcpu, bitmap only
	if tr.Bitmap().Count() != 4 {
		t.Fatalf("bitmap count = %d, want 4", tr.Bitmap().Count())
	}
	p0, _ := tr.Ring(0).Drain()
	p1, _ := tr.Ring(1).Drain()
	if len(p0) != 1 || p0[0] != 5 {
		t.Fatalf("ring0 = %v", p0)
	}
	if len(p1) != 1 || p1[0] != 6 {
		t.Fatalf("ring1 = %v", p1)
	}
	if tr.Ring(5) != nil || tr.Ring(-1) != nil {
		t.Fatal("out-of-range Ring must be nil")
	}
	if tr.NumVCPUs() != 2 {
		t.Fatalf("NumVCPUs = %d", tr.NumVCPUs())
	}
}

func TestTrackerSurvivesRingOverflow(t *testing.T) {
	tr := NewTracker(10000, 1, 2)
	for i := 0; i < 100; i++ {
		tr.MarkDirty(0, PageNum(i))
	}
	// Bitmap has everything even though the ring overflowed.
	if tr.Bitmap().Count() != 100 {
		t.Fatalf("bitmap count = %d, want 100", tr.Bitmap().Count())
	}
	_, overflowed := tr.Ring(0).Drain()
	if !overflowed {
		t.Fatal("ring should have overflowed")
	}
}

func TestRegions(t *testing.T) {
	if RegionPages != 512 {
		t.Fatalf("RegionPages = %d, want 512 (2 MiB of 4 KiB pages)", RegionPages)
	}
	if RegionOf(0) != 0 || RegionOf(511) != 0 || RegionOf(512) != 1 {
		t.Fatal("RegionOf wrong")
	}
	if NumRegions(0) != 0 || NumRegions(1) != 1 || NumRegions(512) != 1 || NumRegions(513) != 2 {
		t.Fatal("NumRegions wrong")
	}
}

func TestAddrHelpers(t *testing.T) {
	a := Addr(PageSize + 10)
	if a.Page() != 1 || a.Offset() != 10 {
		t.Fatalf("Page/Offset = %d/%d", a.Page(), a.Offset())
	}
}

func TestCopyPagesTo(t *testing.T) {
	src := NewGuestMemory(8 * PageSize)
	dst := NewGuestMemory(8 * PageSize)
	data := make([]byte, PageSize)
	data[0] = 0xAB
	if err := src.WritePage(2, data); err != nil {
		t.Fatal(err)
	}
	// Stale content in dst that the copy must clear.
	if err := dst.WritePage(3, data); err != nil {
		t.Fatal(err)
	}
	if err := src.CopyPagesTo([]PageNum{2, 3}, dst); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, PageSize)
	if err := dst.ReadPage(2, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xAB {
		t.Fatal("page 2 content not copied")
	}
	if err := dst.ReadPage(3, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 {
		t.Fatal("stale page 3 not cleared by unpopulated source page")
	}
	if src.Hash() != dst.Hash() {
		t.Fatal("hashes differ after full logical copy")
	}
}

func TestCopyPagesToErrors(t *testing.T) {
	src := NewGuestMemory(8 * PageSize)
	small := NewGuestMemory(4 * PageSize)
	if err := src.CopyPagesTo([]PageNum{0}, small); err == nil {
		t.Fatal("copy into smaller memory succeeded")
	}
	dst := NewGuestMemory(8 * PageSize)
	if err := src.CopyPagesTo([]PageNum{8}, dst); err == nil {
		t.Fatal("copy of out-of-range page succeeded")
	}
}

// page returns a page filled with b.
func page(b byte) []byte { return bytes.Repeat([]byte{b}, PageSize) }

// TestDiffSeesBothDirections walks every way two copies of a guest can
// hold a page — never held, held all-zero (a byte-wise zeroing keeps the
// backing), held non-zero — on each side. Diff must report exactly the
// pages whose logical content differs, whichever side holds them, and
// the same set both ways round.
func TestDiffSeesBothDirections(t *testing.T) {
	const (
		absent = iota
		zeroed
		ones
		twos
	)
	put := func(m *GuestMemory, n PageNum, kind int) {
		switch kind {
		case zeroed:
			if err := m.Write(Addr(n)*PageSize, page(0)); err != nil {
				t.Fatal(err)
			}
		case ones, twos:
			if err := m.WritePage(n, page(byte(kind))); err != nil {
				t.Fatal(err)
			}
		}
	}
	a, b := NewGuestMemory(16*PageSize), NewGuestMemory(16*PageSize)
	var want []PageNum
	n := PageNum(0)
	for ka := absent; ka <= twos; ka++ {
		for kb := absent; kb <= twos; kb++ {
			put(a, n, ka)
			put(b, n, kb)
			if la, lb := max(ka, zeroed), max(kb, zeroed); la != lb {
				want = append(want, n)
			}
			n++
		}
	}
	for _, got := range [][]PageNum{Diff(a, b), Diff(b, a)} {
		if len(got) != len(want) {
			t.Fatalf("Diff = %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Diff = %v, want %v", got, want)
			}
		}
	}
	if d := Diff(a, a); d != nil {
		t.Fatalf("Diff(a, a) = %v", d)
	}
	// The one-way DiffPages misses what only the other side holds.
	if one := a.DiffPages(b); len(one) >= len(want) {
		t.Fatalf("DiffPages = %v: the one-way walk should miss pages only b holds (%v)", one, want)
	}
	// Copying the diff makes the copies equal, zero pages included.
	if err := a.CopyPagesTo(want, b); err != nil {
		t.Fatal(err)
	}
	if d := Diff(a, b); len(d) != 0 || a.Hash() != b.Hash() {
		t.Fatalf("after copying the diff the memories still differ in %v", d)
	}
}
