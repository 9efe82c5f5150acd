// Package memory models guest physical memory and the dirty-page
// tracking facilities the replication engines rely on.
//
// Guest memory is a sparse page store: pages never written read as
// zeroes and consume no space, which lets experiments model the paper's
// 1–20 GB VMs without materializing gigabytes. Dirty tracking comes in
// two forms mirroring the paper's implementation on Xen:
//
//   - a shared DirtyBitmap (shadow-paging style log used by the
//     checkpointing phase and by stock Xen migration), and
//   - per-vCPU PMLRing buffers (Intel Page Modification Logging style,
//     §7.2) that HERE's seeding phase drains independently per vCPU.
package memory

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// PageSize is the guest page size in bytes (x86 4 KiB pages).
const PageSize = 4096

// PageNum identifies a guest physical page (guest frame number).
type PageNum uint64

// Addr is a guest physical byte address.
type Addr uint64

// Page reports the page containing a.
func (a Addr) Page() PageNum { return PageNum(a / PageSize) }

// Offset reports the offset of a within its page.
func (a Addr) Offset() int { return int(a % PageSize) }

// GuestMemory is the sparse guest physical memory of one VM.
// It is safe for concurrent use.
type GuestMemory struct {
	mu       sync.RWMutex
	numPages PageNum
	pages    map[PageNum]*[PageSize]byte
}

// NewGuestMemory returns guest memory of the given size. sizeBytes is
// rounded up to a whole number of pages.
func NewGuestMemory(sizeBytes uint64) *GuestMemory {
	pages := (sizeBytes + PageSize - 1) / PageSize
	return &GuestMemory{
		numPages: PageNum(pages),
		pages:    make(map[PageNum]*[PageSize]byte),
	}
}

// NumPages reports the number of guest pages.
func (m *GuestMemory) NumPages() PageNum { return m.numPages }

// SizeBytes reports the guest memory size in bytes.
func (m *GuestMemory) SizeBytes() uint64 { return uint64(m.numPages) * PageSize }

// PopulatedPages reports how many pages have ever been written
// (i.e. are backed by real storage).
func (m *GuestMemory) PopulatedPages() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.pages)
}

// PopulatedList returns the numbers of every populated page in
// ascending order — the page set a full-copy seeding must ship.
func (m *GuestMemory) PopulatedList() []PageNum {
	m.mu.RLock()
	out := make([]PageNum, 0, len(m.pages))
	for n := range m.pages {
		out = append(out, n)
	}
	m.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DiffPages returns, in ascending order, the populated pages of m
// whose content differs from ref's view of the same page (an
// unpopulated page reads as zeroes on either side). A nil ref makes
// every non-zero populated page differ. One-directional — a page only
// ref holds is not reported — so it is not a resync set; Diff is. The
// wall-clock benchmark's integrity checks call it both ways.
func (m *GuestMemory) DiffPages(ref *GuestMemory) []PageNum {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if ref != nil && ref != m {
		ref.mu.RLock()
		defer ref.mu.RUnlock()
	}
	out := m.differing(ref, make([]PageNum, 0, len(m.pages)))
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// differing appends to out m's populated pages that differ from ref's
// view of them (nil: all zeroes). The caller holds both locks.
func (m *GuestMemory) differing(ref *GuestMemory, out []PageNum) []PageNum {
	var zero [PageSize]byte
	var refPages map[PageNum]*[PageSize]byte // nil reads as empty
	if ref != nil {
		refPages = ref.pages
	}
	for n, pg := range m.pages {
		rp := refPages[n]
		if rp == nil {
			rp = &zero
		}
		if *pg != *rp {
			out = append(out, n)
		}
	}
	return out
}

// Diff returns, in ascending order, every page whose content differs
// between a and b, an unpopulated page reading as zeroes on either side:
// a page only a holds non-zero differs exactly as one only b holds — the
// set a drifted copy must receive, each page compared once.
func Diff(a, b *GuestMemory) []PageNum {
	if a == b {
		return nil
	}
	a.mu.RLock()
	defer a.mu.RUnlock()
	b.mu.RLock()
	defer b.mu.RUnlock()
	var zero [PageSize]byte
	out := a.differing(b, nil)
	for n, pb := range b.pages {
		if a.pages[n] == nil && *pb != zero {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Populated reports whether page n is backed by real storage. An
// unpopulated page reads as zeroes; a populated page may still be
// logically zero if it was overwritten byte-wise. The wire encoder
// uses this as its cheap zero-page test before touching content.
func (m *GuestMemory) Populated(n PageNum) bool {
	if n >= m.numPages {
		return false
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.pages[n] != nil
}

// ReadPage copies the content of page n into dst, which must be at
// least PageSize long. Unwritten pages read as zeroes.
func (m *GuestMemory) ReadPage(n PageNum, dst []byte) error {
	if n >= m.numPages {
		return fmt.Errorf("read page %d: beyond guest memory (%d pages)", n, m.numPages)
	}
	if len(dst) < PageSize {
		return fmt.Errorf("read page %d: dst too small (%d bytes)", n, len(dst))
	}
	m.mu.RLock()
	p := m.pages[n]
	m.mu.RUnlock()
	if p == nil {
		clear(dst[:PageSize])
		return nil
	}
	copy(dst, p[:])
	return nil
}

// WritePage replaces the content of page n with src, which must be at
// least PageSize long. Writing an all-zero page drops its backing store.
func (m *GuestMemory) WritePage(n PageNum, src []byte) error {
	if n >= m.numPages {
		return fmt.Errorf("write page %d: beyond guest memory (%d pages)", n, m.numPages)
	}
	if len(src) < PageSize {
		return fmt.Errorf("write page %d: src too small (%d bytes)", n, len(src))
	}
	if allZero(src[:PageSize]) {
		m.mu.Lock()
		delete(m.pages, n)
		m.mu.Unlock()
		return nil
	}
	m.mu.Lock()
	p := m.pages[n]
	if p == nil {
		p = new([PageSize]byte)
		m.pages[n] = p
	}
	copy(p[:], src[:PageSize])
	m.mu.Unlock()
	return nil
}

// Write copies data into guest memory starting at addr, spanning pages
// as needed.
func (m *GuestMemory) Write(addr Addr, data []byte) error {
	if uint64(addr)+uint64(len(data)) > m.SizeBytes() {
		return fmt.Errorf("write at %#x len %d: beyond guest memory", addr, len(data))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(data) > 0 {
		n := addr.Page()
		off := addr.Offset()
		chunk := PageSize - off
		if chunk > len(data) {
			chunk = len(data)
		}
		p := m.pages[n]
		if p == nil {
			p = new([PageSize]byte)
			m.pages[n] = p
		}
		copy(p[off:off+chunk], data[:chunk])
		data = data[chunk:]
		addr += Addr(chunk)
	}
	return nil
}

// Read copies guest memory starting at addr into dst.
func (m *GuestMemory) Read(addr Addr, dst []byte) error {
	if uint64(addr)+uint64(len(dst)) > m.SizeBytes() {
		return fmt.Errorf("read at %#x len %d: beyond guest memory", addr, len(dst))
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	for len(dst) > 0 {
		n := addr.Page()
		off := addr.Offset()
		chunk := PageSize - off
		if chunk > len(dst) {
			chunk = len(dst)
		}
		if p := m.pages[n]; p != nil {
			copy(dst[:chunk], p[off:off+chunk])
		} else {
			clear(dst[:chunk])
		}
		dst = dst[chunk:]
		addr += Addr(chunk)
	}
	return nil
}

// CopyPagesTo copies the content of the given pages into dst, which
// must be at least as large. Unpopulated source pages clear the
// corresponding destination pages, so after the call each listed page
// is logically identical on both sides. Pages beyond the source size
// are rejected.
func (m *GuestMemory) CopyPagesTo(pages []PageNum, dst *GuestMemory) error {
	if dst.NumPages() < m.numPages {
		return fmt.Errorf("copy pages: destination smaller (%d < %d pages)",
			dst.NumPages(), m.numPages)
	}
	for _, n := range pages {
		if n >= m.numPages {
			return fmt.Errorf("copy pages: page %d beyond guest memory (%d pages)", n, m.numPages)
		}
	}
	// Hold both locks across the batch: checkpoint batches run into
	// the millions of (mostly unpopulated) pages and per-page locking
	// dominates otherwise. The source VM is paused during checkpoint
	// copies, so the coarse critical section is not contended.
	m.mu.RLock()
	defer m.mu.RUnlock()
	dst.mu.Lock()
	defer dst.mu.Unlock()
	for _, n := range pages {
		src := m.pages[n]
		if src == nil {
			if len(dst.pages) > 0 {
				delete(dst.pages, n)
			}
			continue
		}
		p := dst.pages[n]
		if p == nil {
			p = new([PageSize]byte)
			dst.pages[n] = p
		}
		copy(p[:], src[:])
	}
	return nil
}

// Hash returns a content hash of the whole guest memory. Two memories
// with equal page contents (treating unwritten pages as zero) hash
// equally regardless of which pages happen to be materialized.
func (m *GuestMemory) Hash() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	nums := make([]PageNum, 0, len(m.pages))
	for n, p := range m.pages {
		if !allZero(p[:]) {
			nums = append(nums, n)
		}
	}
	sort.Slice(nums, func(i, j int) bool { return nums[i] < nums[j] })
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(m.numPages))
	h.Write(buf[:])
	for _, n := range nums {
		binary.LittleEndian.PutUint64(buf[:], uint64(n))
		h.Write(buf[:])
		h.Write(m.pages[n][:])
	}
	return h.Sum64()
}

// zeroPage is what allZero compares against; nothing writes it.
var zeroPage [PageSize]byte

// allZero reports whether b, at most a page long, holds only zeroes.
// bytes.Equal compares a word or more at a time where a byte loop
// spends a cycle on each of a zero page's 4096 bytes.
func allZero(b []byte) bool {
	return bytes.Equal(b, zeroPage[:len(b)])
}

// DirtyBitmap is a shared dirty-page log, one bit per guest page.
// It is safe for concurrent use.
type DirtyBitmap struct {
	mu    sync.Mutex
	words []uint64
	n     PageNum
	dirty int
}

// NewDirtyBitmap returns a bitmap covering numPages pages, all clean.
func NewDirtyBitmap(numPages PageNum) *DirtyBitmap {
	return &DirtyBitmap{
		words: make([]uint64, (numPages+63)/64),
		n:     numPages,
	}
}

// Set marks page n dirty. Out-of-range pages are ignored.
func (b *DirtyBitmap) Set(n PageNum) {
	if n >= b.n {
		return
	}
	b.mu.Lock()
	w, bit := n/64, uint64(1)<<(n%64)
	if b.words[w]&bit == 0 {
		b.words[w] |= bit
		b.dirty++
	}
	b.mu.Unlock()
}

// Test reports whether page n is dirty.
func (b *DirtyBitmap) Test(n PageNum) bool {
	if n >= b.n {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.words[n/64]&(uint64(1)<<(n%64)) != 0
}

// Count reports the number of dirty pages.
func (b *DirtyBitmap) Count() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dirty
}

// Snapshot atomically returns the sorted list of dirty pages and clears
// the bitmap ("read and reset", as Xen's log-dirty hypercall does).
func (b *DirtyBitmap) Snapshot() []PageNum {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]PageNum, 0, b.dirty)
	for wi, w := range b.words {
		for w != 0 {
			bit := w & (-w)
			idx := trailingZeros(w)
			out = append(out, PageNum(wi*64+idx))
			w &^= bit
		}
		b.words[wi] = 0
	}
	b.dirty = 0
	return out
}

// Peek returns the sorted list of dirty pages without clearing them.
func (b *DirtyBitmap) Peek() []PageNum {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]PageNum, 0, b.dirty)
	for wi, w := range b.words {
		for w != 0 {
			bit := w & (-w)
			idx := trailingZeros(w)
			out = append(out, PageNum(wi*64+idx))
			w &^= bit
		}
	}
	return out
}

func trailingZeros(w uint64) int {
	n := 0
	for w&1 == 0 {
		w >>= 1
		n++
	}
	return n
}

// ErrRingOverflow is returned by PMLRing.Push when the ring is full; the
// caller must fall back to the shared bitmap for the overflowed pages,
// as hardware PML forces a VM exit on a full log.
type ErrRingOverflow struct {
	VCPU int
}

func (e *ErrRingOverflow) Error() string {
	return fmt.Sprintf("pml ring for vcpu %d overflowed", e.VCPU)
}

// PMLRing is a per-vCPU dirty page ring buffer in the style of Intel
// Page Modification Logging. Each vCPU logs the pages it dirties to its
// own ring, which a seeding migrator thread drains without interrupting
// other vCPUs (paper §7.2). It is safe for concurrent use.
type PMLRing struct {
	mu       sync.Mutex
	vcpu     int
	buf      []PageNum
	overflow bool
}

// DefaultPMLCapacity mirrors the 512-entry hardware PML log.
const DefaultPMLCapacity = 512

// NewPMLRing returns an empty ring for the given vCPU with the given
// capacity (DefaultPMLCapacity if cap <= 0).
func NewPMLRing(vcpu, capacity int) *PMLRing {
	if capacity <= 0 {
		capacity = DefaultPMLCapacity
	}
	return &PMLRing{vcpu: vcpu, buf: make([]PageNum, 0, capacity)}
}

// Push logs a dirtied page. On a full ring it records the overflow
// condition and returns ErrRingOverflow; the entry is dropped.
func (r *PMLRing) Push(n PageNum) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) == cap(r.buf) {
		r.overflow = true
		return &ErrRingOverflow{VCPU: r.vcpu}
	}
	r.buf = append(r.buf, n)
	return nil
}

// Drain atomically removes and returns all logged pages (dirty-order,
// duplicates possible) along with whether the ring overflowed since the
// last drain. Draining resets the overflow condition.
func (r *PMLRing) Drain() (pages []PageNum, overflowed bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	pages = r.buf
	overflowed = r.overflow
	r.buf = make([]PageNum, 0, cap(r.buf))
	r.overflow = false
	return pages, overflowed
}

// Len reports the number of buffered entries.
func (r *PMLRing) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Tracker combines the shared dirty bitmap with per-vCPU PML rings, the
// two tracking facilities HERE's state manager uses (§5.1, §7.2).
type Tracker struct {
	bitmap *DirtyBitmap
	rings  []*PMLRing
}

// NewTracker returns a tracker for numPages pages and numVCPUs vCPUs.
func NewTracker(numPages PageNum, numVCPUs, ringCap int) *Tracker {
	rings := make([]*PMLRing, numVCPUs)
	for i := range rings {
		rings[i] = NewPMLRing(i, ringCap)
	}
	return &Tracker{bitmap: NewDirtyBitmap(numPages), rings: rings}
}

// MarkDirty records that vcpu dirtied page n in both the shared bitmap
// and the vCPU's PML ring. Ring overflow is absorbed here: the bitmap
// always has the page, so correctness never depends on the ring.
func (t *Tracker) MarkDirty(vcpu int, n PageNum) {
	t.bitmap.Set(n)
	if vcpu >= 0 && vcpu < len(t.rings) {
		_ = t.rings[vcpu].Push(n) // overflow falls back to the bitmap
	}
}

// Bitmap returns the shared dirty bitmap.
func (t *Tracker) Bitmap() *DirtyBitmap { return t.bitmap }

// Ring returns the PML ring of the given vCPU, or nil if out of range.
func (t *Tracker) Ring(vcpu int) *PMLRing {
	if vcpu < 0 || vcpu >= len(t.rings) {
		return nil
	}
	return t.rings[vcpu]
}

// NumVCPUs reports the number of per-vCPU rings.
func (t *Tracker) NumVCPUs() int { return len(t.rings) }

// RegionPages is the number of pages per checkpoint transfer region
// (2 MiB, paper §7.2: memory split into disjoint 2 MB regions assigned
// round-robin to migrator threads).
const RegionPages = 2 * 1024 * 1024 / PageSize

// RegionOf reports the 2 MiB region index containing page n.
func RegionOf(n PageNum) int { return int(n / RegionPages) }
