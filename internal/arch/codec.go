package arch

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// ByteOrder is a byte order that both reads and appends, such as
// binary.LittleEndian or binary.BigEndian.
type ByteOrder interface {
	binary.ByteOrder
	binary.AppendByteOrder
}

// Writer appends the fields of a native save image in one byte order.
// A value that does not fit its field is an error, never a truncation:
// an image that cannot hold the state must fail to encode rather than
// hand the replica a different machine. The first error sticks; every
// later call is a no-op and Finish reports it.
type Writer struct {
	order ByteOrder
	buf   []byte
	err   error
}

// NewWriter starts an image with its magic.
func NewWriter(order ByteOrder, magic string) *Writer {
	return &Writer{order: order, buf: append(make([]byte, 0, 1024), magic...)}
}

// Finish returns the image, or the first error.
func (w *Writer) Finish() ([]byte, error) {
	if w.err != nil {
		return nil, w.err
	}
	return w.buf, nil
}

// U8 appends v as one byte.
func (w *Writer) U8(v uint64) { w.uint(1, v) }

// U16 appends v as two bytes.
func (w *Writer) U16(v uint64) { w.uint(2, v) }

// U32 appends v as four bytes.
func (w *Writer) U32(v uint64) { w.uint(4, v) }

// U64 appends v as eight bytes.
func (w *Writer) U64(v uint64) { w.uint(8, v) }

// Bool appends b as one byte, 0 or 1.
func (w *Writer) Bool(b bool) {
	if b {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Raw appends s with no length.
func (w *Writer) Raw(s string) {
	if w.err == nil {
		w.buf = append(w.buf, s...)
	}
}

// Str appends s after its u16 length.
func (w *Writer) Str(s string) {
	w.U16(uint64(len(s)))
	w.Raw(s)
}

// Bytes appends p after its length, a width-byte field.
func (w *Writer) Bytes(width int, p []byte) {
	w.uint(width, uint64(len(p)))
	if w.err == nil {
		w.buf = append(w.buf, p...)
	}
}

// Registers appends the register file in field order, packed.
func (w *Writer) Registers(r Registers) {
	for _, v := range [...]uint64{
		r.RAX, r.RBX, r.RCX, r.RDX, r.RSI, r.RDI, r.RBP, r.RSP,
		r.R8, r.R9, r.R10, r.R11, r.R12, r.R13, r.R14, r.R15,
		r.RIP, r.RFLAGS, r.CR0, r.CR2, r.CR3, r.CR4, r.EFER,
	} {
		w.U64(v)
	}
	for _, s := range [...]Segment{r.CS, r.DS, r.ES, r.FS, r.GS, r.SS} {
		w.U16(uint64(s.Selector))
		w.U64(s.Base)
		w.U32(uint64(s.Limit))
		w.U16(uint64(s.Flags))
	}
	w.U64(r.GDTRBase)
	w.U64(r.GDTRLim)
	w.U64(r.IDTRBase)
	w.U64(r.IDTRLim)
}

// MSRs appends the count, a width-byte field, then each (u32 index,
// u64 value) pair in index order.
func (w *Writer) MSRs(width int, m map[uint32]uint64) {
	w.uint(width, uint64(len(m)))
	keys := make([]uint32, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		w.U32(uint64(k))
		w.U64(m[k])
	}
}

// Hole reserves a u32 length and returns its offset for Fill.
func (w *Writer) Hole() int {
	at := len(w.buf)
	w.U32(0)
	return at
}

// Fill writes into the hole at the number of bytes appended after it.
func (w *Writer) Fill(hole int) {
	if w.err != nil {
		return
	}
	n := uint64(len(w.buf) - hole - 4)
	if n > 1<<32-1 {
		w.err = fmt.Errorf("payload of %d bytes overflows its u32 length", n)
		return
	}
	w.order.PutUint32(w.buf[hole:], uint32(n))
}

// Pad appends zero bytes up to a multiple of align.
func (w *Writer) Pad(align int) {
	for w.err == nil && len(w.buf)%align != 0 {
		w.buf = append(w.buf, 0)
	}
}

func (w *Writer) uint(width int, v uint64) {
	if w.err != nil {
		return
	}
	if width < 8 && v>>(8*width) != 0 {
		w.err = fmt.Errorf("value %d overflows its %d-byte field", v, width)
		return
	}
	switch width {
	case 1:
		w.buf = append(w.buf, byte(v))
	case 2:
		w.buf = w.order.AppendUint16(w.buf, uint16(v))
	case 4:
		w.buf = w.order.AppendUint32(w.buf, uint32(v))
	default:
		w.buf = w.order.AppendUint64(w.buf, v)
	}
}

// Reader reads the fields of a native save image in one byte order.
// Every read is bounds-checked; the first short read sticks, later
// reads return zero values, and Err reports it.
type Reader struct {
	order ByteOrder
	buf   []byte
	err   error
}

// NewReader reads b.
func NewReader(order ByteOrder, b []byte) *Reader {
	return &Reader{order: order, buf: b}
}

// Err reports the first failed read, or nil.
func (r *Reader) Err() error { return r.err }

// Len reports the unread bytes.
func (r *Reader) Len() int { return len(r.buf) }

// Next returns the next n bytes without copying them.
func (r *Reader) Next(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.buf) {
		r.err = fmt.Errorf("field of %d bytes exceeds remaining input %d", n, len(r.buf))
		return nil
	}
	b := r.buf[:n:n]
	r.buf = r.buf[n:]
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if b := r.Next(1); b != nil {
		return b[0]
	}
	return 0
}

// U16 reads two bytes.
func (r *Reader) U16() uint16 {
	if b := r.Next(2); b != nil {
		return r.order.Uint16(b)
	}
	return 0
}

// U32 reads four bytes.
func (r *Reader) U32() uint32 {
	if b := r.Next(4); b != nil {
		return r.order.Uint32(b)
	}
	return 0
}

// U64 reads eight bytes.
func (r *Reader) U64() uint64 {
	if b := r.Next(8); b != nil {
		return r.order.Uint64(b)
	}
	return 0
}

// Bool reads one byte; any non-zero value is true.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// Str reads a string after its u16 length.
func (r *Reader) Str() string { return string(r.Next(int(r.U16()))) }

// Bytes reads a byte array after its width-byte length: nil when
// empty, a copy otherwise.
func (r *Reader) Bytes(width int) []byte {
	if b := r.Next(int(r.uint(width))); len(b) > 0 {
		return append([]byte(nil), b...)
	}
	return nil
}

// Registers reads a register file written by Writer.Registers.
func (r *Reader) Registers() Registers {
	var g Registers
	for _, p := range [...]*uint64{
		&g.RAX, &g.RBX, &g.RCX, &g.RDX, &g.RSI, &g.RDI, &g.RBP, &g.RSP,
		&g.R8, &g.R9, &g.R10, &g.R11, &g.R12, &g.R13, &g.R14, &g.R15,
		&g.RIP, &g.RFLAGS, &g.CR0, &g.CR2, &g.CR3, &g.CR4, &g.EFER,
	} {
		*p = r.U64()
	}
	for _, s := range [...]*Segment{&g.CS, &g.DS, &g.ES, &g.FS, &g.GS, &g.SS} {
		s.Selector = r.U16()
		s.Base = r.U64()
		s.Limit = r.U32()
		s.Flags = r.U16()
	}
	g.GDTRBase = r.U64()
	g.GDTRLim = r.U64()
	g.IDTRBase = r.U64()
	g.IDTRLim = r.U64()
	return g
}

// MSRs reads what Writer.MSRs wrote: nil when the count is zero. A
// count the rest of the input cannot hold at 12 bytes a pair is
// rejected before anything is allocated for it.
func (r *Reader) MSRs(width int) map[uint32]uint64 {
	n := r.uint(width)
	if r.err != nil || n == 0 {
		return nil
	}
	if n*12 > uint64(len(r.buf)) {
		r.err = fmt.Errorf("msr count %d exceeds remaining input %d", n, len(r.buf))
		return nil
	}
	m := make(map[uint32]uint64, n)
	for ; n > 0; n-- {
		k := r.U32()
		m[k] = r.U64()
	}
	return m
}

func (r *Reader) uint(width int) uint64 {
	switch width {
	case 1:
		return uint64(r.U8())
	case 2:
		return uint64(r.U16())
	case 4:
		return uint64(r.U32())
	default:
		return r.U64()
	}
}
