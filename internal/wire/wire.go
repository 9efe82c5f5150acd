// Package wire is the checkpoint wire codec: the framed binary stream
// that carries a checkpoint's memory pages, translated vCPU/device
// state record and journaled disk writes from the primary to the
// replica host.
//
// Before this codec existed the replicator shipped an abstract byte
// *count* (dirty pages × page size, compression modeled as a flat
// constant); now every transfer size is measured from the encoded
// stream, so bandwidth and compression numbers are observed rather
// than assumed (the paper's pause model t = αN/P + C is dominated by
// bytes on the wire, §6).
//
// # Stream layout
//
//	header:  8-byte magic "HEREWIRE" | uint16 version (LE)
//	frame:   1-byte type | uint32 payload length | uint32 CRC32-IEEE(payload) | payload
//	...
//	commit:  final frame; seals the stream with frame counts
//
// # Frame types
//
//	zero-run  u64 first page | u32 count      pages whose content is all
//	                                          zero (the guest memory's
//	                                          sparse representation makes
//	                                          the test O(1)); consecutive
//	                                          zero pages coalesce
//	delta     u64 page | RLE bytes            XOR delta against the page
//	                                          the replica holds (the last
//	                                          *acked* epoch), run-length
//	                                          encoded
//	raw       u64 page | PageSize bytes       verbatim content, the
//	                                          fallback when delta does
//	                                          not pay
//	state     opaque bytes                    the translated, destination-
//	                                          native machine state record
//	disk      u64 sector | SectorSize bytes   one journaled disk write
//	commit    u64 seq | u64 pages |           end-of-checkpoint marker;
//	          u32 disk | u32 state            counts cross-checked on
//	                                          decode
//
// The encoder chooses between the three page encodings per page from
// its content (content-aware mode). In raw mode — the uncompressed
// baseline — populated pages are framed verbatim and all-zero pages
// still ride in zero-run frames physically, but their modeled wire
// size charges the literal PageSize bytes a real uncompressed stream
// would carry, keeping the simulation's sparse memory from
// materializing gigabytes of zeros.
//
// The replica-side Decoder validates every CRC and all structure
// BEFORE applying anything, so a corrupt or truncated stream can
// never leave destination memory half-updated.
package wire

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"time"

	"github.com/here-ft/here/internal/blockdev"
	"github.com/here-ft/here/internal/memory"
)

// Version is the wire format version carried in the stream header.
const Version uint16 = 1

// magic opens every stream.
var magic = [8]byte{'H', 'E', 'R', 'E', 'W', 'I', 'R', 'E'}

// headerSize is the stream header length in bytes.
const headerSize = 8 + 2

// frameOverhead is the per-frame header length: type, payload length,
// CRC32.
const frameOverhead = 1 + 4 + 4

// Frame types.
const (
	frameZeroRun byte = 0x01
	frameDelta   byte = 0x02
	frameRaw     byte = 0x03
	frameState   byte = 0x04
	frameDisk    byte = 0x05
	frameCommit  byte = 0x06
)

// maxFramePayload bounds a single frame's payload, a sanity limit that
// keeps a corrupt length field from driving huge allocations.
const maxFramePayload = 1 << 20

// commitPayloadSize is the commit frame's fixed payload length.
const commitPayloadSize = 8 + 8 + 4 + 4

// Typed decode errors. Every way a stream can be rejected maps to one
// of these (possibly wrapped with position detail).
var (
	ErrTruncated = errors.New("wire: truncated stream")
	ErrMagic     = errors.New("wire: bad magic")
	ErrVersion   = errors.New("wire: unsupported version")
	ErrFrameType = errors.New("wire: unknown frame type")
	ErrFrameSize = errors.New("wire: bad frame size")
	ErrChecksum  = errors.New("wire: frame checksum mismatch")
	ErrPageRange = errors.New("wire: page beyond destination memory")
	ErrDelta     = errors.New("wire: malformed delta encoding")
	ErrCommit    = errors.New("wire: bad or missing commit frame")
)

// DiskWrite is one journaled sector write carried in a disk frame.
type DiskWrite struct {
	Sector uint64
	Data   []byte // SectorSize bytes
}

// Stats describes one encoded (or decoded) stream: the pre-encoding
// payload volume, the measured on-wire volume, and the per-encoding
// frame mix. The measured compression ratio the flat CompressionRatio
// constant used to assume is EncodedBytes/RawBytes.
type Stats struct {
	// RawBytes is the payload before encoding: pages × PageSize plus
	// the state record and journaled disk writes.
	RawBytes int64
	// EncodedBytes is the measured size of the framed stream as
	// shipped on the link.
	EncodedBytes int64
	// ZeroPages counts pages elided as all-zero; ZeroFrames counts the
	// (coalesced) zero-run frames carrying them.
	ZeroPages  int64
	ZeroFrames int64
	// DeltaFrames and RawFrames count pages shipped as XOR-deltas and
	// verbatim content respectively.
	DeltaFrames int64
	RawFrames   int64
	// StateFrames and DiskFrames count state-record and disk-write
	// frames.
	StateFrames int64
	DiskFrames  int64
	// EncodeTime is host CPU time spent encoding (wall-clock of the
	// real codec work, not simulated time).
	EncodeTime time.Duration
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.RawBytes += o.RawBytes
	s.EncodedBytes += o.EncodedBytes
	s.ZeroPages += o.ZeroPages
	s.ZeroFrames += o.ZeroFrames
	s.DeltaFrames += o.DeltaFrames
	s.RawFrames += o.RawFrames
	s.StateFrames += o.StateFrames
	s.DiskFrames += o.DiskFrames
	s.EncodeTime += o.EncodeTime
}

// Ratio reports the measured output/input size ratio, or 1 when
// nothing was encoded.
func (s Stats) Ratio() float64 {
	if s.RawBytes <= 0 {
		return 1
	}
	return float64(s.EncodedBytes) / float64(s.RawBytes)
}

// SectorSize re-exports the disk sector size the disk frames carry.
const SectorSize = blockdev.SectorSize

// appendHeader writes the stream header.
func appendHeader(b []byte) []byte {
	b = append(b, magic[:]...)
	return binary.LittleEndian.AppendUint16(b, Version)
}

// appendFrame writes one framed payload.
func appendFrame(b []byte, typ byte, payload []byte) []byte {
	b = append(b, typ)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

// zeroPage is what a page is compared against to find it zero, and
// what a zero run decodes to; nothing writes it.
var zeroPage [memory.PageSize]byte
