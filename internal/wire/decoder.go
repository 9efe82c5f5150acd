package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"github.com/here-ft/here/internal/memory"
)

// Result is what a decoded checkpoint stream contained.
type Result struct {
	// Seq is the checkpoint sequence number from the commit frame.
	Seq uint64
	// State is the translated machine state record, nil if the stream
	// carried none.
	State []byte
	// Disk is the journaled disk writes in stream (= apply) order.
	Disk []DiskWrite
	// Pages is the number of pages applied, zero-runs expanded.
	Pages int64
	// Stats counts the decoded frame mix (EncodeTime is zero).
	Stats Stats
}

// frame is one validated frame awaiting apply.
type frame struct {
	typ     byte
	payload []byte
}

// CommitSeq reads the checkpoint sequence number a stream's commit frame
// seals it with — the fixed-size last frame — checking that frame's
// type, length and CRC and nothing else, so a receiver can compare the
// epoch with what its envelope says before it decodes. It does not
// validate the stream: Decode still does, and rejects every stream
// CommitSeq returns an error for.
func CommitSeq(stream []byte) (uint64, error) {
	const size = frameOverhead + commitPayloadSize
	if len(stream) < headerSize+size {
		return 0, fmt.Errorf("%w: %d-byte stream", ErrCommit, len(stream))
	}
	f := stream[len(stream)-size:]
	payload := f[frameOverhead:]
	if f[0] != frameCommit ||
		binary.LittleEndian.Uint32(f[1:5]) != commitPayloadSize ||
		binary.LittleEndian.Uint32(f[5:9]) != crc32.ChecksumIEEE(payload) {
		return 0, fmt.Errorf("%w: stream not sealed", ErrCommit)
	}
	return binary.LittleEndian.Uint64(payload[:8]), nil
}

// Decode validates a checkpoint stream and applies it into dst, the
// replica's guest memory. Validation — magic, version, every frame's
// CRC32, structural bounds, delta well-formedness, the commit frame's
// cross-checked counts — completes over the whole stream before the
// first page is written, so a rejected stream never leaves dst
// half-updated. What the replica holds afterwards is exactly what was
// decoded from the wire. Nothing it returns aliases stream — the state
// record and disk payloads are copies — so the caller may reuse the
// buffer as soon as Decode returns.
func Decode(stream []byte, dst *memory.GuestMemory) (*Result, error) {
	if dst == nil {
		return nil, fmt.Errorf("wire: decode: nil destination memory")
	}
	if len(stream) < headerSize {
		return nil, fmt.Errorf("%w: %d-byte stream", ErrTruncated, len(stream))
	}
	if string(stream[:8]) != string(magic[:]) {
		return nil, ErrMagic
	}
	if v := binary.LittleEndian.Uint16(stream[8:10]); v != Version {
		return nil, fmt.Errorf("%w: %d", ErrVersion, v)
	}

	// Pass 1: structural validation, no side effects.
	res := &Result{}
	var frames []frame
	var pages int64
	committed := false
	off := headerSize
	for off < len(stream) {
		if committed {
			return nil, fmt.Errorf("%w: data after commit frame", ErrCommit)
		}
		if len(stream)-off < frameOverhead {
			return nil, fmt.Errorf("%w: frame header at %d", ErrTruncated, off)
		}
		typ := stream[off]
		plen := int(binary.LittleEndian.Uint32(stream[off+1 : off+5]))
		sum := binary.LittleEndian.Uint32(stream[off+5 : off+9])
		if plen > maxFramePayload {
			return nil, fmt.Errorf("%w: %d-byte payload", ErrFrameSize, plen)
		}
		if len(stream)-off-frameOverhead < plen {
			return nil, fmt.Errorf("%w: frame payload at %d", ErrTruncated, off)
		}
		payload := stream[off+frameOverhead : off+frameOverhead+plen]
		if crc32.ChecksumIEEE(payload) != sum {
			return nil, fmt.Errorf("%w: frame at %d", ErrChecksum, off)
		}
		off += frameOverhead + plen

		switch typ {
		case frameZeroRun:
			if plen != 12 {
				return nil, fmt.Errorf("%w: zero-run payload %d bytes", ErrFrameSize, plen)
			}
			first := memory.PageNum(binary.LittleEndian.Uint64(payload[:8]))
			count := binary.LittleEndian.Uint32(payload[8:12])
			if count == 0 {
				return nil, fmt.Errorf("%w: empty zero run", ErrFrameSize)
			}
			// Guard the sum against wrap-around: compare count to the
			// space left above first, never first+count to the limit.
			if first >= dst.NumPages() ||
				uint64(count) > uint64(dst.NumPages()-first) {
				return nil, fmt.Errorf("%w: zero run %d+%d", ErrPageRange, first, count)
			}
			pages += int64(count)
			res.Stats.ZeroFrames++
			res.Stats.ZeroPages += int64(count)
		case frameDelta:
			if plen < 8 {
				return nil, fmt.Errorf("%w: delta payload %d bytes", ErrFrameSize, plen)
			}
			p := memory.PageNum(binary.LittleEndian.Uint64(payload[:8]))
			if p >= dst.NumPages() {
				return nil, fmt.Errorf("%w: page %d", ErrPageRange, p)
			}
			if err := rleValidate(payload[8:]); err != nil {
				return nil, err
			}
			pages++
			res.Stats.DeltaFrames++
		case frameRaw:
			if plen != 8+memory.PageSize {
				return nil, fmt.Errorf("%w: raw payload %d bytes", ErrFrameSize, plen)
			}
			p := memory.PageNum(binary.LittleEndian.Uint64(payload[:8]))
			if p >= dst.NumPages() {
				return nil, fmt.Errorf("%w: page %d", ErrPageRange, p)
			}
			pages++
			res.Stats.RawFrames++
		case frameState:
			res.Stats.StateFrames++
			if res.Stats.StateFrames > 1 {
				return nil, fmt.Errorf("%w: multiple state frames", ErrFrameSize)
			}
		case frameDisk:
			if plen != 8+SectorSize {
				return nil, fmt.Errorf("%w: disk payload %d bytes", ErrFrameSize, plen)
			}
			res.Stats.DiskFrames++
		case frameCommit:
			if plen != commitPayloadSize {
				return nil, fmt.Errorf("%w: commit payload %d bytes", ErrFrameSize, plen)
			}
			res.Seq = binary.LittleEndian.Uint64(payload[:8])
			wantPages := binary.LittleEndian.Uint64(payload[8:16])
			wantDisk := binary.LittleEndian.Uint32(payload[16:20])
			wantState := binary.LittleEndian.Uint32(payload[20:24])
			if uint64(pages) != wantPages ||
				uint32(res.Stats.DiskFrames) != wantDisk ||
				uint32(res.Stats.StateFrames) != wantState {
				return nil, fmt.Errorf("%w: frame counts disagree", ErrCommit)
			}
			committed = true
		default:
			return nil, fmt.Errorf("%w: 0x%02x at %d", ErrFrameType, typ, off)
		}
		frames = append(frames, frame{typ: typ, payload: payload})
	}
	if !committed {
		return nil, fmt.Errorf("%w: stream not sealed", ErrCommit)
	}

	// Pass 2: apply. Every frame was validated above, so the only
	// errors left are impossible-by-construction memory bounds.
	var buf [memory.PageSize]byte
	for _, f := range frames {
		switch f.typ {
		case frameZeroRun:
			first := memory.PageNum(binary.LittleEndian.Uint64(f.payload[:8]))
			count := binary.LittleEndian.Uint32(f.payload[8:12])
			for i := uint32(0); i < count; i++ {
				if err := dst.WritePage(first+memory.PageNum(i), zeroPage[:]); err != nil {
					return nil, fmt.Errorf("wire: apply: %w", err)
				}
			}
		case frameDelta:
			p := memory.PageNum(binary.LittleEndian.Uint64(f.payload[:8]))
			if err := dst.ReadPage(p, buf[:]); err != nil {
				return nil, fmt.Errorf("wire: apply: %w", err)
			}
			rleApply(buf[:], f.payload[8:])
			if err := dst.WritePage(p, buf[:]); err != nil {
				return nil, fmt.Errorf("wire: apply: %w", err)
			}
		case frameRaw:
			p := memory.PageNum(binary.LittleEndian.Uint64(f.payload[:8]))
			if err := dst.WritePage(p, f.payload[8:]); err != nil {
				return nil, fmt.Errorf("wire: apply: %w", err)
			}
		case frameState:
			res.State = append([]byte(nil), f.payload...)
		case frameDisk:
			res.Disk = append(res.Disk, DiskWrite{
				Sector: binary.LittleEndian.Uint64(f.payload[:8]),
				Data:   append([]byte(nil), f.payload[8:]...),
			})
		}
	}
	res.Pages = pages
	res.Stats.EncodedBytes = int64(len(stream))
	return res, nil
}
