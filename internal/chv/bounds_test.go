package chv_test

import (
	"encoding/binary"
	"runtime"
	"testing"
)

// TestDecodeRejectsMSRCountBeforeAllocating crafts a 1 MiB snapshot
// whose vCPU segment claims one MSR per remaining byte: 12 times what
// the segment can hold. It must be rejected for what it claims, not
// after allocating a map sized by the claim.
func TestDecodeRejectsMSRCountBeforeAllocating(t *testing.T) {
	const fill = 1 << 20
	var p []byte
	p = binary.LittleEndian.AppendUint32(p, 0) // id
	p = binary.LittleEndian.AppendUint32(p, 0) // index
	p = append(p, 0)                           // halt
	p = binary.LittleEndian.AppendUint64(p, 0) // tsc
	p = append(p, make([]byte, 312)...)        // registers
	p = append(p, make([]byte, 4+4+8+4)...)    // apic id, tpr, timer, divider
	p = append(p, 0, 0, 0, 0)                  // empty ISR and IRR
	p = binary.LittleEndian.AppendUint32(p, fill)
	p = append(p, make([]byte, fill)...)

	img := []byte("CHVSNAP\x01")
	img = binary.LittleEndian.AppendUint16(img, 0x0002) // vCPU tag
	img = binary.LittleEndian.AppendUint32(img, uint32(len(p)))
	img = append(img, p...)

	h := newHost(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := h.DecodeState(img)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("decoded a vCPU claiming more MSRs than its segment holds")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 2*uint64(len(img)) {
		t.Fatalf("rejecting a %d-byte image allocated %d bytes (limit 2×)", len(img), alloc)
	}
}
