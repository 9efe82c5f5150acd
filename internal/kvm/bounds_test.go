package kvm_test

import (
	"encoding/binary"
	"runtime"
	"testing"
)

// TestDecodeRejectsMSRCountBeforeAllocating crafts a 4 KiB image whose
// cpu section claims 65535 MSRs and holds room for 341. It must be
// rejected for what it claims, not after allocating a map sized by the
// claim.
func TestDecodeRejectsMSRCountBeforeAllocating(t *testing.T) {
	var p []byte
	p = binary.BigEndian.AppendUint16(p, 0) // id
	p = binary.BigEndian.AppendUint64(p, 0) // tsc
	p = append(p, 0)                        // halt
	p = binary.BigEndian.AppendUint32(p, 0) // index
	p = append(p, make([]byte, 312)...)     // registers
	p = append(p, make([]byte, 4+4+4+8)...) // apic id, tpr, divider, timer
	p = append(p, 0, 0, 0, 0)               // empty IRR and ISR
	p = binary.BigEndian.AppendUint16(p, 0xFFFF)
	p = append(p, make([]byte, 4096)...)

	img := []byte("KVMTOOL\x02\x03cpu")
	img = binary.BigEndian.AppendUint32(img, uint32(len(p)))
	img = append(img, p...)

	h := newHost(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := h.DecodeState(img)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("decoded a cpu section claiming more MSRs than it holds")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 2*uint64(len(img)) {
		t.Fatalf("rejecting a %d-byte image allocated %d bytes (limit 2×)", len(img), alloc)
	}
}
