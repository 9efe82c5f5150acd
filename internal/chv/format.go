package chv

import (
	"encoding/binary"
	"fmt"

	"github.com/here-ft/here/internal/arch"
)

// Wire format: a cloud-hypervisor style versioned snapshot stream. A
// magic header followed by little-endian TLV segments of the form
// (u16 numeric tag, u32 payload length, payload), terminated by an end
// tag. Deliberate differences from the other backends' formats: byte
// order (little-endian vs kvmtool's big-endian), tagging (numeric tags
// vs named sections vs libxc record types), TSC frequency stored in Hz
// as a u64 (vs KVM's kHz u32), the clock segment placed last, and
// per-binding layout (source before GSI — the reverse of kvmtool).
const formatMagic = "CHVSNAP\x01"

// Segment tags of the snapshot stream.
const (
	tagConfig uint16 = 0x0001 // guest CPUID feature set
	tagVCPU   uint16 = 0x0002 // one per vCPU
	tagDevice uint16 = 0x0003 // one per device
	tagIRQ    uint16 = 0x0004 // interrupt routing table
	tagClock  uint16 = 0x0005 // timer state (always last)
	tagEnd    uint16 = 0xFFFF
)

// encodeState writes the snapshot stream.
func encodeState(st arch.MachineState) ([]byte, error) {
	w := arch.NewWriter(binary.LittleEndian, formatMagic)
	segment := func(tag uint16, fill func()) {
		w.U16(uint64(tag))
		hole := w.Hole()
		fill()
		w.Fill(hole)
	}
	segment(tagConfig, func() { w.U64(uint64(st.Features)) })
	for _, v := range st.VCPUs {
		segment(tagVCPU, func() {
			w.U32(uint64(v.ID))
			w.U32(uint64(v.Index)) // revision counter first — reversed vs kvmtool
			w.Bool(v.Halt)
			w.U64(v.TSC)
			w.Registers(v.Regs)
			w.U32(uint64(v.APIC.ID))
			w.U32(uint64(v.APIC.TPR))
			w.U64(v.APIC.Timer) // count before divider — reversed vs kvmtool
			w.U32(uint64(v.APIC.TimerDiv))
			w.Bytes(2, v.APIC.ISR) // ISR before IRR — reversed vs kvmtool
			w.Bytes(2, v.APIC.IRR)
			w.MSRs(4, v.MSRs)
		})
	}
	for _, d := range st.Devices {
		segment(tagDevice, func() {
			w.Str(d.Model) // model before id — reversed vs kvmtool
			w.Str(d.ID)
			w.U16(uint64(d.Class))
			w.U64(d.CapacityB)
			w.Str(d.MAC)
			w.U32(uint64(d.MTU))
			w.U16(uint64(d.InFlight))
			w.Bool(d.WriteBack)
		})
	}
	segment(tagIRQ, func() {
		w.U32(uint64(len(st.IRQChip.Pending)))
		for _, bind := range st.IRQChip.Pending {
			w.Str(bind.Source)
			w.U32(uint64(bind.Vector))
			w.Bool(bind.Masked)
		}
	})
	segment(tagClock, func() {
		w.U64(st.Timers.TSCFrequencyHz) // Hz as u64 — vs KVM's kHz u32
		w.U64(st.Timers.SystemTimeNS)
		w.U64(st.Timers.WallClockSec)
		w.U32(uint64(st.Timers.WallClockNSec))
	})
	segment(tagEnd, func() {})
	return w.Finish()
}

// decodeState parses a snapshot stream. Bytes after the end tag, or
// after a segment's payload inside it, are ignored.
func decodeState(data []byte) (arch.MachineState, error) {
	var st arch.MachineState
	r := arch.NewReader(binary.LittleEndian, data)
	if string(r.Next(len(formatMagic))) != formatMagic {
		return st, fmt.Errorf("bad magic")
	}
	for {
		tag := r.U16()
		payload := r.Next(int(r.U32()))
		if err := r.Err(); err != nil {
			return st, fmt.Errorf("segment header: %w", err)
		}
		p := arch.NewReader(binary.LittleEndian, payload)
		switch tag {
		case tagConfig:
			st.Features = arch.FeatureSet(p.U64())
		case tagVCPU:
			v := arch.VCPUState{ID: int(p.U32()), Index: p.U32(), Halt: p.Bool(), TSC: p.U64(), Regs: p.Registers()}
			v.APIC = arch.APICState{ID: p.U32(), TPR: p.U32(), Timer: p.U64(), TimerDiv: p.U32()}
			v.APIC.ISR = p.Bytes(2)
			v.APIC.IRR = p.Bytes(2)
			v.MSRs = p.MSRs(4)
			st.VCPUs = append(st.VCPUs, v)
		case tagDevice:
			st.Devices = append(st.Devices, arch.DeviceState{
				Model: p.Str(), ID: p.Str(), Class: arch.DeviceClass(p.U16()), CapacityB: p.U64(),
				MAC: p.Str(), MTU: int(p.U32()), InFlight: int(p.U16()), WriteBack: p.Bool(),
			})
		case tagIRQ:
			st.IRQChip.Kind = arch.IRQChipIOAPIC
			for n := p.U32(); n > 0 && p.Err() == nil; n-- {
				st.IRQChip.Pending = append(st.IRQChip.Pending,
					arch.IRQBinding{Source: p.Str(), Vector: p.U32(), Masked: p.Bool()})
			}
		case tagClock:
			st.Timers = arch.TimerState{
				TSCFrequencyHz: p.U64(),
				SystemTimeNS:   p.U64(),
				WallClockSec:   p.U64(),
				WallClockNSec:  p.U32(),
			}
		case tagEnd:
			return st, nil
		default:
			return st, fmt.Errorf("unknown tag %#04x", tag)
		}
		if err := p.Err(); err != nil {
			return st, fmt.Errorf("tag %#04x: %w", tag, err)
		}
	}
}
