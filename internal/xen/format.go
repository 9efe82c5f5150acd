package xen

import (
	"encoding/binary"
	"fmt"

	"github.com/here-ft/here/internal/arch"
)

// Wire format: a libxc-style save image. An 8-byte magic followed by
// little-endian records of the form (u32 type, u32 length, payload,
// zero padding to an 8-byte boundary), terminated by an END record —
// the same overall shape as xc_domain_save's stream format.
const formatMagic = "XLSAVE31"

// Record types of the Xen save stream.
const (
	recFeatures uint32 = 1
	recTimers   uint32 = 2
	recIRQChip  uint32 = 3
	recVCPU     uint32 = 4
	recDevice   uint32 = 5
	recEnd      uint32 = 0xFFFFFFFF
)

// encodeState writes the save stream.
func encodeState(st arch.MachineState) ([]byte, error) {
	w := arch.NewWriter(binary.LittleEndian, formatMagic)
	record := func(typ uint32, fill func()) {
		w.U32(uint64(typ))
		hole := w.Hole()
		fill()
		w.Fill(hole)
		w.Pad(8)
	}
	record(recFeatures, func() { w.U64(uint64(st.Features)) })
	record(recTimers, func() {
		w.U64(st.Timers.TSCFrequencyHz)
		w.U64(st.Timers.SystemTimeNS)
		w.U64(st.Timers.WallClockSec)
		w.U32(uint64(st.Timers.WallClockNSec))
	})
	record(recIRQChip, func() {
		w.U32(uint64(len(st.IRQChip.Pending)))
		for _, bind := range st.IRQChip.Pending {
			w.Str(bind.Source)
			w.U32(uint64(bind.Vector))
			w.Bool(bind.Masked)
		}
	})
	for _, v := range st.VCPUs {
		record(recVCPU, func() {
			w.U32(uint64(v.ID))
			w.Registers(v.Regs)
			w.U64(v.TSC)
			w.Bool(v.Halt)
			w.U32(uint64(v.Index))
			w.U32(uint64(v.APIC.ID))
			w.U32(uint64(v.APIC.TPR))
			w.U64(v.APIC.Timer)
			w.U32(uint64(v.APIC.TimerDiv))
			w.Bytes(4, v.APIC.ISR)
			w.Bytes(4, v.APIC.IRR)
			w.MSRs(4, v.MSRs)
		})
	}
	for _, d := range st.Devices {
		record(recDevice, func() {
			w.U32(uint64(d.Class))
			w.Str(d.ID)
			w.Str(d.Model)
			w.Str(d.MAC)
			w.U32(uint64(d.MTU))
			w.U64(d.CapacityB)
			w.Bool(d.WriteBack)
			w.U32(uint64(d.InFlight))
		})
	}
	record(recEnd, func() {})
	return w.Finish()
}

// decodeState parses a save stream. Bytes after the END record, or
// after a record's payload inside it, are ignored.
func decodeState(data []byte) (arch.MachineState, error) {
	var st arch.MachineState
	r := arch.NewReader(binary.LittleEndian, data)
	if string(r.Next(len(formatMagic))) != formatMagic {
		return st, fmt.Errorf("bad magic")
	}
	for {
		typ := r.U32()
		payload := r.Next(int(r.U32()))
		if err := r.Err(); err != nil {
			return st, fmt.Errorf("record header: %w", err)
		}
		// The padding of the last record may be cut short.
		r.Next(min((8-len(payload)%8)%8, r.Len()))
		p := arch.NewReader(binary.LittleEndian, payload)
		switch typ {
		case recFeatures:
			st.Features = arch.FeatureSet(p.U64())
		case recTimers:
			st.Timers = arch.TimerState{
				TSCFrequencyHz: p.U64(),
				SystemTimeNS:   p.U64(),
				WallClockSec:   p.U64(),
				WallClockNSec:  p.U32(),
			}
		case recIRQChip:
			st.IRQChip.Kind = arch.IRQChipEventChannel
			for n := p.U32(); n > 0 && p.Err() == nil; n-- {
				st.IRQChip.Pending = append(st.IRQChip.Pending,
					arch.IRQBinding{Source: p.Str(), Vector: p.U32(), Masked: p.Bool()})
			}
		case recVCPU:
			v := arch.VCPUState{ID: int(p.U32()), Regs: p.Registers(), TSC: p.U64(), Halt: p.Bool(), Index: p.U32()}
			v.APIC = arch.APICState{ID: p.U32(), TPR: p.U32(), Timer: p.U64(), TimerDiv: p.U32()}
			v.APIC.ISR = p.Bytes(4)
			v.APIC.IRR = p.Bytes(4)
			v.MSRs = p.MSRs(4)
			st.VCPUs = append(st.VCPUs, v)
		case recDevice:
			st.Devices = append(st.Devices, arch.DeviceState{
				Class: arch.DeviceClass(p.U32()), ID: p.Str(), Model: p.Str(), MAC: p.Str(),
				MTU: int(p.U32()), CapacityB: p.U64(), WriteBack: p.Bool(), InFlight: int(p.U32()),
			})
		case recEnd:
			return st, nil
		default:
			return st, fmt.Errorf("unknown record type %#x", typ)
		}
		if err := p.Err(); err != nil {
			return st, fmt.Errorf("record type %#x: %w", typ, err)
		}
	}
}
