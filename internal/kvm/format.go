package kvm

import (
	"encoding/binary"
	"fmt"

	"github.com/here-ft/here/internal/arch"
)

// Wire format: a kvmtool-style sectioned image. A magic header
// followed by big-endian sections of the form (u8 name length, name,
// u32 payload length, payload), ending with an "end" section. The TSC
// frequency is stored in kHz (as KVM's KVM_SET_TSC_KHZ ioctl does),
// which forces a genuine unit conversion in the state translator.
const formatMagic = "KVMTOOL\x02"

// Section names of the kvmtool save image.
const (
	secFeatures = "features"
	secClock    = "clock"
	secIOAPIC   = "ioapic"
	secCPU      = "cpu"
	secDevice   = "device"
	secEnd      = "end"
)

// encodeState writes the sectioned image.
func encodeState(st arch.MachineState) ([]byte, error) {
	w := arch.NewWriter(binary.BigEndian, formatMagic)
	section := func(name string, fill func()) {
		w.U8(uint64(len(name)))
		w.Raw(name)
		hole := w.Hole()
		fill()
		w.Fill(hole)
	}
	section(secFeatures, func() { w.U64(uint64(st.Features)) })
	section(secClock, func() {
		// Note the deliberate layout differences from the Xen stream:
		// kHz granularity, wall clock before monotonic clock.
		w.U32(st.Timers.TSCFrequencyHz / 1000) // KVM_SET_TSC_KHZ
		w.U64(st.Timers.WallClockSec)
		w.U32(uint64(st.Timers.WallClockNSec))
		w.U64(st.Timers.SystemTimeNS)
	})
	section(secIOAPIC, func() {
		w.U16(uint64(len(st.IRQChip.Pending)))
		for _, bind := range st.IRQChip.Pending {
			w.U32(uint64(bind.Vector)) // GSI first, then source — reversed vs Xen
			w.Str(bind.Source)
			w.Bool(bind.Masked)
		}
	})
	for _, v := range st.VCPUs {
		section(secCPU, func() {
			w.U16(uint64(v.ID))
			w.U64(v.TSC)
			w.Bool(v.Halt)
			w.U32(uint64(v.Index))
			w.Registers(v.Regs)
			w.U32(uint64(v.APIC.ID))
			w.U32(uint64(v.APIC.TPR))
			w.U32(uint64(v.APIC.TimerDiv)) // div before count — reversed vs Xen
			w.U64(v.APIC.Timer)
			w.Bytes(2, v.APIC.IRR) // IRR before ISR — reversed vs Xen
			w.Bytes(2, v.APIC.ISR)
			w.MSRs(2, v.MSRs)
		})
	}
	for _, d := range st.Devices {
		section(secDevice, func() {
			w.Str(d.ID)
			w.Str(d.Model)
			w.U8(uint64(d.Class))
			w.Str(d.MAC)
			w.U16(uint64(d.MTU))
			w.U64(d.CapacityB)
			w.Bool(d.WriteBack)
			w.U16(uint64(d.InFlight))
		})
	}
	section(secEnd, func() {})
	return w.Finish()
}

// decodeState parses a sectioned image. Bytes after the end section,
// or after a section's payload inside it, are ignored.
func decodeState(data []byte) (arch.MachineState, error) {
	var st arch.MachineState
	r := arch.NewReader(binary.BigEndian, data)
	if string(r.Next(len(formatMagic))) != formatMagic {
		return st, fmt.Errorf("bad magic")
	}
	for {
		name := string(r.Next(int(r.U8())))
		payload := r.Next(int(r.U32()))
		if err := r.Err(); err != nil {
			return st, fmt.Errorf("section header: %w", err)
		}
		p := arch.NewReader(binary.BigEndian, payload)
		switch name {
		case secFeatures:
			st.Features = arch.FeatureSet(p.U64())
		case secClock:
			st.Timers = arch.TimerState{
				TSCFrequencyHz: uint64(p.U32()) * 1000,
				WallClockSec:   p.U64(),
				WallClockNSec:  p.U32(),
				SystemTimeNS:   p.U64(),
			}
		case secIOAPIC:
			st.IRQChip.Kind = arch.IRQChipIOAPIC
			for n := p.U16(); n > 0 && p.Err() == nil; n-- {
				st.IRQChip.Pending = append(st.IRQChip.Pending,
					arch.IRQBinding{Vector: p.U32(), Source: p.Str(), Masked: p.Bool()})
			}
		case secCPU:
			v := arch.VCPUState{ID: int(p.U16()), TSC: p.U64(), Halt: p.Bool(), Index: p.U32(), Regs: p.Registers()}
			v.APIC = arch.APICState{ID: p.U32(), TPR: p.U32(), TimerDiv: p.U32(), Timer: p.U64()}
			v.APIC.IRR = p.Bytes(2)
			v.APIC.ISR = p.Bytes(2)
			v.MSRs = p.MSRs(2)
			st.VCPUs = append(st.VCPUs, v)
		case secDevice:
			st.Devices = append(st.Devices, arch.DeviceState{
				ID: p.Str(), Model: p.Str(), Class: arch.DeviceClass(p.U8()), MAC: p.Str(),
				MTU: int(p.U16()), CapacityB: p.U64(), WriteBack: p.Bool(), InFlight: int(p.U16()),
			})
		case secEnd:
			return st, nil
		default:
			return st, fmt.Errorf("unknown section %q", name)
		}
		if err := p.Err(); err != nil {
			return st, fmt.Errorf("section %q: %w", name, err)
		}
	}
}
