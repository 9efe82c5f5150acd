package xen_test

import (
	"bytes"
	"os"
	"testing"

	"github.com/here-ft/here/internal/arch"
)

// goldenState is a fixed, fully populated Xen-flavored state: three
// vCPUs (one halted), pending and in-service vectors, MSRs, a
// non-default segment limit and IDTR, a masked binding, and one device
// of every class.
func goldenState() arch.MachineState {
	return arch.MachineState{
		Features: arch.NewFeatureSet(arch.FeatureFPU, arch.FeatureSSE2, arch.FeatureAVX, arch.FeatureHypervisor),
		Timers: arch.TimerState{
			TSCFrequencyHz: 2_100_000_000,
			SystemTimeNS:   123456789012,
			WallClockSec:   1702252800,
			WallClockNSec:  987654321,
		},
		IRQChip: arch.IRQChipState{
			Kind: arch.IRQChipEventChannel,
			Pending: []arch.IRQBinding{
				{Source: "net0", Vector: 1},
				{Source: "disk0", Vector: 2, Masked: true},
				{Source: "con0", Vector: 3},
			},
		},
		VCPUs: []arch.VCPUState{
			{
				ID: 0,
				Regs: arch.Registers{
					RAX: 0x1111, RBX: 0x2222, RSP: 0x7FF00000, RIP: 0xFFFF800000001000, RFLAGS: 0x246,
					CR0: 0x80050033, CR2: 0xDEAD, CR3: 0x1000, CR4: 0x3406E0, EFER: 0x500,
					CS:       arch.Segment{Selector: 0x10, Limit: 0xFFFFF, Flags: 0xA09B},
					GS:       arch.Segment{Selector: 0x18, Base: 0xFFFF888000000000, Limit: 0xFFFFFFFF},
					IDTRBase: 0xFFFFFE0000000000, IDTRLim: 0xFFF,
				},
				TSC:   424242424242,
				MSRs:  map[uint32]uint64{0xC0000101: 0xFFFF888000000000, 0xC0000080: 0x500, 0x174: 0x10},
				APIC:  arch.APICState{ID: 0, TPR: 2, Timer: 999, TimerDiv: 3, ISR: []uint8{0x30}, IRR: []uint8{0x31, 0x41}},
				Index: 7,
			},
			{ID: 1, Halt: true, TSC: 424242424243, APIC: arch.APICState{ID: 1}},
			{ID: 2, Regs: arch.Registers{RIP: 0x1000000}, APIC: arch.APICState{ID: 2, IRR: []uint8{0xEF}}},
		},
		Devices: []arch.DeviceState{
			{Class: arch.DeviceNet, ID: "net0", Model: "xen-netfront", MAC: "52:54:00:aa:bb:cc", MTU: 9000},
			{Class: arch.DeviceBlock, ID: "disk0", Model: "xen-blkfront", CapacityB: 64 << 30, WriteBack: true},
			{Class: arch.DeviceConsole, ID: "con0", Model: "xen-console"},
		},
	}
}

// TestStateImageGolden pins the save-stream layout byte for byte: a
// round trip cannot tell a moved field from a kept one, this can.
func TestStateImageGolden(t *testing.T) {
	got, err := newHost(t).EncodeState(goldenState())
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/state.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("image differs from testdata/state.golden:\ngot  %x\nwant %x", got, want)
	}
}
