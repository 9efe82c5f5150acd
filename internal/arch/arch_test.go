package arch

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestFeatureSetBasics(t *testing.T) {
	s := NewFeatureSet(FeatureFPU, FeatureSSE2, FeatureAVX)
	if !s.Has(FeatureSSE2) || s.Has(FeatureAVX2) {
		t.Fatal("Has gives wrong answers")
	}
}

func TestFeatureSetIntersect(t *testing.T) {
	xen := NewFeatureSet(FeatureFPU, FeatureSSE2, FeatureAVX, FeatureRDTSCP)
	kvm := NewFeatureSet(FeatureFPU, FeatureSSE2, FeatureAVX2, FeatureRDTSCP)
	common := xen.Intersect(kvm)
	if !common.Has(FeatureFPU) || !common.Has(FeatureSSE2) || !common.Has(FeatureRDTSCP) {
		t.Fatal("intersection lost shared features")
	}
	if common.Has(FeatureAVX) || common.Has(FeatureAVX2) {
		t.Fatal("intersection kept one-sided features")
	}
	if !common.IsSubsetOf(xen) || !common.IsSubsetOf(kvm) {
		t.Fatal("intersection is not a subset of both inputs")
	}
}

// Property: intersect is commutative, idempotent, and always a subset.
func TestFeatureSetIntersectProperties(t *testing.T) {
	f := func(a, b uint64) bool {
		sa, sb := FeatureSet(a), FeatureSet(b)
		i := sa.Intersect(sb)
		return i == sb.Intersect(sa) &&
			i.Intersect(sa) == i &&
			i.IsSubsetOf(sa) && i.IsSubsetOf(sb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFeatureSetString(t *testing.T) {
	s := NewFeatureSet(FeatureSSE2, FeatureFPU)
	str := s.String()
	if !strings.Contains(str, "fpu") || !strings.Contains(str, "sse2") {
		t.Fatalf("String = %q", str)
	}
	if idx := strings.Index(str, "fpu"); idx > strings.Index(str, "sse2") {
		t.Fatalf("String not sorted: %q", str)
	}
}

func TestVCPUStateCloneIsDeep(t *testing.T) {
	v := VCPUState{
		ID:   1,
		MSRs: map[uint32]uint64{0x10: 42},
		APIC: APICState{ISR: []uint8{3}, IRR: []uint8{4}},
	}
	c := v.Clone()
	c.MSRs[0x10] = 99
	c.APIC.ISR[0] = 9
	c.APIC.IRR[0] = 9
	if v.MSRs[0x10] != 42 || v.APIC.ISR[0] != 3 || v.APIC.IRR[0] != 4 {
		t.Fatal("Clone shares storage with the original")
	}
}

func TestMachineStateCloneIsDeep(t *testing.T) {
	m := MachineState{
		VCPUs: []VCPUState{{ID: 0, MSRs: map[uint32]uint64{1: 1}}},
		IRQChip: IRQChipState{
			Kind:    IRQChipEventChannel,
			Pending: []IRQBinding{{Source: "net0", Vector: 5}},
		},
		Devices: []DeviceState{{Class: DeviceNet, ID: "net0", Model: "xen-netfront"}},
	}
	c := m.Clone()
	c.VCPUs[0].MSRs[1] = 2
	c.IRQChip.Pending[0].Vector = 6
	c.Devices[0].Model = "virtio-net"
	if m.VCPUs[0].MSRs[1] != 1 {
		t.Fatal("clone shares MSR map")
	}
	if m.IRQChip.Pending[0].Vector != 5 {
		t.Fatal("clone shares IRQ bindings")
	}
	if m.Devices[0].Model != "xen-netfront" {
		t.Fatal("clone shares device slice")
	}
}

func TestMachineStateValidate(t *testing.T) {
	valid := MachineState{
		VCPUs:   []VCPUState{{ID: 0}, {ID: 1}},
		IRQChip: IRQChipState{Kind: IRQChipIOAPIC},
		Devices: []DeviceState{{Class: DeviceNet, ID: "net0"}},
	}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}

	tests := []struct {
		name   string
		mutate func(*MachineState)
	}{
		{"no vcpus", func(m *MachineState) { m.VCPUs = nil }},
		{"dup vcpu", func(m *MachineState) { m.VCPUs[1].ID = 0 }},
		{"bad irqchip", func(m *MachineState) { m.IRQChip.Kind = 0 }},
		{"empty device id", func(m *MachineState) { m.Devices[0].ID = "" }},
		{"dup device id", func(m *MachineState) {
			m.Devices = append(m.Devices, DeviceState{Class: DeviceBlock, ID: "net0"})
		}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			m := valid.Clone()
			tc.mutate(&m)
			if err := m.Validate(); err == nil {
				t.Fatal("invalid state accepted")
			}
		})
	}
}

func TestStringers(t *testing.T) {
	if IRQChipIOAPIC.String() != "ioapic" || IRQChipEventChannel.String() != "event-channel" {
		t.Fatal("IRQChipKind.String wrong")
	}
	if IRQChipKind(9).String() == "" {
		t.Fatal("unknown chip kind must still render")
	}
	if DeviceNet.String() != "net" || DeviceBlock.String() != "block" || DeviceConsole.String() != "console" {
		t.Fatal("DeviceClass.String wrong")
	}
	if DeviceClass(9).String() == "" {
		t.Fatal("unknown class must still render")
	}
}
