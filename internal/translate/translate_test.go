package translate_test

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/here-ft/here/internal/arch"
	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/kvm"
	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/translate"
	"github.com/here-ft/here/internal/vclock"
	"github.com/here-ft/here/internal/xen"
)

func hosts(t *testing.T) (xh, kh *hypervisor.Host) {
	t.Helper()
	clk := vclock.NewSim()
	var err error
	xh, err = xen.New("host-a", clk)
	if err != nil {
		t.Fatal(err)
	}
	kh, err = kvm.New("host-b", clk)
	if err != nil {
		t.Fatal(err)
	}
	return xh, kh
}

// protectedVMState captures the state of a Xen VM booted with the
// cross-hypervisor feature intersection, the way HERE boots protected
// VMs.
func protectedVMState(t *testing.T, xh, kh *hypervisor.Host) arch.MachineState {
	t.Helper()
	vm, err := xh.CreateVM(hypervisor.VMConfig{
		Name: "protected", MemBytes: 1 << 22, VCPUs: 4,
		Devices: []hypervisor.DeviceSpec{
			{Class: arch.DeviceNet, ID: "net0", MAC: "52:54:00:00:00:01"},
			{Class: arch.DeviceBlock, ID: "disk0", CapacityB: 8 << 30},
			{Class: arch.DeviceConsole, ID: "con0"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	vm.Pause()
	st, err := vm.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	st.Features = translate.CompatibleFeaturesAll(xh, kh)
	return st
}

func TestCompatibleFeaturesIsStrictIntersection(t *testing.T) {
	xh, kh := hosts(t)
	common := translate.CompatibleFeaturesAll(xh, kh)
	if !common.IsSubsetOf(xh.Features()) || !common.IsSubsetOf(kh.Features()) {
		t.Fatal("intersection not a subset of both")
	}
	if common == xh.Features() || common == kh.Features() {
		t.Fatal("intersection trivially equals one side; flavors should diverge")
	}
	if common.Has(arch.FeaturePCID) || common.Has(arch.FeatureX2APIC) {
		t.Fatal("one-sided features leaked into intersection")
	}
	if !common.Has(arch.FeatureSSE2) || !common.Has(arch.FeatureAVX2) {
		t.Fatal("shared features missing from intersection")
	}
}

func TestTranslateXenToKVM(t *testing.T) {
	xh, kh := hosts(t)
	st := protectedVMState(t, xh, kh)
	out, err := translate.Translate(st, xh, kh, translate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The output must load natively on KVM.
	if _, err := kh.RestoreVM(hypervisor.VMConfig{
		Name: "replica", MemBytes: 1 << 22, VCPUs: 4,
	}, out, newMem()); err != nil {
		t.Fatalf("translated state rejected by KVM: %v", err)
	}
	// Registers survive bit-for-bit.
	for i := range st.VCPUs {
		if !reflect.DeepEqual(st.VCPUs[i].Regs, out.VCPUs[i].Regs) {
			t.Fatalf("vcpu %d registers changed in translation", i)
		}
	}
	// Devices keep identity, class and config but switch models.
	if len(out.Devices) != len(st.Devices) {
		t.Fatal("device count changed")
	}
	for i, d := range out.Devices {
		if d.ID != st.Devices[i].ID || d.Class != st.Devices[i].Class {
			t.Fatalf("device %d identity changed: %+v", i, d)
		}
		if d.MAC != st.Devices[i].MAC || d.CapacityB != st.Devices[i].CapacityB {
			t.Fatalf("device %d config changed: %+v", i, d)
		}
	}
	if out.Devices[0].Model != "virtio-net" || out.Devices[1].Model != "virtio-blk" {
		t.Fatalf("device models not switched: %+v", out.Devices)
	}
	// IRQ chip converted with source association preserved.
	if out.IRQChip.Kind != arch.IRQChipIOAPIC {
		t.Fatalf("irqchip = %v", out.IRQChip.Kind)
	}
	for i, b := range out.IRQChip.Pending {
		if b.Source != st.IRQChip.Pending[i].Source {
			t.Fatal("interrupt source association lost")
		}
		if b.Vector < kvm.FirstGSI {
			t.Fatalf("binding %q on legacy GSI %d", b.Source, b.Vector)
		}
	}
	// Timers preserved.
	if out.Timers != st.Timers {
		t.Fatalf("timers changed: %+v vs %+v", out.Timers, st.Timers)
	}
}

func TestTranslateDoesNotMutateInput(t *testing.T) {
	xh, kh := hosts(t)
	st := protectedVMState(t, xh, kh)
	snapshot := st.Clone()
	if _, err := translate.Translate(st, xh, kh, translate.Options{}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, snapshot) {
		t.Fatal("Translate mutated its input")
	}
}

func TestTranslateRoundTripPreservesState(t *testing.T) {
	xh, kh := hosts(t)
	st := protectedVMState(t, xh, kh)
	there, err := translate.Translate(st, xh, kh, translate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	back, err := translate.Translate(there, kh, xh, translate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, back) {
		t.Fatalf("Xen→KVM→Xen round trip changed state:\nwant %+v\ngot  %+v", st, back)
	}
}

func TestTranslateImageFullWirePath(t *testing.T) {
	xh, kh := hosts(t)
	st := protectedVMState(t, xh, kh)
	xenImage, err := xh.EncodeState(st)
	if err != nil {
		t.Fatal(err)
	}
	kvmImage, err := translate.TranslateImage(xenImage, xh, kh, translate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := kh.DecodeState(kvmImage)
	if err != nil {
		t.Fatalf("translated image not loadable by kvmtool: %v", err)
	}
	if decoded.IRQChip.Kind != arch.IRQChipIOAPIC {
		t.Fatal("image translation did not convert irqchip")
	}
	// Feeding the raw Xen image to KVM directly must fail.
	if _, err := kh.DecodeState(xenImage); err == nil {
		t.Fatal("raw Xen image decoded by kvmtool")
	}
	// And a corrupt image fails cleanly.
	if _, err := translate.TranslateImage(xenImage[:10], xh, kh, translate.Options{}); err == nil {
		t.Fatal("truncated image translated")
	}
}

func TestTranslateRejectsIncompatibleFeatures(t *testing.T) {
	xh, kh := hosts(t)
	st := protectedVMState(t, xh, kh)
	st.Features = xh.Features() // includes PCID, absent on kvmtool
	_, err := translate.Translate(st, xh, kh, translate.Options{})
	if !errors.Is(err, translate.ErrFeatureMismatch) {
		t.Fatalf("err = %v, want ErrFeatureMismatch", err)
	}
	// With masking the translation proceeds and drops the extras.
	out, err := translate.Translate(st, xh, kh, translate.Options{MaskFeatures: true})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Features.IsSubsetOf(kh.Features()) {
		t.Fatal("masked features still unsupported")
	}
}

func TestTranslateRejectsBusyDevices(t *testing.T) {
	xh, kh := hosts(t)
	st := protectedVMState(t, xh, kh)
	st.Devices[1].InFlight = 3
	_, err := translate.Translate(st, xh, kh, translate.Options{})
	if !errors.Is(err, translate.ErrDeviceBusy) {
		t.Fatalf("err = %v, want ErrDeviceBusy", err)
	}
}

func TestTranslateRejectsInvalidState(t *testing.T) {
	xh, kh := hosts(t)
	if _, err := translate.Translate(arch.MachineState{}, xh, kh, translate.Options{}); err == nil {
		t.Fatal("empty state translated")
	}
}

func TestTranslateSameKindIsIdentity(t *testing.T) {
	xh, kh := hosts(t)
	st := protectedVMState(t, xh, kh)
	out, err := translate.Translate(st, xh, xh, translate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, out) {
		t.Fatal("Xen→Xen translation changed state")
	}
}

// Property: for arbitrary register files, translation Xen→KVM→Xen is
// the identity on vCPU registers, MSRs and APIC state.
func TestTranslateRegisterRoundTripProperty(t *testing.T) {
	xh, kh := hosts(t)
	base := protectedVMState(t, xh, kh)
	f := func(rax, rip, cr3, tsc uint64, msr uint64, isr []uint8) bool {
		st := base.Clone()
		st.VCPUs[0].Regs.RAX = rax
		st.VCPUs[0].Regs.RIP = rip
		st.VCPUs[0].Regs.CR3 = cr3
		st.VCPUs[0].TSC = tsc
		st.VCPUs[0].MSRs[0xC0000100] = msr
		if len(isr) > 200 {
			isr = isr[:200]
		}
		if len(isr) == 0 {
			isr = nil // Clone normalizes empty slices to nil
		}
		st.VCPUs[0].APIC.ISR = isr
		there, err := translate.Translate(st, xh, kh, translate.Options{})
		if err != nil {
			return false
		}
		back, err := translate.Translate(there, kh, xh, translate.Options{})
		if err != nil {
			return false
		}
		return reflect.DeepEqual(st.VCPUs, back.VCPUs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func newMem() *memory.GuestMemory { return memory.NewGuestMemory(1 << 22) }
