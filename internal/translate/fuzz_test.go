package translate_test

import (
	"reflect"
	"testing"

	"github.com/here-ft/here/internal/arch"
	"github.com/here-ft/here/internal/chv"
	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/kvm"
	"github.com/here-ft/here/internal/qemukvm"
	"github.com/here-ft/here/internal/translate"
	"github.com/here-ft/here/internal/vclock"
	"github.com/here-ft/here/internal/xen"
)

// FuzzTranslateRoundTrip sends every Xen image the decoder accepts to
// each other backend and back: xen → common → dst → common → xen. The
// trip may fail (a feature the destination lacks, a busy device, a
// value the destination's layout cannot hold), but when it succeeds
// the state must come back whole on the common fields. Only what the
// trip is defined to change may differ: kvmtool keeps the TSC rate in
// kHz, and the interrupt vectors and device models are the
// destination's and then Xen's own again.
func FuzzTranslateRoundTrip(f *testing.F) {
	clk := vclock.NewSim()
	xh, err := xen.New("fuzz-xen", clk)
	if err != nil {
		f.Fatal(err)
	}
	type dest struct {
		host *hypervisor.Host
		kHz  bool // the layout keeps the TSC rate in kHz
	}
	var dests []dest
	for _, d := range []struct {
		build func(string, vclock.Clock) (*hypervisor.Host, error)
		kHz   bool
	}{{kvm.New, true}, {chv.New, false}, {qemukvm.New, true}} {
		h, err := d.build("fuzz-dst", clk)
		if err != nil {
			f.Fatal(err)
		}
		dests = append(dests, dest{h, d.kHz})
	}

	vm, err := xh.CreateVM(hypervisor.VMConfig{
		Name: "fuzz-vm", MemBytes: 1 << 20, VCPUs: 2,
		Features: translate.CompatibleFeaturesAll(xh, dests[0].host, dests[1].host),
		Devices: []hypervisor.DeviceSpec{
			{Class: arch.DeviceNet, ID: "net0", MAC: "52:54:00:00:00:01"},
			{Class: arch.DeviceBlock, ID: "disk0", CapacityB: 1 << 30},
			{Class: arch.DeviceConsole, ID: "con0"},
		},
	})
	if err != nil {
		f.Fatal(err)
	}
	vm.Pause()
	st, err := vm.CaptureState()
	if err != nil {
		f.Fatal(err)
	}
	st.Timers.TSCFrequencyHz = 2_100_000_777
	st.IRQChip.Pending[1].Masked = true
	st.VCPUs[1].Halt = true
	st.VCPUs[0].APIC.ISR, st.VCPUs[0].APIC.IRR = []uint8{0x30}, []uint8{0x31, 0x41}
	seed, err := xh.EncodeState(st)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	// kvmtool holds the vCPU id and the MTU in 16 bits: this state must
	// fail to encode there, not arrive as id 4464 and MTU 4464.
	st.VCPUs[0].ID, st.Devices[0].MTU = 70000, 70000
	wide, err := xh.EncodeState(st)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wide)

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := xh.DecodeState(data)
		if err != nil {
			return
		}
		for _, d := range dests {
			img, err := translate.TranslateImage(data, xh, d.host, translate.Options{})
			if err != nil {
				continue
			}
			back, err := translate.TranslateImage(img, d.host, xh, translate.Options{})
			if err != nil {
				t.Fatalf("%s → xen: %v", d.host.Product(), err)
			}
			got, err := xh.DecodeState(back)
			if err != nil {
				t.Fatalf("%s → xen: decode: %v", d.host.Product(), err)
			}
			want := st.Clone()
			if d.kHz {
				want.Timers.TSCFrequencyHz -= want.Timers.TSCFrequencyHz % 1000
			}
			for i := range want.IRQChip.Pending {
				want.IRQChip.Pending[i].Vector = uint32(1 + i) // event channel ports from 1
			}
			for i := range want.Devices {
				want.Devices[i].Model, _ = xh.DeviceModel(want.Devices[i].Class)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("xen → %s → xen changed the state:\nwant %+v\ngot  %+v", d.host.Product(), want, got)
			}
		}
	})
}
