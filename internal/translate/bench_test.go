package translate_test

import (
	"fmt"
	"testing"

	"github.com/here-ft/here/internal/arch"
	"github.com/here-ft/here/internal/chv"
	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/kvm"
	"github.com/here-ft/here/internal/translate"
	"github.com/here-ft/here/internal/vclock"
	"github.com/here-ft/here/internal/xen"
)

// BenchmarkStateRecord prices the state record a checkpoint ships to a
// heterogeneous secondary: capture a paused Xen guest's machine state
// (2 vCPUs, net, blk and console), translate it, and encode it in the
// destination's layout — one op per record.
func BenchmarkStateRecord(b *testing.B) {
	clk := vclock.NewSim()
	xh, err := xen.New("bench-xen", clk)
	if err != nil {
		b.Fatal(err)
	}
	for _, d := range []struct {
		name  string
		build func(string, vclock.Clock) (*hypervisor.Host, error)
	}{{"xen-kvm", kvm.New}, {"xen-chv", chv.New}} {
		dh, err := d.build("bench-"+d.name, clk)
		if err != nil {
			b.Fatal(err)
		}
		vm, err := xh.CreateVM(hypervisor.VMConfig{
			Name: fmt.Sprintf("vm-%s", d.name), MemBytes: 1 << 20, VCPUs: 2,
			Features: translate.CompatibleFeaturesAll(xh, dh),
			Devices: []hypervisor.DeviceSpec{
				{Class: arch.DeviceNet, ID: "net0", MAC: "52:54:00:00:00:01"},
				{Class: arch.DeviceBlock, ID: "disk0", CapacityB: 1 << 30},
				{Class: arch.DeviceConsole, ID: "con0"},
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		vm.Pause()
		b.Run(d.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				st, err := vm.CaptureState()
				if err != nil {
					b.Fatal(err)
				}
				out, err := translate.Translate(st, xh, dh, translate.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := dh.EncodeState(out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
