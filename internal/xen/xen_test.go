package xen_test

import (
	"reflect"
	"strings"
	"testing"

	"github.com/here-ft/here/internal/arch"
	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/vclock"
	"github.com/here-ft/here/internal/xen"
)

func newHost(t *testing.T) *hypervisor.Host {
	t.Helper()
	h, err := xen.New("host-a", vclock.NewSim())
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// richState builds a fully populated Xen-flavored machine state that
// exercises every codec field.
func richState() arch.MachineState {
	return arch.MachineState{
		Features: xen.Features(),
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
			},
		},
		VCPUs: []arch.VCPUState{
			{
				ID: 0,
				Regs: arch.Registers{
					RAX: 1, RBX: 2, RCX: 3, RDX: 4, RSI: 5, RDI: 6, RBP: 7, RSP: 8,
					R8: 9, R9: 10, R10: 11, R11: 12, R12: 13, R13: 14, R14: 15, R15: 16,
					RIP: 0xFFFF800000001000, RFLAGS: 0x246,
					CR0: 0x80050033, CR2: 0xdead, CR3: 0x1000, CR4: 0x3406E0,
					EFER: 0x500,
					CS:   arch.Segment{Selector: 0x10, Limit: 0xFFFFFFFF, Flags: 0xA09B},
					GS:   arch.Segment{Selector: 0x18, Base: 0xFFFF888000000000},
				},
				TSC:   424242424242,
				MSRs:  map[uint32]uint64{0xC0000080: 0x500, 0xC0000100: 0x7F00},
				APIC:  arch.APICState{ID: 0, TPR: 1, Timer: 999, TimerDiv: 3, ISR: []uint8{0x30}, IRR: []uint8{0x31, 0x32}},
				Index: 7,
			},
			{ID: 1, Halt: true, APIC: arch.APICState{ID: 1}},
		},
		Devices: []arch.DeviceState{
			{Class: arch.DeviceNet, ID: "net0", Model: "xen-netfront",
				MAC: "52:54:00:aa:bb:cc", MTU: 1500},
			{Class: arch.DeviceBlock, ID: "disk0", Model: "xen-blkfront",
				CapacityB: 64 << 30, WriteBack: true, InFlight: 0},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	h := newHost(t)
	st := richState()
	data, err := h.EncodeState(st)
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.DecodeState(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, got) {
		t.Fatalf("round trip changed state:\nwant %+v\ngot  %+v", st, got)
	}
}

func TestEncodeRejectsForeignFlavor(t *testing.T) {
	h := newHost(t)
	st := richState()
	st.IRQChip.Kind = arch.IRQChipIOAPIC
	if _, err := h.EncodeState(st); err == nil {
		t.Fatal("encoded IOAPIC state as Xen")
	}
	st = richState()
	st.Devices[0].Model = "virtio-net"
	if _, err := h.EncodeState(st); err == nil {
		t.Fatal("encoded virtio device as Xen")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	h := newHost(t)
	cases := map[string][]byte{
		"empty":     nil,
		"bad magic": []byte("NOTXEN00rest"),
		"truncated": func() []byte {
			d, err := h.EncodeState(richState())
			if err != nil {
				t.Fatal(err)
			}
			return d[:len(d)/2]
		}(),
		"missing end": func() []byte {
			d, err := h.EncodeState(richState())
			if err != nil {
				t.Fatal(err)
			}
			return d[:len(d)-8] // strip the END record
		}(),
	}
	for name, data := range cases {
		if _, err := h.DecodeState(data); err == nil {
			t.Errorf("%s: decode succeeded", name)
		}
	}
}

func TestFormatIsLittleEndianRecords(t *testing.T) {
	h := newHost(t)
	data, err := h.EncodeState(richState())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "XLSAVE31") {
		t.Fatalf("magic = %q", data[:8])
	}
	// First record must be features (type 1, LE) with an 8-byte payload.
	if data[8] != 1 || data[9] != 0 || data[12] != 8 {
		t.Fatalf("first record header = % x", data[8:16])
	}
}

func TestDeviceModels(t *testing.T) {
	h := newHost(t)
	want := map[arch.DeviceClass]string{
		arch.DeviceNet:     "xen-netfront",
		arch.DeviceBlock:   "xen-blkfront",
		arch.DeviceConsole: "xen-console",
	}
	for class, model := range want {
		got, err := h.DeviceModel(class)
		if err != nil || got != model {
			t.Errorf("DeviceModel(%v) = %q, %v; want %q", class, got, err, model)
		}
	}
	if _, err := h.DeviceModel(arch.DeviceClass(99)); err == nil {
		t.Error("unknown class accepted")
	}
}

func TestIdentity(t *testing.T) {
	h := newHost(t)
	if h.Kind() != hypervisor.KindXen {
		t.Fatalf("Kind = %v", h.Kind())
	}
	if h.Product() != xen.Product {
		t.Fatalf("Product = %q", h.Product())
	}
	if h.HostName() != "host-a" {
		t.Fatalf("HostName = %q", h.HostName())
	}
}

func TestBootStateHasEventChannelsPerDevice(t *testing.T) {
	h := newHost(t)
	vm, err := h.CreateVM(hypervisor.VMConfig{
		Name: "vm", MemBytes: 1 << 20, VCPUs: 4,
		Devices: []hypervisor.DeviceSpec{
			{Class: arch.DeviceNet, ID: "net0"},
			{Class: arch.DeviceBlock, ID: "disk0"},
			{Class: arch.DeviceConsole, ID: "con0"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := vm.MachineState()
	if len(st.VCPUs) != 4 {
		t.Fatalf("vcpus = %d", len(st.VCPUs))
	}
	if len(st.IRQChip.Pending) != 3 {
		t.Fatalf("event channels = %d, want 3", len(st.IRQChip.Pending))
	}
	seen := map[uint32]bool{}
	for _, b := range st.IRQChip.Pending {
		if b.Vector == 0 {
			t.Fatal("event channel port 0 is reserved")
		}
		if seen[b.Vector] {
			t.Fatalf("duplicate event channel port %d", b.Vector)
		}
		seen[b.Vector] = true
	}
	// Net device gets a default MTU.
	if st.Devices[0].MTU != 1500 {
		t.Fatalf("default MTU = %d", st.Devices[0].MTU)
	}
}
