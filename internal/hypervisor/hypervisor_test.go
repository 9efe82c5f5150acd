package hypervisor_test

import (
	"errors"
	"testing"

	"github.com/here-ft/here/internal/arch"
	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/kvm"
	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/vclock"
	"github.com/here-ft/here/internal/xen"
)

func newXen(t *testing.T) (*hypervisor.Host, *vclock.SimClock) {
	t.Helper()
	clk := vclock.NewSim()
	h, err := xen.New("host-a", clk)
	if err != nil {
		t.Fatal(err)
	}
	return h, clk
}

func basicCfg(name string) hypervisor.VMConfig {
	return hypervisor.VMConfig{
		Name:     name,
		MemBytes: 64 * memory.PageSize,
		VCPUs:    2,
		Devices: []hypervisor.DeviceSpec{
			{Class: arch.DeviceNet, ID: "net0", MAC: "52:54:00:12:34:56"},
			{Class: arch.DeviceBlock, ID: "disk0", CapacityB: 1 << 30},
		},
	}
}

func TestVMConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		cfg     hypervisor.VMConfig
		wantErr bool
	}{
		{"valid", basicCfg("vm"), false},
		{"empty name", hypervisor.VMConfig{MemBytes: 1, VCPUs: 1}, true},
		{"zero mem", hypervisor.VMConfig{Name: "x", VCPUs: 1}, true},
		{"zero vcpus", hypervisor.VMConfig{Name: "x", MemBytes: 1}, true},
		{"empty device id", hypervisor.VMConfig{
			Name: "x", MemBytes: 1, VCPUs: 1,
			Devices: []hypervisor.DeviceSpec{{Class: arch.DeviceNet}},
		}, true},
		{"dup device id", hypervisor.VMConfig{
			Name: "x", MemBytes: 1, VCPUs: 1,
			Devices: []hypervisor.DeviceSpec{
				{Class: arch.DeviceNet, ID: "d"},
				{Class: arch.DeviceBlock, ID: "d"},
			},
		}, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if (err != nil) != tc.wantErr {
				t.Fatalf("Validate() = %v, wantErr = %v", err, tc.wantErr)
			}
		})
	}
}

func TestCreateVMLifecycle(t *testing.T) {
	h, _ := newXen(t)
	vm, err := h.CreateVM(basicCfg("vm1"))
	if err != nil {
		t.Fatal(err)
	}
	if !vm.Running() {
		t.Fatal("fresh VM must be running")
	}
	if vm.NumVCPUs() != 2 {
		t.Fatalf("NumVCPUs = %d, want 2", vm.NumVCPUs())
	}
	if vm.Hypervisor() != h {
		t.Fatal("VM lost its hypervisor")
	}
	if got := h.VMs(); len(got) != 1 || got[0] != "vm1" {
		t.Fatalf("VMs() = %v", got)
	}
	if _, err := h.CreateVM(basicCfg("vm1")); !errors.Is(err, hypervisor.ErrVMExists) {
		t.Fatalf("duplicate create: err = %v", err)
	}
	found, err := h.LookupVM("vm1")
	if err != nil || found != vm {
		t.Fatalf("LookupVM = %v, %v", found, err)
	}
	if _, err := h.LookupVM("nope"); !errors.Is(err, hypervisor.ErrVMNotFound) {
		t.Fatalf("missing lookup: err = %v", err)
	}
	if err := h.DestroyVM("vm1"); err != nil {
		t.Fatal(err)
	}
	if err := h.DestroyVM("vm1"); !errors.Is(err, hypervisor.ErrVMNotFound) {
		t.Fatalf("double destroy: err = %v", err)
	}
}

func TestPauseResumeAccountsCost(t *testing.T) {
	h, clk := newXen(t)
	vm, err := h.CreateVM(basicCfg("vm1"))
	if err != nil {
		t.Fatal(err)
	}
	before := clk.Elapsed()
	vm.Pause()
	if vm.Running() {
		t.Fatal("VM still running after Pause")
	}
	afterPause := clk.Elapsed()
	if afterPause-before != h.Costs().PauseVM {
		t.Fatalf("pause cost = %v, want %v", afterPause-before, h.Costs().PauseVM)
	}
	vm.Pause() // no-op
	if clk.Elapsed() != afterPause {
		t.Fatal("double pause accounted cost twice")
	}
	vm.Resume()
	if !vm.Running() {
		t.Fatal("VM not running after Resume")
	}
	if clk.Elapsed()-afterPause != h.Costs().ResumeVM {
		t.Fatalf("resume cost = %v, want %v", clk.Elapsed()-afterPause, h.Costs().ResumeVM)
	}
	vm.Resume() // no-op
	if clk.Elapsed()-afterPause != h.Costs().ResumeVM {
		t.Fatal("double resume accounted cost twice")
	}
}

func TestWriteGuestMarksDirty(t *testing.T) {
	h, _ := newXen(t)
	vm, err := h.CreateVM(basicCfg("vm1"))
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("hello replication")
	if err := vm.WriteGuest(1, memory.Addr(memory.PageSize-5), data); err != nil {
		t.Fatal(err)
	}
	bm := vm.Tracker().Bitmap()
	if !bm.Test(0) || !bm.Test(1) {
		t.Fatal("write spanning pages 0-1 did not dirty both")
	}
	pages, _ := vm.Tracker().Ring(1).Drain()
	if len(pages) != 2 {
		t.Fatalf("vcpu 1 ring = %v, want two pages", pages)
	}
	got := make([]byte, len(data))
	if err := vm.ReadGuest(memory.Addr(memory.PageSize-5), got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Fatalf("read back %q", got)
	}
}

func TestWriteAndTouchRejectedWhilePaused(t *testing.T) {
	h, _ := newXen(t)
	vm, err := h.CreateVM(basicCfg("vm1"))
	if err != nil {
		t.Fatal(err)
	}
	vm.Pause()
	if err := vm.WriteGuest(0, 0, []byte{1}); err == nil {
		t.Fatal("write on paused VM succeeded")
	}
	if err := vm.TouchPage(0, 1); err == nil {
		t.Fatal("touch on paused VM succeeded")
	}
	// Reads stay allowed: the replication engine reads paused guests.
	if err := vm.ReadGuest(0, make([]byte, 8)); err != nil {
		t.Fatalf("read on paused VM failed: %v", err)
	}
}

func TestTouchPageBounds(t *testing.T) {
	h, _ := newXen(t)
	vm, err := h.CreateVM(basicCfg("vm1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.TouchPage(0, 63); err != nil {
		t.Fatal(err)
	}
	if err := vm.TouchPage(0, 64); err == nil {
		t.Fatal("touch beyond memory succeeded")
	}
}

func TestCaptureStateRequiresPause(t *testing.T) {
	h, _ := newXen(t)
	vm, err := h.CreateVM(basicCfg("vm1"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.CaptureState(); !errors.Is(err, hypervisor.ErrVMNotPaused) {
		t.Fatalf("capture while running: err = %v", err)
	}
	vm.Pause()
	st, err := vm.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Validate(); err != nil {
		t.Fatalf("captured state invalid: %v", err)
	}
	if st.IRQChip.Kind != arch.IRQChipEventChannel {
		t.Fatal("Xen VM captured without event-channel irqchip")
	}
	if len(st.Devices) != 2 || st.Devices[0].Model != "xen-netfront" {
		t.Fatalf("devices = %+v", st.Devices)
	}
}

func TestCaptureStampsGuestClock(t *testing.T) {
	h, clk := newXen(t)
	vm, err := h.CreateVM(basicCfg("vm1"))
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(5 * 1e9) // 5s
	vm.Pause()
	st1, err := vm.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	vm.Resume()
	clk.Advance(5 * 1e9)
	vm.Pause()
	st2, err := vm.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	if st2.Timers.SystemTimeNS <= st1.Timers.SystemTimeNS {
		t.Fatal("guest clock did not advance between captures")
	}
	if st2.VCPUs[0].TSC <= st1.VCPUs[0].TSC {
		t.Fatal("guest TSC did not advance between captures")
	}
}

func TestHostFailStopsVMs(t *testing.T) {
	h, _ := newXen(t)
	vm, err := h.CreateVM(basicCfg("vm1"))
	if err != nil {
		t.Fatal(err)
	}
	h.Fail(hypervisor.Crashed, "CVE-2023-99999 DoS exploit")
	if h.Health() != hypervisor.Crashed {
		t.Fatalf("health = %v", h.Health())
	}
	if h.FailureReason() == "" {
		t.Fatal("failure reason lost")
	}
	if vm.Running() {
		t.Fatal("VM survived a host crash")
	}
	if _, err := h.CreateVM(basicCfg("vm2")); !errors.Is(err, hypervisor.ErrHostDown) {
		t.Fatalf("create on crashed host: err = %v", err)
	}
	h.Fail(hypervisor.Healthy, "ignored") // Fail(Healthy) is a no-op
	if h.Health() != hypervisor.Crashed {
		t.Fatal("Fail(Healthy) changed state")
	}
	h.Recover()
	if h.Health() != hypervisor.Healthy || len(h.VMs()) != 0 {
		t.Fatal("recover did not reboot the host")
	}
	if h.FailureReason() != "" {
		t.Fatal("failure reason survived recovery")
	}
}

func TestRestoreVMChecksFlavor(t *testing.T) {
	clk := vclock.NewSim()
	xenHost, err := xen.New("host-a", clk)
	if err != nil {
		t.Fatal(err)
	}
	kvmHost, err := kvm.New("host-b", clk)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := xenHost.CreateVM(basicCfg("vm1"))
	if err != nil {
		t.Fatal(err)
	}
	vm.Pause()
	st, err := vm.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	// Untranslated Xen state must be rejected by KVM.
	mem := memory.NewGuestMemory(64 * memory.PageSize)
	if _, err := kvmHost.RestoreVM(basicCfg("vm1"), st, mem); err == nil {
		t.Fatal("KVM accepted raw Xen-flavored state without translation")
	}
	// And accepted by Xen itself.
	restored, err := xenHost.RestoreVM(basicCfg("vm1-replica"), st, mem)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Running() {
		t.Fatal("restored VM must start paused")
	}
}

func TestRestoreVMRejectsNilMemory(t *testing.T) {
	h, _ := newXen(t)
	vm, err := h.CreateVM(basicCfg("vm1"))
	if err != nil {
		t.Fatal(err)
	}
	vm.Pause()
	st, err := vm.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.RestoreVM(basicCfg("r"), st, nil); err == nil {
		t.Fatal("restore with nil memory succeeded")
	}
}

func TestHealthStateString(t *testing.T) {
	cases := map[hypervisor.HealthState]string{
		hypervisor.Healthy: "healthy",
		hypervisor.Crashed: "crashed",
		hypervisor.Hung:    "hung",
		hypervisor.Starved: "starved",
	}
	for state, want := range cases {
		if state.String() != want {
			t.Errorf("%d.String() = %q, want %q", state, state.String(), want)
		}
	}
	if hypervisor.HealthState(42).String() == "" {
		t.Error("unknown state must still render")
	}
}
