package orchestrator

import (
	"fmt"
	"testing"

	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/vclock"
	"github.com/here-ft/here/internal/xen"
)

// TestHostInfoAllocatesO1: a status row reads a host's VM count, not
// its sorted VM-name list — hostInfo must cost the same on a 1000-VM
// host as on an empty one.
func TestHostInfoAllocatesO1(t *testing.T) {
	h, err := xen.New("x0", vclock.NewSim())
	if err != nil {
		t.Fatal(err)
	}
	var info HostInfo
	allocs := func() float64 {
		return testing.AllocsPerRun(100, func() { info = hostInfo(h) })
	}
	empty := allocs()
	for i := 0; i < 1000; i++ {
		if _, err := h.CreateVM(hypervisor.VMConfig{
			Name: fmt.Sprintf("vm-%d", i), MemBytes: memory.PageSize, VCPUs: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := allocs(); got != empty {
		t.Fatalf("hostInfo allocates %.0f times on a 1000-VM host, %.0f on an empty one", got, empty)
	}
	if info.VMs != 1000 || h.VMCount() != len(h.VMs()) {
		t.Fatalf("VMs = %d, VMCount = %d, want 1000", info.VMs, h.VMCount())
	}
}
