// Package experiments regenerates every table and figure of the
// paper's evaluation (§8): one runner per artifact, each returning
// structured rows plus a rendered text table. The bench harness
// (bench_test.go) and cmd/here-bench drive these runners.
//
// Scale controls experiment size: FullScale approximates the paper's
// parameters (GB-class VMs, minutes of simulated time); QuickScale
// shrinks everything for CI-speed runs while preserving every shape
// the paper reports.
package experiments

import (
	"fmt"
	"time"

	"github.com/here-ft/here/internal/arch"
	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/kvm"
	"github.com/here-ft/here/internal/simnet"
	"github.com/here-ft/here/internal/translate"
	"github.com/here-ft/here/internal/vclock"
	"github.com/here-ft/here/internal/xen"
)

// Scale sizes the experiments.
type Scale struct {
	// MemoryGB is the VM memory sweep of Fig 6/7/8 (paper: 1–20 GB).
	MemoryGB []int
	// LoadPercents is the microbenchmark load sweep of Fig 6 (right).
	LoadPercents []float64
	// LoadedGB is the VM size used for load-sweep experiments.
	LoadedGB int
	// RunSeconds is the steady-state observation window per
	// replication configuration.
	RunSeconds int
	// TraceSeconds is the Fig 9/10 trace length (paper: ~180 s).
	TraceSeconds int
	// YCSBRecords is the loaded record count (paper: 1M).
	YCSBRecords int
	// WriteRatePages is the microbenchmark dirty rate (pages/s).
	WriteRatePages float64
	// DynTmax, DynSigma and DynStart parameterize the dynamic period
	// controller for the Fig 9/10 traces; the controller must be able
	// to converge within the trace length at each scale.
	DynTmax  time.Duration
	DynSigma time.Duration
	DynStart time.Duration
	// Seed fixes all workload randomness.
	Seed int64
}

// FullScale approximates the paper's experiment sizes.
func FullScale() Scale {
	return Scale{
		MemoryGB:       []int{1, 2, 4, 8, 16, 20},
		LoadPercents:   []float64{10, 20, 40, 60, 80},
		LoadedGB:       8,
		RunSeconds:     60,
		TraceSeconds:   180,
		YCSBRecords:    200_000,
		WriteRatePages: 600_000,
		DynTmax:        25 * time.Second,
		DynSigma:       time.Second,
		DynStart:       4 * time.Second,
		Seed:           42,
	}
}

// QuickScale shrinks everything for fast runs (tests, -short benches).
func QuickScale() Scale {
	return Scale{
		MemoryGB:       []int{1, 2, 4},
		LoadPercents:   []float64{20, 60},
		LoadedGB:       2,
		RunSeconds:     25,
		TraceSeconds:   90,
		YCSBRecords:    20_000,
		WriteRatePages: 800_000,
		DynTmax:        4 * time.Second,
		DynSigma:       250 * time.Millisecond,
		DynStart:       2 * time.Second,
		Seed:           42,
	}
}

// Pair is a primary/secondary host pair plus the replication link,
// all on one virtual clock.
type Pair struct {
	Clock     *vclock.SimClock
	Primary   *hypervisor.Host // Xen
	Secondary *hypervisor.Host // KVM (HERE) or Xen (Remus)
	Link      *simnet.Link
}

// NewHeterogeneousPair builds the paper's testbed: Xen primary, KVM
// secondary, Omni-Path replication link.
func NewHeterogeneousPair() (*Pair, error) {
	clk := vclock.NewSim()
	xh, err := xen.New("host-a", clk)
	if err != nil {
		return nil, err
	}
	kh, err := kvm.New("host-b", clk)
	if err != nil {
		return nil, err
	}
	link, err := simnet.NewLink(simnet.OmniPath100(), clk)
	if err != nil {
		return nil, err
	}
	return &Pair{Clock: clk, Primary: xh, Secondary: kh, Link: link}, nil
}

// NewHomogeneousPair builds a Remus-style pair: Xen on both sides.
func NewHomogeneousPair() (*Pair, error) {
	clk := vclock.NewSim()
	xa, err := xen.New("host-a", clk)
	if err != nil {
		return nil, err
	}
	xb, err := xen.New("host-b", clk)
	if err != nil {
		return nil, err
	}
	link, err := simnet.NewLink(simnet.OmniPath100(), clk)
	if err != nil {
		return nil, err
	}
	return &Pair{Clock: clk, Primary: xa, Secondary: xb, Link: link}, nil
}

// ProtectedVM boots the protected VM on the pair's primary with the
// cross-hypervisor CPUID intersection and the paper's standard device
// set.
func (p *Pair) ProtectedVM(name string, memBytes uint64, vcpus int) (*hypervisor.VM, error) {
	return p.Primary.CreateVM(hypervisor.VMConfig{
		Name:     name,
		MemBytes: memBytes,
		VCPUs:    vcpus,
		Features: translate.CompatibleFeatures(p.Primary, p.Secondary),
		Devices: []hypervisor.DeviceSpec{
			{Class: arch.DeviceNet, ID: "net0", MAC: "52:54:00:00:00:01"},
			{Class: arch.DeviceBlock, ID: "disk0", CapacityB: 64 << 30},
		},
	})
}

// GB converts gigabytes to bytes.
func GB(n int) uint64 { return uint64(n) << 30 }

func secs(n int) time.Duration { return time.Duration(n) * time.Second }

// millis renders a virtual duration in milliseconds at microsecond
// resolution: the unit of every *_ms column of a BENCH_*.json file.
func millis(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }

func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
