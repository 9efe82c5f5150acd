// Package workload defines how simulated guest activity drives a VM:
// a Workload consumes slices of guest execution time and converts them
// into memory writes (dirty pages), computation (operations) and I/O.
//
// The paper's write-intensive memory microbenchmark (§8.1, Table 4,
// "Write-intensive benchmark using a defined memory percentage") lives
// here; the domain benchmarks (YCSB, SPEC-like kernels, sockperf) build
// on this package from their own packages.
package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/memory"
)

// ErrStopped is returned by Step when the VM is not running.
var ErrStopped = errors.New("workload: vm is not running")

// StepStats summarizes one execution step.
type StepStats struct {
	Ops      int64 // operations completed during the step
	Writes   int64 // page-granularity store operations issued
	BytesOut int64 // network output produced
}

// Add accumulates other into s.
func (s *StepStats) Add(other StepStats) {
	s.Ops += other.Ops
	s.Writes += other.Writes
	s.BytesOut += other.BytesOut
}

// Workload converts guest execution time into VM activity.
//
// Step is called only while the VM runs; implementations return
// ErrStopped if the VM pauses mid-step.
type Workload interface {
	// Name identifies the workload in experiment output.
	Name() string
	// Step advances the workload by d of guest execution time on vm.
	Step(vm *hypervisor.VM, d time.Duration) (StepStats, error)
}

// MemoryBench is the paper's memory microbenchmark: each vCPU
// performs random page-granularity writes over a working set covering
// a configurable percentage of guest memory. It is safe for concurrent
// use. The load percentage can be changed mid-run, which is how the
// Fig 9 load staircase (20% → 80% → 5%) is produced.
type MemoryBench struct {
	writesPerSec float64 // aggregate page writes per second across vCPUs

	mu      sync.Mutex
	rng     *rand.Rand
	percent float64 // working set as a fraction of guest memory, [0,1]
}

// DefaultWriteRate is the aggregate page-dirtying rate of the
// microbenchmark in pages/second: roughly 800 MB/s of stores at 4 KiB
// granularity, a deliberately write-hot profile.
const DefaultWriteRate = 200_000

// NewMemoryBench returns the microbenchmark writing over the given
// percentage of guest memory ([0,100]) at writesPerSec page writes per
// second (DefaultWriteRate if 0). The seed fixes the write pattern.
func NewMemoryBench(percent float64, writesPerSec float64, seed int64) (*MemoryBench, error) {
	if percent < 0 || percent > 100 {
		return nil, fmt.Errorf("workload: memory percent %v out of [0,100]", percent)
	}
	if writesPerSec == 0 {
		writesPerSec = DefaultWriteRate
	}
	if writesPerSec < 0 {
		return nil, fmt.Errorf("workload: negative write rate %v", writesPerSec)
	}
	return &MemoryBench{
		writesPerSec: writesPerSec,
		rng:          rand.New(rand.NewSource(seed)),
		percent:      percent / 100,
	}, nil
}

var _ Workload = (*MemoryBench)(nil)

// Name implements Workload.
func (m *MemoryBench) Name() string { return "membench" }

// SetPercent changes the working-set percentage ([0,100]) mid-run.
func (m *MemoryBench) SetPercent(percent float64) error {
	if percent < 0 || percent > 100 {
		return fmt.Errorf("workload: memory percent %v out of [0,100]", percent)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.percent = percent / 100
	return nil
}

// Percent reports the current working-set percentage.
func (m *MemoryBench) Percent() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.percent * 100
}

// Step issues the step's random writes, spreading them round-robin
// across the VM's vCPUs so per-vCPU PML rings see realistic traffic.
// When the number of writes in a step far exceeds the working set, the
// whole working set is marked dirty instead (the distinct-page outcome
// is the same and the engines only observe distinct dirty pages).
func (m *MemoryBench) Step(vm *hypervisor.VM, d time.Duration) (StepStats, error) {
	if d <= 0 {
		return StepStats{}, nil
	}
	m.mu.Lock()
	pct := m.percent
	writes := int64(m.writesPerSec * d.Seconds())
	m.mu.Unlock()

	total := vm.Memory().NumPages()
	ws := memory.PageNum(float64(total) * pct)
	if ws == 0 || writes == 0 {
		return StepStats{Writes: 0}, nil
	}
	vcpus := vm.NumVCPUs()

	if writes >= 3*int64(ws) {
		// Saturating case: every working-set page gets written — many
		// times over, so with several vCPUs each page is also written
		// by more than one vCPU (the cross-vCPU rewrites behind HERE's
		// "problematic pages", §7.2). Two touches from distinct vCPUs
		// preserve that attribution without issuing every write.
		for p := memory.PageNum(0); p < ws; p++ {
			if err := vm.TouchPage(int(p)%vcpus, p); err != nil {
				return StepStats{}, fmt.Errorf("%w: %v", ErrStopped, err)
			}
			if vcpus > 1 {
				if err := vm.TouchPage(int(p+1)%vcpus, p); err != nil {
					return StepStats{}, fmt.Errorf("%w: %v", ErrStopped, err)
				}
			}
		}
		return StepStats{Writes: writes}, nil
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	for i := int64(0); i < writes; i++ {
		p := memory.PageNum(m.rng.Int63n(int64(ws)))
		if err := vm.TouchPage(int(i)%vcpus, p); err != nil {
			return StepStats{}, fmt.Errorf("%w: %v", ErrStopped, err)
		}
	}
	return StepStats{Writes: writes}, nil
}

// Idle is a workload that does nothing — the paper's "idle VM"
// migration and replication scenarios.
type Idle struct{}

var _ Workload = Idle{}

// Name implements Workload.
func (Idle) Name() string { return "idle" }

// Step implements Workload; an idle guest dirties nothing.
func (Idle) Step(vm *hypervisor.VM, d time.Duration) (StepStats, error) {
	if !vm.Running() {
		return StepStats{}, ErrStopped
	}
	return StepStats{}, nil
}

// CPUKernel is a compute kernel with a characteristic operation cost
// and dirty-page profile, used to model the SPEC CPU 2006 benchmarks
// (§8.6): mostly computation, a modest store working set.
type CPUKernel struct {
	name       string
	opCost     time.Duration // guest time per operation
	dirtyPages int           // distinct pages dirtied per operation
	wsPages    memory.PageNum

	mu    sync.Mutex
	rng   *rand.Rand
	carry time.Duration // unconsumed guest time from previous steps
}

// NewCPUKernel returns a kernel named name where each operation costs
// opCost of guest time and dirties dirtyPages pages from a working set
// of wsPages.
func NewCPUKernel(name string, opCost time.Duration, dirtyPages int, wsPages memory.PageNum, seed int64) (*CPUKernel, error) {
	if name == "" {
		return nil, errors.New("workload: kernel needs a name")
	}
	if opCost <= 0 {
		return nil, fmt.Errorf("workload: kernel %q: op cost must be positive", name)
	}
	if dirtyPages < 0 || wsPages == 0 && dirtyPages > 0 {
		return nil, fmt.Errorf("workload: kernel %q: bad dirty profile (%d pages, ws %d)",
			name, dirtyPages, wsPages)
	}
	return &CPUKernel{
		name:       name,
		opCost:     opCost,
		dirtyPages: dirtyPages,
		wsPages:    wsPages,
		rng:        rand.New(rand.NewSource(seed)),
	}, nil
}

var _ Workload = (*CPUKernel)(nil)

// Name implements Workload.
func (k *CPUKernel) Name() string { return k.name }

// Step implements Workload: runs the operations that fit in d plus
// any carried-over remainder, dirtying the kernel's per-op page count
// within its working set. Sub-op time slices accumulate, so slicing an
// interval never loses work.
func (k *CPUKernel) Step(vm *hypervisor.VM, d time.Duration) (StepStats, error) {
	if d <= 0 {
		return StepStats{}, nil
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	budget := k.carry + d
	ops := int64(budget / k.opCost)
	k.carry = budget - time.Duration(ops)*k.opCost
	if ops == 0 {
		return StepStats{}, nil
	}
	ws := k.wsPages
	if max := vm.Memory().NumPages(); ws > max {
		ws = max
	}
	writes := ops * int64(k.dirtyPages)
	vcpus := vm.NumVCPUs()
	if ws > 0 && writes > 0 {
		if writes >= 3*int64(ws) {
			for p := memory.PageNum(0); p < ws; p++ {
				if err := vm.TouchPage(int(p)%vcpus, p); err != nil {
					return StepStats{}, fmt.Errorf("%w: %v", ErrStopped, err)
				}
			}
		} else {
			for i := int64(0); i < writes; i++ {
				p := memory.PageNum(k.rng.Int63n(int64(ws)))
				if err := vm.TouchPage(int(i)%vcpus, p); err != nil {
					return StepStats{}, fmt.Errorf("%w: %v", ErrStopped, err)
				}
			}
		}
	}
	return StepStats{Ops: ops, Writes: writes}, nil
}
