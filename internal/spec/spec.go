// Package spec provides the four SPEC CPU 2006 benchmarks the paper
// evaluates (§8.6, Fig 14–16): gcc, cactuBSSN, namd and lbm, modeled
// as compute kernels with calibrated operation rates and dirty-page
// profiles.
//
// The profiles preserve each benchmark's character: cactuBSSN and lbm
// stream through large grids (high dirty rates, strong replication
// degradation), namd's working set is cache-resident (lowest dirty
// rate, mildest degradation), and gcc sits in between with an
// allocation-heavy profile.
package spec

import (
	"fmt"
	"time"

	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/workload"
)

// Name identifies one of the evaluated SPEC benchmarks.
type Name string

// The four benchmarks of Fig 14–16.
const (
	GCC       Name = "gcc"
	CactuBSSN Name = "cactuBSSN"
	NAMD      Name = "namd"
	LBM       Name = "lbm"
)

// Names lists the benchmarks in the paper's figure order.
func Names() []Name { return []Name{GCC, CactuBSSN, NAMD, LBM} }

// profile captures a benchmark's execution characteristics.
type profile struct {
	opCost     time.Duration // one benchmark "operation" (iteration)
	dirtyPages int           // pages dirtied per operation
	wsPages    int           // store working set, in pages
}

// profiles is calibrated so the baseline rates match Fig 14's Xen
// bars (ops/sec): gcc ≈ 1.2, cactuBSSN ≈ 0.5, namd ≈ 5.5, lbm ≈ 6.5,
// and the replication degradations reproduce Fig 14's ordering
// (cactuBSSN hit hardest, namd least).
var profiles = map[Name]profile{
	GCC:       {opCost: 833 * time.Millisecond, dirtyPages: 250_000, wsPages: 700_000},
	CactuBSSN: {opCost: 2 * time.Second, dirtyPages: 850_000, wsPages: 1_200_000},
	NAMD:      {opCost: 182 * time.Millisecond, dirtyPages: 30_000, wsPages: 500_000},
	LBM:       {opCost: 154 * time.Millisecond, dirtyPages: 46_000, wsPages: 700_000},
}

// New returns the named benchmark as a workload.
func New(name Name, seed int64) (*workload.CPUKernel, error) {
	p, ok := profiles[name]
	if !ok {
		return nil, fmt.Errorf("spec: unknown benchmark %q", name)
	}
	return workload.NewCPUKernel(string(name), p.opCost, p.dirtyPages,
		memory.PageNum(p.wsPages), seed)
}

// BaselineRate reports the unreplicated operation rate (ops/sec) of a
// benchmark — the Fig 14 "Xen" bars.
func BaselineRate(name Name) (float64, error) {
	p, ok := profiles[name]
	if !ok {
		return 0, fmt.Errorf("spec: unknown benchmark %q", name)
	}
	return float64(time.Second) / float64(p.opCost), nil
}
