package experiments

import (
	"fmt"
	"math"
	"time"

	"github.com/here-ft/here/internal/metrics"
	"github.com/here-ft/here/internal/replication"
	"github.com/here-ft/here/internal/workload"
)

// TenantCapacity is the link capacity-planning result for multi-tenant
// deployments (§7.7): measured single-tenant interconnect demand and
// the projected tenant count at which one replication link saturates.
type TenantCapacity struct {
	// DemandShare is the fraction of link time one tenant's
	// checkpoints occupy at steady state (measured).
	DemandShare float64
	// BytesPerSec is the tenant's average replication traffic.
	BytesPerSec float64
	// MaxTenants is the projected number of tenants one link carries
	// before checkpoint transfers start queueing (1/DemandShare).
	MaxTenants int
	// Projections lists the projected link load at sample densities.
	Projections []TenantRow
}

// TenantRow is one projected density point.
type TenantRow struct {
	Tenants   int
	LinkLoad  float64 // projected fraction of link time in use
	Saturated bool
}

// TenantScaling measures one protected VM's steady-state interconnect
// demand and projects how many identical tenants a single replication
// link sustains — the capacity-planning question behind the paper's
// multi-hypervisor datacenter integration (§7.7). Tenants run on
// independent hosts, so the shared link is the first fleet-level
// bottleneck.
func TenantScaling(scale Scale, densities []int) (TenantCapacity, error) {
	var cap TenantCapacity
	if len(densities) == 0 {
		densities = []int{1, 2, 4, 8, 16}
	}
	pair, err := NewHeterogeneousPair()
	if err != nil {
		return cap, err
	}
	vm, err := pair.ProtectedVM("tenant", GB(scale.LoadedGB), 4)
	if err != nil {
		return cap, err
	}
	w, err := workload.NewMemoryBench(30, scale.WriteRatePages, scale.Seed)
	if err != nil {
		return cap, err
	}
	rep, err := newReplicator(vm, pair, replication.Config{
		Engine:   replication.EngineHERE,
		Period:   4 * time.Second,
		Workload: w,
	})
	if err != nil {
		return cap, err
	}
	if _, err := rep.Seed(); err != nil {
		return cap, err
	}
	// Measure steady-state demand only: snapshot link stats after
	// seeding so the one-off full-memory copy is excluded.
	bytesBefore, _, busyBefore := pair.Link.Stats()
	start := pair.Clock.Now()
	if _, err := rep.RunFor(secs(scale.RunSeconds)); err != nil {
		return cap, err
	}
	elapsed := pair.Clock.Since(start)
	bytesAfter, _, busyAfter := pair.Link.Stats()

	cap.DemandShare = float64(busyAfter-busyBefore) / float64(elapsed)
	cap.BytesPerSec = float64(bytesAfter-bytesBefore) / elapsed.Seconds()
	if cap.DemandShare > 0 {
		cap.MaxTenants = int(math.Floor(1 / cap.DemandShare))
	}
	for _, n := range densities {
		load := float64(n) * cap.DemandShare
		cap.Projections = append(cap.Projections, TenantRow{
			Tenants:   n,
			LinkLoad:  load,
			Saturated: load >= 1,
		})
	}
	return cap, nil
}

// RenderTenants formats the capacity projection.
func RenderTenants(cap TenantCapacity) *metrics.Table {
	tab := metrics.NewTable(fmt.Sprintf(
		"Multi-tenant link capacity (sec 7.7): demand %.1f%%/tenant, %.0f MiB/s, ~%d tenants/link",
		100*cap.DemandShare, cap.BytesPerSec/(1<<20), cap.MaxTenants),
		"Tenants", "ProjectedLinkLoad", "Saturated")
	for _, r := range cap.Projections {
		sat := ""
		if r.Saturated {
			sat = "SATURATED"
		}
		tab.AddRow(r.Tenants, fmt.Sprintf("%.0f%%", 100*r.LinkLoad), sat)
	}
	return tab
}
