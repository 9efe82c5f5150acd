// Package placement turns HERE's replica-pairing argument (§8.2) into
// an executable policy. The paper rejects QEMU-KVM as a secondary for
// a Xen primary because both deployments embed QEMU: one device-model
// exploit would take down both replicas at once. This engine
// generalizes that one decision into scoring: every candidate
// (primary, secondary…) assignment is scored by the number of DoS-only
// CVEs the pair would share (vulns.Overlap) plus the candidate host's
// load, capability-gated on what each backend can actually do
// (hypervisor.Capabilities), and the losers are reported with typed
// rejection reasons so the control plane can show *why* a host was not
// chosen.
package placement

import (
	"errors"
	"fmt"
	"sort"

	"github.com/here-ft/here/internal/arch"
	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/trace"
	"github.com/here-ft/here/internal/vulns"
)

// Errors reported by planning.
var (
	// ErrNoPrimary means no host can run the protected primary.
	ErrNoPrimary = errors.New("placement: no eligible primary host")
	// ErrNoSecondary means no host can hold even one replica.
	ErrNoSecondary = errors.New("placement: no eligible secondary host")
)

// Spec describes one placement request.
type Spec struct {
	// Name is the protection name, used in rationale text.
	Name string
	// Secondaries is the requested chain width N (1-primary +
	// N-secondary). Zero means one.
	Secondaries int
	// Primary optionally pins the primary to a named host (re-protect
	// and failover re-planning keep the surviving copy where it is).
	// Empty lets the engine choose.
	Primary string
	// Warm optionally names a host that already holds a copy of this
	// guest's memory (the fenced primary after a forced failover). Gated
	// like any candidate, it takes a slot only when its CVE overlap is no
	// higher than the score's pick: it outranks load, never security.
	Warm string
	// Features optionally names the CPUID features the guest already
	// runs with (re-planning keeps its guest): a secondary must expose
	// each of them, or the guest could not resume there. Zero when no
	// guest exists yet.
	Features arch.FeatureSet
}

// RejectReason is a typed explanation for why a candidate host was not
// selected; the control plane surfaces these verbatim.
type RejectReason string

// Rejection reasons.
const (
	// RejectUnhealthy: the host is crashed, hung or starved.
	RejectUnhealthy RejectReason = "unhealthy"
	// RejectIsPrimary: the host already runs this protection's primary.
	RejectIsPrimary RejectReason = "is-primary"
	// RejectNoRestore: the backend cannot instantiate a paused VM from
	// translated state (Capabilities.SnapshotRestore).
	RejectNoRestore RejectReason = "no-snapshot-restore"
	// RejectNoDirtyLog: the backend cannot track dirty pages of a
	// running guest (Capabilities.LiveDirtyLog) — primary role only.
	RejectNoDirtyLog RejectReason = "no-live-dirty-log"
	// RejectNoFeatures: the CPUID feature intersection with the primary
	// is empty, or the host lacks a feature the guest booted with
	// (Spec.Features; Detail lists the missing ones); the guest could
	// never resume here.
	RejectNoFeatures RejectReason = "no-feature-overlap"
	// RejectHostFull: the host is at its VM capacity.
	RejectHostFull RejectReason = "host-full"
	// RejectSharedCVEs: a lower-overlap flavor was available — the §8.2
	// rejection generalized. The Overlap field carries the shared
	// DoS-only CVE count that disqualified the host.
	RejectSharedCVEs RejectReason = "shared-cve-surface"
	// RejectOutscored: same overlap as a winner, but more loaded.
	RejectOutscored RejectReason = "outscored"
)

// Rejection records one candidate host that was not selected and why.
type Rejection struct {
	Host    string       `json:"host"`
	Flavor  vulns.Flavor `json:"flavor"`
	Reason  RejectReason `json:"reason"`
	Overlap int          `json:"overlap,omitempty"` // shared DoS CVEs with the primary
	Detail  string       `json:"detail,omitempty"`
}

// Choice records one selected host and the score that selected it.
type Choice struct {
	Host   string       `json:"host"`
	Flavor vulns.Flavor `json:"flavor"`
	// Overlap is the DoS-only CVE count shared with the primary.
	Overlap int `json:"overlap"`
	// Load is the host's resident VM count at planning time.
	Load int `json:"load"`
	// Score is the chain-aware score the greedy selection minimized
	// (overlap with primary and already-chosen secondaries, plus load).
	Score float64 `json:"score"`
	// Warm marks a host taken for the copy of the guest it already
	// holds (Spec.Warm), whatever its load: Score need not be the lowest.
	Warm bool `json:"warm,omitempty"`
}

// Decision is the serializable rationale of one plan: what was chosen,
// what was rejected, and why. The orchestrator stores it per
// protection and the control plane returns it in VM status.
type Decision struct {
	Primary     Choice      `json:"primary"`
	Secondaries []Choice    `json:"secondaries"`
	Rejections  []Rejection `json:"rejections,omitempty"`
	// Shortfall counts requested secondaries that could not be placed;
	// the orchestrator keeps re-planning until it reaches zero.
	Shortfall int `json:"shortfall,omitempty"`
}

// Assignment is a plan's result: live host handles plus the decision
// rationale.
type Assignment struct {
	Primary     *hypervisor.Host
	Secondaries []*hypervisor.Host
	Decision    Decision
}

// Config tunes the engine.
type Config struct {
	// OverlapWeight is the score per shared DoS-only CVE. The defaults
	// make security dominate: the smallest non-zero flavor overlap in
	// the study (38 CVEs) outweighs any plausible load difference, so
	// load only breaks ties between equally-heterogeneous flavors.
	OverlapWeight float64 // default 10
	// LoadWeight is the score per resident VM on the candidate.
	LoadWeight float64 // default 1
	// MaxVMs caps VMs per host (primaries plus replicas the engine
	// counts via the host's VM registry). Zero means unlimited.
	MaxVMs int
	// Metrics optionally registers here_placement_* counters.
	Metrics *trace.Registry
}

// Engine scores and plans assignments. Safe for concurrent use: all
// state is written at construction.
type Engine struct {
	cfg Config

	plans      *trace.Counter
	rejections *trace.Counter
	shortfalls *trace.Counter
}

// New builds an engine. A nil metrics registry disables counters.
func New(cfg Config) *Engine {
	if cfg.OverlapWeight == 0 {
		cfg.OverlapWeight = 10
	}
	if cfg.LoadWeight == 0 {
		cfg.LoadWeight = 1
	}
	e := &Engine{cfg: cfg}
	if reg := cfg.Metrics; reg != nil {
		e.plans = reg.Counter("here_placement_plans_total",
			"Placement plans computed.")
		e.rejections = reg.Counter("here_placement_rejections_total",
			"Candidate hosts rejected across all plans.")
		e.shortfalls = reg.Counter("here_placement_shortfall_total",
			"Requested secondaries that could not be placed.")
	}
	return e
}

// candidate is one host while scoring.
type candidate struct {
	host    *hypervisor.Host
	flavor  vulns.Flavor
	overlap int // with the primary
	load    int
}

// Plan chooses a primary (unless pinned) and Spec.Secondaries replica
// hosts from the fleet. The primary is the least-loaded healthy host
// whose backend can dirty-log a live guest; secondaries are chosen
// greedily by minimal score, where score is the CVE overlap with the
// primary and the already-chosen secondaries (weighted) plus host
// load. A plan with at least one secondary succeeds even if fewer than
// requested fit — the Decision records the Shortfall.
func (e *Engine) Plan(spec Spec, hosts []*hypervisor.Host) (Assignment, error) {
	if spec.Secondaries <= 0 {
		spec.Secondaries = 1
	}
	primary, err := e.pickPrimary(spec, hosts)
	if err != nil {
		return Assignment{}, err
	}
	return e.planSecondaries(spec, primary, hosts)
}

// PlanSecondaries plans replica hosts for an existing primary —
// the re-protect and post-failover re-planning path.
func (e *Engine) PlanSecondaries(spec Spec, primary *hypervisor.Host, hosts []*hypervisor.Host) (Assignment, error) {
	if primary == nil {
		return Assignment{}, ErrNoPrimary
	}
	if spec.Secondaries <= 0 {
		spec.Secondaries = 1
	}
	return e.planSecondaries(spec, primary, hosts)
}

func (e *Engine) pickPrimary(spec Spec, hosts []*hypervisor.Host) (*hypervisor.Host, error) {
	if spec.Primary != "" {
		for _, h := range hosts {
			if h.HostName() != spec.Primary {
				continue
			}
			if h.Health() != hypervisor.Healthy {
				return nil, fmt.Errorf("%w: pinned host %q is %s", ErrNoPrimary, spec.Primary, h.Health())
			}
			if !h.Capabilities().LiveDirtyLog {
				return nil, fmt.Errorf("%w: pinned host %q cannot dirty-log a live guest", ErrNoPrimary, spec.Primary)
			}
			return h, nil
		}
		return nil, fmt.Errorf("%w: pinned host %q not in fleet", ErrNoPrimary, spec.Primary)
	}
	var best *hypervisor.Host
	bestLoad := 0
	for _, h := range hosts {
		if h.Health() != hypervisor.Healthy || !h.Capabilities().LiveDirtyLog {
			continue
		}
		load := h.VMCount()
		if e.cfg.MaxVMs > 0 && load >= e.cfg.MaxVMs {
			continue
		}
		// Ties go to the earliest host in the fleet list (registration
		// order), matching the orchestrator's historical behavior.
		if best == nil || load < bestLoad {
			best, bestLoad = h, load
		}
	}
	if best == nil {
		return nil, ErrNoPrimary
	}
	return best, nil
}

func (e *Engine) planSecondaries(spec Spec, primary *hypervisor.Host, hosts []*hypervisor.Host) (Assignment, error) {
	if e.plans != nil {
		e.plans.Inc()
	}
	primaryFlavor := primary.Capabilities().VulnFlavor
	asn := Assignment{
		Primary: primary,
		Decision: Decision{
			Primary: Choice{
				Host:    primary.HostName(),
				Flavor:  primaryFlavor,
				Overlap: vulns.Overlap(primaryFlavor, primaryFlavor),
				Load:    primary.VMCount(),
			},
		},
	}

	// Gate every host on capabilities and health, recording typed
	// rejections as we go.
	var pool []candidate
	for _, h := range hosts {
		flavor := h.Capabilities().VulnFlavor
		reject := func(reason RejectReason, overlap int, detail string) {
			asn.Decision.Rejections = append(asn.Decision.Rejections, Rejection{
				Host: h.HostName(), Flavor: flavor, Reason: reason,
				Overlap: overlap, Detail: detail,
			})
		}
		switch {
		case h == primary || h.HostName() == primary.HostName():
			reject(RejectIsPrimary, 0, "")
		case h.Health() != hypervisor.Healthy:
			reject(RejectUnhealthy, 0, h.Health().String())
		case !h.Capabilities().SnapshotRestore:
			reject(RejectNoRestore, 0, "")
		case h.Features().Intersect(primary.Features()) == 0:
			reject(RejectNoFeatures, 0, "")
		case !spec.Features.IsSubsetOf(h.Features()):
			reject(RejectNoFeatures, 0, "missing "+(spec.Features&^h.Features()).String())
		case e.cfg.MaxVMs > 0 && h.VMCount() >= e.cfg.MaxVMs:
			reject(RejectHostFull, 0, fmt.Sprintf("%d/%d vms", h.VMCount(), e.cfg.MaxVMs))
		case flavor == primaryFlavor:
			// Hard gate, not a score: a replica on the identical flavor
			// shares the primary's entire CVE surface, so the pairing buys
			// no robustness at all (§8.2 taken to its limit). Same-kind
			// pairings with different userspaces (kvmtool vs QEMU) remain
			// scoreable.
			reject(RejectSharedCVEs, vulns.Overlap(primaryFlavor, flavor),
				"identical hypervisor flavor: every CVE is shared")
		default:
			pool = append(pool, candidate{
				host:    h,
				flavor:  flavor,
				overlap: vulns.Overlap(primaryFlavor, flavor),
				load:    h.VMCount(),
			})
		}
	}

	// Greedy selection: each slot takes the candidate with the lowest
	// chain-aware score. Including overlap against already-chosen
	// secondaries keeps a 1+2 chain from doubling up on one flavor when
	// a disjoint one is available.
	var picked []candidate
	for len(picked) < spec.Secondaries && len(pool) > 0 {
		bestIdx, bestScore, bestOverlap := -1, 0.0, 0
		warmIdx, warmScore, warmOverlap := -1, 0.0, 0
		for i, c := range pool {
			chainOverlap := c.overlap
			for _, p := range picked {
				chainOverlap += vulns.Overlap(p.flavor, c.flavor)
			}
			score := e.cfg.OverlapWeight*float64(chainOverlap) + e.cfg.LoadWeight*float64(c.load)
			if bestIdx < 0 || score < bestScore ||
				(score == bestScore && c.host.HostName() < pool[bestIdx].host.HostName()) {
				bestIdx, bestScore, bestOverlap = i, score, chainOverlap
			}
			if c.host.HostName() == spec.Warm {
				warmIdx, warmScore, warmOverlap = i, score, chainOverlap
			}
		}
		// A host that holds a copy of the guest outranks load, never overlap.
		warm := warmIdx >= 0 && warmOverlap <= bestOverlap
		if warm {
			bestIdx, bestScore = warmIdx, warmScore
		}
		c := pool[bestIdx]
		pool = append(pool[:bestIdx], pool[bestIdx+1:]...)
		picked = append(picked, c)
		asn.Secondaries = append(asn.Secondaries, c.host)
		asn.Decision.Secondaries = append(asn.Decision.Secondaries, Choice{
			Host: c.host.HostName(), Flavor: c.flavor,
			Overlap: c.overlap, Load: c.load, Score: bestScore, Warm: warm,
		})
	}

	// The leftover pool is scoreable but unchosen: candidates whose CVE
	// surface overlaps the primary more than every winner's get the
	// §8.2 rejection; equal-overlap leftovers just lost on load.
	maxPickedOverlap := -1
	for _, p := range picked {
		if p.overlap > maxPickedOverlap {
			maxPickedOverlap = p.overlap
		}
	}
	for _, c := range pool {
		if len(picked) > 0 && c.overlap > maxPickedOverlap {
			shared := vulns.SharedComponents(primaryFlavor, c.flavor)
			asn.Decision.Rejections = append(asn.Decision.Rejections, Rejection{
				Host: c.host.HostName(), Flavor: c.flavor,
				Reason: RejectSharedCVEs, Overlap: c.overlap,
				Detail: fmt.Sprintf("shares %v with %s primary (%d DoS CVEs); lower-overlap flavor available",
					shared, primaryFlavor, c.overlap),
			})
		} else {
			asn.Decision.Rejections = append(asn.Decision.Rejections, Rejection{
				Host: c.host.HostName(), Flavor: c.flavor,
				Reason: RejectOutscored, Overlap: c.overlap,
				Detail: fmt.Sprintf("load %d", c.load),
			})
		}
	}
	sort.Slice(asn.Decision.Rejections, func(i, j int) bool {
		return asn.Decision.Rejections[i].Host < asn.Decision.Rejections[j].Host
	})
	if e.rejections != nil {
		e.rejections.Add(int64(len(asn.Decision.Rejections)))
	}

	asn.Decision.Shortfall = spec.Secondaries - len(picked)
	if asn.Decision.Shortfall > 0 && e.shortfalls != nil {
		e.shortfalls.Add(int64(asn.Decision.Shortfall))
	}
	if len(picked) == 0 {
		return Assignment{}, fmt.Errorf("%w for %q on %s (%d hosts considered)",
			ErrNoSecondary, spec.Name, primary.HostName(), len(hosts))
	}
	return asn, nil
}

// Matrix scores every ordered (primary, secondary) host pairing — the
// full assignment matrix the placement demo prints. Entries are
// ordered primary-major in host order.
type MatrixEntry struct {
	Primary, Secondary string
	PrimaryFlavor      vulns.Flavor
	SecondaryFlavor    vulns.Flavor
	Overlap            int
	Score              float64
}

// ScoreMatrix computes the pairwise score matrix for a fleet.
func (e *Engine) ScoreMatrix(hosts []*hypervisor.Host) []MatrixEntry {
	var out []MatrixEntry
	for _, p := range hosts {
		pf := p.Capabilities().VulnFlavor
		for _, s := range hosts {
			if s == p {
				continue
			}
			sf := s.Capabilities().VulnFlavor
			ov := vulns.Overlap(pf, sf)
			out = append(out, MatrixEntry{
				Primary: p.HostName(), Secondary: s.HostName(),
				PrimaryFlavor: pf, SecondaryFlavor: sf,
				Overlap: ov,
				Score:   e.cfg.OverlapWeight*float64(ov) + e.cfg.LoadWeight*float64(len(s.VMs())),
			})
		}
	}
	return out
}
