// Package colo implements a COLO-style lock-stepping replication
// (LSR) baseline (paper §3.1, Dong et al. 2013): the primary and the
// replica VM execute *simultaneously*; their outgoing I/O is compared
// by a replication controller, matching output is released
// immediately, and only when the replicas' outputs diverge is a
// forced synchronization checkpoint taken.
//
// LSR's appeal is latency — no epoch buffering while the replicas
// agree. Its catch, and the reason the paper builds HERE on
// asynchronous replication instead, is that output agreement
// "necessitates a replication controller that implies significant
// similarities between the device model implementations of the
// primary and replica VM". Across heterogeneous hypervisors the
// device models differ by construction (PV vs virtio framing, event
// timing), outputs essentially always mismatch, and lock-stepping
// degenerates into checkpointing at output rate — which this package
// demonstrates quantitatively.
package colo

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/simnet"
	"github.com/here-ft/here/internal/workload"
)

// Divergence probabilities of the output comparator per emitted
// packet. With identical device models on both sides, outputs differ
// only on genuine nondeterminism (interrupt timing, multi-vCPU
// interleavings); with heterogeneous device models the wire images
// differ structurally and essentially every comparison fails.
const (
	// HomogeneousDivergence is the per-packet mismatch probability
	// with identical device models.
	HomogeneousDivergence = 0.005
	// HeterogeneousDivergence is the per-packet mismatch probability
	// across different device models (PV vs virtio).
	HeterogeneousDivergence = 0.98
)

// Config parameterizes the lock-stepping replicator.
type Config struct {
	// Link carries synchronization checkpoints.
	Link *simnet.Link
	// Workload drives both replicas.
	Workload workload.Workload
	// OutputRate is the guest's outgoing packet rate (packets/sec)
	// fed to the comparator.
	OutputRate float64
	// Seed fixes the divergence pattern.
	Seed int64
	// MaxInterval forces a synchronization checkpoint at least this
	// often even with fully agreeing output (COLO's periodic flush).
	MaxInterval time.Duration
}

// Stats summarizes a lock-stepping run.
type Stats struct {
	Elapsed          time.Duration
	OutputsCompared  int64
	OutputsReleased  int64 // released immediately on agreement
	Divergences      int64 // forced synchronizations
	SyncPause        time.Duration
	MeanOutputLatMS  float64 // mean output release latency
	DegradationPct   float64 // pause share of wall time
	MeanSyncInterval time.Duration
}

// Replicator runs primary and secondary VMs in lock-step.
type Replicator struct {
	cfg       Config
	primary   *hypervisor.VM
	secondary hypervisor.Hypervisor
	divergeP  float64
	rng       *rand.Rand
}

// New prepares lock-stepping replication of vm onto dst. The
// divergence probability is chosen from the device-model relationship
// between the two hypervisors: identical kinds compare cleanly,
// different kinds essentially never do.
func New(vm *hypervisor.VM, dst hypervisor.Hypervisor, cfg Config) (*Replicator, error) {
	if vm == nil || dst == nil {
		return nil, errors.New("colo: nil vm or destination")
	}
	if cfg.Link == nil {
		return nil, errors.New("colo: nil link")
	}
	if cfg.OutputRate <= 0 {
		return nil, fmt.Errorf("colo: output rate %v must be positive", cfg.OutputRate)
	}
	if cfg.MaxInterval <= 0 {
		cfg.MaxInterval = 10 * time.Second
	}
	divergeP := HomogeneousDivergence
	if vm.Hypervisor().Kind() != dst.Kind() {
		divergeP = HeterogeneousDivergence
	}
	return &Replicator{
		cfg:       cfg,
		primary:   vm,
		secondary: dst,
		divergeP:  divergeP,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
	}, nil
}

// RunFor executes lock-stepped replication for d of simulated time.
// Time advances packet by packet: agreeing outputs release instantly;
// a divergence pauses both replicas for a synchronization checkpoint
// (dirty-state transfer sized like an ASR checkpoint of the elapsed
// epoch).
func (r *Replicator) RunFor(d time.Duration) (Stats, error) {
	var st Stats
	if !r.primary.Running() {
		return st, errors.New("colo: primary is not running")
	}
	clock := r.primary.Hypervisor().Clock()
	costs := r.primary.Hypervisor().Costs()
	start := clock.Now()
	gap := time.Duration(float64(time.Second) / r.cfg.OutputRate)
	sinceSync := time.Duration(0)
	var latSumMS float64

	sync := func() error {
		// Both replicas pause; the primary ships the epoch's dirty
		// state so the secondary can realign.
		pauseStart := clock.Now()
		r.primary.Pause()
		dirty := r.primary.Tracker().Bitmap().Snapshot()
		n := int64(len(dirty))
		clock.Sleep(time.Duration(n*int64(costs.MapPerDirtyPage)) +
			time.Duration(n*int64(costs.CopyPerDirtyPage)) +
			costs.StateRecord)
		if _, err := r.cfg.Link.Transfer(n*memory.PageSize+1024, 1); err != nil {
			return fmt.Errorf("colo: sync: %w", err)
		}
		r.primary.Resume()
		st.SyncPause += clock.Since(pauseStart)
		st.Divergences++
		sinceSync = 0
		return nil
	}

	for clock.Since(start) < d {
		step := gap
		if sinceSync+step > r.cfg.MaxInterval {
			step = r.cfg.MaxInterval - sinceSync
		}
		clock.Sleep(step)
		if r.cfg.Workload != nil {
			if _, err := r.cfg.Workload.Step(r.primary, step); err != nil {
				return st, fmt.Errorf("colo: workload: %w", err)
			}
		}
		sinceSync += step
		if sinceSync >= r.cfg.MaxInterval {
			if err := sync(); err != nil {
				return st, err
			}
			continue
		}
		// One output packet reaches the comparator.
		st.OutputsCompared++
		if r.rng.Float64() < r.divergeP {
			// Mismatch: the packet is held until the replicas are
			// re-synchronized, then released.
			before := clock.Now()
			if err := sync(); err != nil {
				return st, err
			}
			latSumMS += float64(clock.Since(before)) / float64(time.Millisecond)
			st.OutputsReleased++
		} else {
			// Agreement: released immediately; only the comparator's
			// round trip is paid.
			latSumMS += float64(2*r.cfg.Link.Config().Latency) / float64(time.Millisecond)
			st.OutputsReleased++
		}
	}
	st.Elapsed = clock.Since(start)
	if st.OutputsReleased > 0 {
		st.MeanOutputLatMS = latSumMS / float64(st.OutputsReleased)
	}
	if st.Elapsed > 0 {
		st.DegradationPct = 100 * float64(st.SyncPause) / float64(st.Elapsed)
	}
	if st.Divergences > 0 {
		st.MeanSyncInterval = st.Elapsed / time.Duration(st.Divergences)
	}
	return st, nil
}
