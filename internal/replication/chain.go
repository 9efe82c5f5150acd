// N-way replication chains: one primary fanning checkpoints out to N
// secondaries (legs). Each leg keeps its own replica memory (which is
// also its wire codec's delta baseline: what *that* replica
// acknowledged), its own translated state image, and its own
// pending-page set so a leg that misses an epoch catches up with an
// ordinary delta on the next one. An epoch commits — the guest's
// buffered output releases — when a configurable quorum of legs
// acknowledges (default: all).
package replication

import (
	"errors"
	"fmt"
	"strconv"

	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/trace"
	"github.com/here-ft/here/internal/translate"
	"github.com/here-ft/here/internal/wire"
)

// Secondary describes one replication target of a chain: the host that
// holds the replica and the transport that carries its checkpoints.
type Secondary struct {
	Host      hypervisor.Hypervisor
	Transport Transport
	// Warm, when set, is a memory of this guest already on Host (the
	// fenced primary's copy after its replica was activated, a deposit a
	// restart found). It becomes the leg's replica memory and the seed
	// ships only the pages where it and the guest may differ; until then
	// the leg is unseeded like any other.
	Warm *memory.GuestMemory
	// Drift, with Warm in NewChain, is a dirty log naming every page where
	// Warm differs from the guest, apart from those in the guest's own log
	// since its tracker started: Seed then reads logs and compares no
	// content (and may add to Drift). Nil — and always in AddLeg, where the
	// guest's log has been consumed since — the contents are compared.
	Drift *memory.DirtyBitmap
}

// checkWarm refuses a warm copy of another size than the guest's, and a
// drift with no copy to go with it.
func checkWarm(sec Secondary, vm *hypervisor.VM) error {
	if sec.Warm == nil && sec.Drift != nil {
		return fmt.Errorf("replication: drift without a warm copy on %s", sec.Host.HostName())
	}
	if sec.Warm != nil && sec.Warm.SizeBytes() != vm.Memory().SizeBytes() {
		return fmt.Errorf("replication: warm copy on %s is %d bytes, vm has %d",
			sec.Host.HostName(), sec.Warm.SizeBytes(), vm.Memory().SizeBytes())
	}
	return nil
}

// ErrLegGone is returned by per-leg accessors for an index that is out
// of range (the leg was dropped).
var ErrLegGone = errors.New("replication: no such chain leg")

// leg is the per-secondary state of a chain. All fields are guarded by
// the owning Replicator's mutex.
type leg struct {
	dst hypervisor.Hypervisor
	tp  Transport
	// sender is non-nil when tp carries the encoded streams itself —
	// only permitted on single-leg chains.
	sender CheckpointSender
	// enc is this leg's wire codec, bound to mem as its delta baseline:
	// what THIS replica acknowledged, which may trail other legs after a
	// miss.
	enc *wire.Encoder
	// mem and lastImage are the replica-side memory and the dst-native
	// machine-state image of the leg's last acknowledged checkpoint. mem
	// changes only by decoding an acknowledged stream (or a seed copy).
	mem       *memory.GuestMemory
	lastImage []byte
	// drift is Secondary.Drift until the seed has used it.
	drift *memory.DirtyBitmap
	// pending is the dirty-page backlog this leg has not acknowledged
	// yet. Every checkpoint merges the global dirty snapshot into every
	// live leg's pending; an acknowledging leg clears it, a missing leg
	// accumulates it — the natural lagging-leg catch-up.
	pending *memory.DirtyBitmap
	// ackedSeq is the epoch watermark: checkpoints this replica applied.
	ackedSeq uint64
	// ackedAt is the Replicator cycle counter at the leg's last
	// acknowledgement — the total order failover freshness is judged by
	// (ackedSeq alone cannot distinguish two acks of a re-attempted
	// epoch).
	ackedAt uint64
	// needsSeed marks a leg added mid-run (AddLeg): it is seeded with a
	// full copy inside the next checkpoint pause, while the guest state
	// is consistent.
	needsSeed bool
	// dead marks a leg whose transport failed permanently (fenced); it
	// no longer participates and should be dropped by the control plane.
	dead      bool
	deadCause string
}

// LegStatus is the externally visible state of one chain leg.
type LegStatus struct {
	// Index is the leg's current position in the chain (leg 0 carries
	// the replicated disk stream).
	Index int `json:"index"`
	// Host is the replica host's name.
	Host string `json:"host"`
	// Product is the replica host's hypervisor product string.
	Product string `json:"product"`
	// AckedEpoch is the number of checkpoints this replica has applied.
	AckedEpoch uint64 `json:"acked_epoch"`
	// PendingPages is the dirty backlog the leg has not acknowledged.
	PendingPages int `json:"pending_pages"`
	// NeedsSeed marks a leg waiting for its in-checkpoint full seed.
	NeedsSeed bool `json:"needs_seed,omitempty"`
	// Dead marks a permanently failed leg awaiting removal.
	Dead bool `json:"dead,omitempty"`
	// DeadCause is the permanent error that killed the leg.
	DeadCause string `json:"dead_cause,omitempty"`
}

// newLeg builds the state for one secondary.
func newLeg(sec Secondary, memBytes uint64, compression bool) *leg {
	sender, _ := sec.Transport.(CheckpointSender)
	mem := sec.Warm
	if mem == nil {
		mem = memory.NewGuestMemory(memBytes)
	}
	l := &leg{
		dst:     sec.Host,
		tp:      sec.Transport,
		sender:  sender,
		enc:     wire.NewEncoder(compression),
		pending: memory.NewDirtyBitmap(mem.NumPages()),
	}
	l.bindReplica(mem)
	return l
}

// bindReplica makes mem the leg's replica memory and, with it, the
// baseline its codec deltas against.
func (l *leg) bindReplica(mem *memory.GuestMemory) {
	l.mem = mem
	_ = l.enc.Prime(mem) // fails on nil only; callers pass real memory
}

// missedEpoch folds an epoch's dirty snapshot into the leg's backlog:
// the leg failed to acknowledge the checkpoint, so its next delta must
// carry these pages again on top of whatever it was already owed.
func (r *Replicator) missedEpoch(l *leg, dirty []memory.PageNum) {
	r.mu.Lock()
	for _, p := range dirty {
		l.pending.Set(p)
	}
	r.mu.Unlock()
}

// markLegDead takes a leg out of the chain after a permanent transport
// failure, recording the cause for the control plane (LegStatus) and
// telemetry (here_chain_dead_legs_total plus a leg-dead trace event).
func (r *Replicator) markLegDead(l *leg, index int, epochID int64, cause error) {
	r.mu.Lock()
	l.dead = true
	l.deadCause = cause.Error()
	r.mu.Unlock()
	r.deadLegs.Inc()
	r.tr.Event(trace.EventTransport, epochID, trace.Event{
		Outcome: "leg-dead",
		Shard:   index,
		Note:    cause.Error(),
	})
}

// updateLegTelemetry refreshes the per-leg chain gauges after a
// checkpoint attempt: how many epochs each replica trails the
// primary's next epoch, and the dirty-page backlog it is owed. One
// series per (leg index, host) label set.
func (r *Replicator) updateLegTelemetry() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, l := range r.legs {
		var lag uint64
		if r.seq > l.ackedSeq {
			lag = r.seq - l.ackedSeq
		}
		idx, host := strconv.Itoa(i), l.dst.HostName()
		r.reg.Gauge(trace.Labeled("here_chain_leg_lag_epochs", "leg", idx, "host", host),
			"epochs the leg's replica trails the primary's next epoch").Set(float64(lag))
		r.reg.Gauge(trace.Labeled("here_chain_leg_pending_pages", "leg", idx, "host", host),
			"dirty-page backlog the leg has not acknowledged").Set(float64(l.pending.Count()))
	}
}

// Quorum reports the effective acknowledgement quorum for n live legs:
// the configured Config.Quorum clamped to [1, n], with 0 meaning all.
func (r *Replicator) Quorum() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.quorumFor(r.liveLegCount())
}

// quorumFor clamps the configured quorum to n live legs. Caller holds
// r.mu.
func (r *Replicator) quorumFor(n int) int {
	q := r.cfg.Quorum
	if q <= 0 || q > n {
		q = n
	}
	if q < 1 {
		q = 1
	}
	return q
}

// liveLegCount counts legs still participating. Caller holds r.mu.
func (r *Replicator) liveLegCount() int {
	n := 0
	for _, l := range r.legs {
		if !l.dead {
			n++
		}
	}
	return n
}

// NumLegs reports the chain width (including dead legs not yet
// dropped).
func (r *Replicator) NumLegs() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.legs)
}

// Legs snapshots every leg's status in chain order.
func (r *Replicator) Legs() []LegStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]LegStatus, len(r.legs))
	for i, l := range r.legs {
		out[i] = LegStatus{
			Index:        i,
			Host:         l.dst.HostName(),
			Product:      l.dst.Product(),
			AckedEpoch:   l.ackedSeq,
			PendingPages: l.pending.Count(),
			NeedsSeed:    l.needsSeed,
			Dead:         l.dead,
			DeadCause:    l.deadCause,
		}
	}
	return out
}

// LegHost returns the replica host of leg i.
func (r *Replicator) LegHost(i int) (hypervisor.Hypervisor, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i < 0 || i >= len(r.legs) {
		return nil, fmt.Errorf("%w: index %d of %d", ErrLegGone, i, len(r.legs))
	}
	return r.legs[i].dst, nil
}

// FreshestLeg picks the failover target: among live, seeded legs on
// healthy hosts, the one that acknowledged most recently (ties go to
// the lower index — leg 0 also holds the replica disk). This is the
// paper's failover rule extended to chains: activate the replica with
// the freshest acknowledged epoch, so no committed state regresses.
func (r *Replicator) FreshestLeg() (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	best := -1
	for i, l := range r.legs {
		if l.dead || l.needsSeed || l.dst.Health() != hypervisor.Healthy {
			continue
		}
		if best < 0 || l.ackedAt > r.legs[best].ackedAt {
			best = i
		}
	}
	if best < 0 {
		return 0, errors.New("replication: no healthy seeded leg to activate")
	}
	return best, nil
}

// Settled reports whether leg i's replica holds exactly its last
// acknowledged epoch with nothing owed: session protected, leg live and
// seeded with no dirty backlog, and over a real network transport the
// peer acknowledged that very epoch — its copy equals this replica.
func (r *Replicator) Settled(i int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i < 0 || i >= len(r.legs) || !r.seeded || r.state != StateProtected {
		return false
	}
	l := r.legs[i]
	if l.dead || l.needsSeed || l.pending.Count() > 0 {
		return false
	}
	if l.sender != nil {
		acked, ok := l.sender.PeerAcked()
		return ok && acked+1 == l.ackedSeq
	}
	return true
}

// ReplicaImageAt returns leg i's machine-state image and replica
// memory as of its last acknowledged checkpoint. The memory must be
// treated as read-only by callers other than failover.
func (r *Replicator) ReplicaImageAt(i int) (image []byte, mem *memory.GuestMemory, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i < 0 || i >= len(r.legs) {
		return nil, nil, fmt.Errorf("%w: index %d of %d", ErrLegGone, i, len(r.legs))
	}
	if !r.seeded || r.legs[i].needsSeed {
		return nil, nil, ErrNotSeeded
	}
	return r.legs[i].lastImage, r.legs[i].mem, nil
}

// HandoffAt exports the replica-side state of leg i a successor
// replicator needs to resume protection without a full re-seed: the
// replica memory, a copy of the last acknowledged state image, and its
// sequence number. The control plane parks it on the secondary host
// after each acknowledged checkpoint (see hypervisor.ReplicaDeposit)
// and feeds it back through Config.Resume after a restart.
func (r *Replicator) HandoffAt(i int) (*ResumeState, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i < 0 || i >= len(r.legs) {
		return nil, fmt.Errorf("%w: index %d of %d", ErrLegGone, i, len(r.legs))
	}
	l := r.legs[i]
	if !r.seeded || l.needsSeed {
		return nil, ErrNotSeeded
	}
	return &ResumeState{
		Mem:   l.mem,
		Image: append([]byte(nil), l.lastImage...),
		Seq:   l.ackedSeq,
	}, nil
}

// AddLeg appends a new secondary to a running chain. The leg is seeded
// with a full copy — a warm one with the pages that differ — inside the
// next checkpoint pause, the only moment the guest state is consistent,
// and participates from then on. The restriction on real network
// transports is the same as NewChain's.
func (r *Replicator) AddLeg(sec Secondary) error {
	if sec.Host == nil || sec.Transport == nil {
		return errors.New("replication: nil host or transport")
	}
	if feats := r.primary.MachineState().Features; !feats.IsSubsetOf(sec.Host.Features()) {
		return fmt.Errorf("%w on %s: chain feature intersection violated",
			translate.ErrFeatureMismatch, sec.Host.Product())
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state == StateFailedOver {
		return ErrFailedOver
	}
	if _, isSender := sec.Transport.(CheckpointSender); isSender || (len(r.legs) > 0 && r.legs[0].sender != nil) {
		return errors.New("replication: multi-leg chains require simulated transports")
	}
	if err := checkWarm(sec, r.primary); err != nil {
		return err
	}
	l := newLeg(sec, r.primary.Memory().SizeBytes(), r.cfg.Compression)
	l.enc.Instrument(r.reg)
	l.needsSeed = r.seeded
	r.legs = append(r.legs, l)
	return nil
}

// DropLeg removes leg i from the chain (a dead transport, a replica
// host being drained). The remaining legs keep their acknowledged
// epochs — no replica regresses — and if the dropped leg was leg 0 the
// next leg inherits the replicated-disk stream, which is safe because
// the disk journal re-ships every epoch not yet marked committed. The
// last leg cannot be dropped; tear the replicator down instead.
func (r *Replicator) DropLeg(i int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i < 0 || i >= len(r.legs) {
		return fmt.Errorf("%w: index %d of %d", ErrLegGone, i, len(r.legs))
	}
	if len(r.legs) == 1 {
		return errors.New("replication: cannot drop the last leg")
	}
	r.legs = append(r.legs[:i], r.legs[i+1:]...)
	return nil
}
