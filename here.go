// Package here is the public API of HERE, a reproduction of "Fast VM
// Replication on Heterogeneous Hypervisors for Robust Fault
// Tolerance" (Decourcelle, Dinh Ngoc, Teabe, Hagimont — Middleware '23).
//
// HERE continuously replicates a protected VM from one hypervisor to
// a *different* hypervisor, so that a denial-of-service exploit that
// brings the primary hypervisor down cannot also take out the replica:
// the attacker would need a second, unrelated vulnerability (§6).
//
// The package wires together the building blocks in internal/: two
// simulated hypervisors (Xen-like and KVM/kvmtool-like) with distinct
// native state formats and device models, a cross-hypervisor state
// translator, an asynchronous replication engine with multithreaded
// checkpoint transfer, a dynamic checkpoint period controller
// (Algorithm 1), heartbeat failure detection, and failover.
//
// Quick start:
//
//	cluster, err := here.NewCluster(here.ClusterConfig{})
//	vm, err := cluster.CreateProtectedVM(here.VMSpec{
//		Name: "db", MemoryBytes: 4 << 30, VCPUs: 4,
//	})
//	prot, err := cluster.Protect(vm, here.ProtectOptions{
//		DegradationBudget: 0.3,
//		MaxPeriod:         25 * time.Second,
//	})
//	// ... the guest runs; checkpoints flow to the secondary ...
//	replica, err := prot.Failover() // after the primary dies
package here

import (
	"errors"
	"fmt"
	"time"

	"github.com/here-ft/here/internal/arch"
	"github.com/here-ft/here/internal/devices"
	"github.com/here-ft/here/internal/failover"
	"github.com/here-ft/here/internal/faults"
	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/kvm"
	"github.com/here-ft/here/internal/period"
	"github.com/here-ft/here/internal/qemukvm"
	"github.com/here-ft/here/internal/replication"
	"github.com/here-ft/here/internal/simnet"
	"github.com/here-ft/here/internal/trace"
	"github.com/here-ft/here/internal/translate"
	"github.com/here-ft/here/internal/vclock"
	"github.com/here-ft/here/internal/wire"
	"github.com/here-ft/here/internal/workload"
	"github.com/here-ft/here/internal/xen"
)

// Re-exported building-block types. The internal packages carry the
// implementations; these aliases are the supported public surface.
type (
	// Clock is the time source driving a cluster (virtual in
	// simulation, wall-clock otherwise).
	Clock = vclock.Clock
	// Hypervisor is one simulated hypervisor host.
	Hypervisor = hypervisor.Hypervisor
	// VM is a guest virtual machine.
	VM = hypervisor.VM
	// Workload is simulated guest activity.
	Workload = workload.Workload
	// Packet is one buffered outgoing network packet.
	Packet = devices.Packet
	// GuestAgent receives device unplug/replug events inside the
	// guest during failover.
	GuestAgent = devices.GuestAgent
	// CheckpointStats describes one completed checkpoint.
	CheckpointStats = replication.CheckpointStats
	// ReplicationTotals aggregates a replication run.
	ReplicationTotals = replication.Totals
	// FailoverResult describes a completed failover.
	FailoverResult = failover.Result
	// State is the protection state of a replicated VM.
	State = replication.State
	// RetryPolicy tunes transfer retry (exponential backoff + jitter).
	RetryPolicy = replication.RetryPolicy
	// RecoveryStats aggregates the recovery behaviour of a run: retries,
	// rollbacks, degraded episodes, resync traffic and per-mode time.
	RecoveryStats = replication.RecoveryStats
	// FaultPlan is a deterministic, seeded schedule of fault events
	// (link outages, flapping, latency spikes, bandwidth degradation,
	// per-transfer loss, host crashes).
	FaultPlan = faults.Plan
	// WireStats is the checkpoint wire codec's measured statistics:
	// raw vs encoded bytes, the per-encoding frame mix, and encode
	// time. Available per checkpoint (CheckpointStats.Wire) and
	// aggregated (ReplicationTotals.Wire).
	WireStats = wire.Stats
	// Tracer is the epoch-scoped structured tracer a Protected VM
	// records into: checkpoint lifecycle spans (pause, scan, encode,
	// transfer, ack, release) plus discrete events (retries,
	// rollbacks, mode changes, faults, heartbeat misses). Export with
	// Tracer.WriteJSONL.
	Tracer = trace.Tracer
	// TraceEvent is one recorded span or discrete event.
	TraceEvent = trace.Event
	// MetricsRegistry is the cluster's named metrics registry
	// (counters, gauges, histograms); export with WritePrometheus.
	MetricsRegistry = trace.Registry
	// EpochStages is one checkpoint epoch's stage attribution
	// reassembled from a trace (see trace.EpochBreakdown).
	EpochStages = trace.EpochStages
)

// EpochBreakdown groups a trace's checkpoint spans by epoch, summing
// each lifecycle stage — the per-epoch attribution the paper's pause
// model (t = αN/P + C) is fitted against.
func EpochBreakdown(events []TraceEvent) []EpochStages {
	return trace.EpochBreakdown(events)
}

// Protection states.
const (
	// StateProtected: checkpoints flow and are acknowledged.
	StateProtected = replication.StateProtected
	// StateDegraded: the replication path is unavailable and the VM
	// runs unprotected; dirty pages accumulate for resync.
	StateDegraded = replication.StateDegraded
	// StateResyncing: the path is back and a delta resync is shipping
	// the pages dirtied during the outage.
	StateResyncing = replication.StateResyncing
	// StateFailedOver: the replica was activated; replication is over.
	StateFailedOver = replication.StateFailedOver
)

// NewFaultPlan returns an empty fault plan with the given RNG seed and
// the clock that delivers its events. Build the cluster on that clock,
// then attach the cluster's link:
//
//	plan, clk := here.NewFaultPlan(42)
//	cluster, _ := here.NewCluster(here.ClusterConfig{Clock: clk})
//	plan.AttachLink(cluster.Link())
//	plan.LinkOutage(2*time.Second, 5*time.Second)
func NewFaultPlan(seed int64) (*FaultPlan, Clock) {
	plan := faults.New(vclock.NewSim(), seed)
	return plan, plan.Clock()
}

// MigrationResult reports what the seeding migration did.
type MigrationResult struct {
	Duration time.Duration // total seeding time
	Downtime time.Duration // final stop-and-copy pause
	Pages    int64         // pages transferred (including resends)
	Bytes    int64         // traffic on the replication link
}

// Engine selects the replication algorithm.
type Engine = replication.Engine

// Replication engines.
const (
	// EngineRemus is the homogeneous single-threaded baseline.
	EngineRemus = replication.EngineRemus
	// EngineHERE is the paper's heterogeneous multithreaded engine.
	EngineHERE = replication.EngineHERE
)

// ClusterConfig describes a two-host replication cluster.
type ClusterConfig struct {
	// Clock drives the cluster; nil uses a fresh virtual clock.
	Clock Clock
	// Homogeneous builds a Xen→Xen pair (the Remus baseline) instead
	// of the heterogeneous Xen→KVM pair.
	Homogeneous bool
	// QEMUSecondary builds the pairing the paper rejects (§8.2): a
	// QEMU-KVM secondary that *looks* heterogeneous but shares QEMU's
	// device-model code with Xen HVM, so one QEMU CVE (VENOM) takes
	// both hosts down. For demonstrations only.
	QEMUSecondary bool
	// Link overrides the replication interconnect
	// (default: 100 Gb Omni-Path).
	Link *simnet.LinkConfig
	// PrimaryName and SecondaryName name the hosts.
	PrimaryName, SecondaryName string
}

// Cluster is a primary/secondary pair of hypervisor hosts joined by a
// replication link.
type Cluster struct {
	clock     Clock
	primary   *hypervisor.Host
	secondary *hypervisor.Host
	link      *simnet.Link
	metrics   *trace.Registry
}

// NewCluster builds the paper's testbed: a Xen primary and a
// KVM/kvmtool secondary (or Xen→Xen with Homogeneous) joined by a
// high-bandwidth replication link.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	clock := cfg.Clock
	if clock == nil {
		clock = vclock.NewSim()
	}
	priName := cfg.PrimaryName
	if priName == "" {
		priName = "host-a"
	}
	secName := cfg.SecondaryName
	if secName == "" {
		secName = "host-b"
	}
	pri, err := xen.New(priName, clock)
	if err != nil {
		return nil, fmt.Errorf("here: primary: %w", err)
	}
	var sec *hypervisor.Host
	switch {
	case cfg.Homogeneous:
		sec, err = xen.New(secName, clock)
	case cfg.QEMUSecondary:
		sec, err = qemukvm.New(secName, clock)
	default:
		sec, err = kvm.New(secName, clock)
	}
	if err != nil {
		return nil, fmt.Errorf("here: secondary: %w", err)
	}
	linkCfg := simnet.OmniPath100()
	if cfg.Link != nil {
		linkCfg = *cfg.Link
	}
	link, err := simnet.NewLink(linkCfg, clock)
	if err != nil {
		return nil, fmt.Errorf("here: link: %w", err)
	}
	reg := trace.NewRegistry()
	link.Instrument(reg)
	return &Cluster{clock: clock, primary: pri, secondary: sec, link: link, metrics: reg}, nil
}

// Clock returns the cluster's time source.
func (c *Cluster) Clock() Clock { return c.clock }

// Primary returns the primary host.
func (c *Cluster) Primary() Hypervisor { return c.primary }

// Secondary returns the secondary host.
func (c *Cluster) Secondary() Hypervisor { return c.secondary }

// Link returns the replication interconnect.
func (c *Cluster) Link() *simnet.Link { return c.link }

// Metrics returns the cluster's metrics registry: every subsystem
// (replication, wire codec, link, faults, failure detection, tracer)
// registers its here_* instruments here. Render the Prometheus text
// exposition with Metrics().WritePrometheus(w).
func (c *Cluster) Metrics() *MetricsRegistry { return c.metrics }

// VMSpec describes a protected VM to boot.
type VMSpec struct {
	Name        string
	MemoryBytes uint64
	VCPUs       int
	// WithDisk adds a virtual disk of the given capacity (0 = none).
	DiskBytes uint64
	// MAC sets the network device's address (a default is generated).
	MAC string
}

// CreateProtectedVM boots a VM on the primary host with the CPUID
// feature intersection of both hosts (§7.4), PV network and console
// devices, and optionally a disk — ready to be protected.
func (c *Cluster) CreateProtectedVM(spec VMSpec) (*VM, error) {
	if spec.MAC == "" {
		spec.MAC = "52:54:00:48:45:52"
	}
	cfg := hypervisor.VMConfig{
		Name:     spec.Name,
		MemBytes: spec.MemoryBytes,
		VCPUs:    spec.VCPUs,
		Features: translate.CompatibleFeaturesAll(c.primary, c.secondary),
		Devices: []hypervisor.DeviceSpec{
			{Class: arch.DeviceNet, ID: "net0", MAC: spec.MAC},
			{Class: arch.DeviceConsole, ID: "con0"},
		},
	}
	if spec.DiskBytes > 0 {
		cfg.Devices = append(cfg.Devices, hypervisor.DeviceSpec{
			Class: arch.DeviceBlock, ID: "disk0", CapacityB: spec.DiskBytes,
		})
	}
	vm, err := c.primary.CreateVM(cfg)
	if err != nil {
		return nil, fmt.Errorf("here: %w", err)
	}
	return vm, nil
}

// ProtectOptions tunes replication for one VM.
type ProtectOptions struct {
	// Engine selects the algorithm (default EngineHERE; EngineRemus
	// requires a homogeneous cluster).
	Engine Engine
	// FixedPeriod pins the checkpoint interval (Remus-style). When
	// zero, the dynamic period manager runs with the two parameters
	// below.
	FixedPeriod time.Duration
	// DegradationBudget is the desired degradation D in [0, 1)
	// (default 0.3).
	DegradationBudget float64
	// MaxPeriod is the hard interval cap T_max (default 25 s;
	// ignored with FixedPeriod).
	MaxPeriod time.Duration
	// Workload attaches guest activity (optional).
	Workload Workload
	// Sink receives released network output (optional).
	Sink func([]Packet)
	// Threads overrides HERE's transfer thread count.
	Threads int
	// Compression enables the wire codec's content-aware page
	// encodings (zero-page elision and XOR+RLE deltas against the last
	// acknowledged epoch). It trades checkpoint-pause CPU for bytes:
	// worthwhile on constrained replication links. The achieved ratio
	// is measured, not assumed — see Totals().Wire.Ratio().
	Compression bool
	// HeartbeatInterval and HeartbeatTimeout tune failure detection.
	HeartbeatInterval, HeartbeatTimeout time.Duration
	// HeartbeatMisses is the number of consecutive missed heartbeats
	// required to declare the primary dead (0 derives
	// ceil(timeout/interval)).
	HeartbeatMisses int
	// Retry tunes transfer retry on the replication path; the zero
	// value uses the defaults (4 attempts, 50 ms initial backoff, ×2
	// up to 2 s, ±20% jitter).
	Retry RetryPolicy
	// DegradedMode lets the VM keep running unprotected when an outage
	// outlives the retry budget, accumulating dirty pages for a delta
	// resync once the path recovers. Without it, an exhausted retry
	// budget fails the checkpoint cycle.
	DegradedMode bool
	// NoTrace disables the epoch-scoped tracer (Trace() returns nil).
	// Tracing is on by default; its overhead is a bounded ring write
	// per span (see here-bench -only trace for the measured cost).
	NoTrace bool
	// TraceCapacity bounds the trace ring buffer (default 16384
	// events; older events are overwritten and counted as dropped).
	// The ring holds at most TraceCapacity × 64 B, 1 MiB at the
	// default, and grows in 147-event (9.25 KiB) chunks as it records.
	TraceCapacity int
}

// Protected is a VM under live replication.
type Protected struct {
	cluster *Cluster
	rep     *replication.Replicator
	monitor *failover.Monitor
	seedRes MigrationResult
}

// Protect seeds the VM's state to the secondary host and starts
// continuous replication. The VM must have been created with
// CreateProtectedVM (or otherwise booted with compatible features).
func (c *Cluster) Protect(vm *VM, opts ProtectOptions) (*Protected, error) {
	if vm == nil {
		return nil, errors.New("here: nil vm")
	}
	engine := opts.Engine
	if engine == 0 {
		engine = EngineHERE
	}
	var tr *trace.Tracer
	if !opts.NoTrace {
		tr = trace.New(c.clock, opts.TraceCapacity)
	}
	cfg := replication.Config{
		Engine:       engine,
		Threads:      opts.Threads,
		Workload:     opts.Workload,
		Sink:         opts.Sink,
		Compression:  opts.Compression,
		Retry:        opts.Retry,
		DegradedMode: opts.DegradedMode,
		Tracer:       tr,
		Metrics:      c.metrics,
	}
	if opts.FixedPeriod > 0 {
		cfg.Period = opts.FixedPeriod
	} else if engine == EngineRemus {
		cfg.Period = 5 * time.Second
	} else {
		d := opts.DegradationBudget
		if d == 0 {
			d = 0.3
		}
		tmax := opts.MaxPeriod
		if tmax == 0 {
			tmax = 25 * time.Second
		}
		pm, err := period.New(period.Config{D: d, Tmax: tmax})
		if err != nil {
			return nil, fmt.Errorf("here: %w", err)
		}
		cfg.PeriodManager = pm
	}
	rep, err := replication.NewChain(vm, []replication.Secondary{{Host: c.secondary, Transport: c.link}}, cfg)
	if err != nil {
		return nil, fmt.Errorf("here: %w", err)
	}
	mres, err := rep.Seed()
	if err != nil {
		return nil, fmt.Errorf("here: %w", err)
	}
	mon, err := failover.NewMonitorConfig(c.primary, failover.Config{
		Interval: opts.HeartbeatInterval,
		Timeout:  opts.HeartbeatTimeout,
		Misses:   opts.HeartbeatMisses,
		Via:      c.link,
		Tracer:   tr,
		Metrics:  c.metrics,
	})
	if err != nil {
		return nil, fmt.Errorf("here: %w", err)
	}
	return &Protected{
		cluster: c,
		rep:     rep,
		monitor: mon,
		seedRes: MigrationResult{
			Duration: mres.Duration,
			Downtime: mres.Downtime,
			Pages:    mres.PagesSent,
			Bytes:    mres.BytesSent,
		},
	}, nil
}

// VM returns the protected (primary) VM.
func (p *Protected) VM() *VM { return p.rep.Primary() }

// Seeding reports the initial migration's statistics.
func (p *Protected) Seeding() MigrationResult { return p.seedRes }

// Period reports the current checkpoint interval.
func (p *Protected) Period() time.Duration { return p.rep.Period() }

// AttachDisk gives the protected VM a replicated PV block device of
// the given capacity (§5.2's device manager, block path): guest
// writes land on the primary disk immediately, are journaled per
// checkpoint epoch, and reach the replica disk only when their
// checkpoint is acknowledged — so after a failover the disk is
// crash-consistent with the replicated memory.
func (p *Protected) AttachDisk(capacityBytes uint64) *ReplicatedDisk {
	return p.rep.AttachDisk(capacityBytes)
}

// BufferOutput enqueues outgoing guest network output into the
// replication I/O buffer; it is released to the Sink only after the
// covering checkpoint is acknowledged (§5.2).
func (p *Protected) BufferOutput(size int, payload []byte) uint64 {
	return p.rep.IOBuffer().Buffer(size, payload)
}

// Checkpoint runs one full replication cycle (guest execution for the
// current period, then a checkpoint) and returns its statistics.
func (p *Protected) Checkpoint() (CheckpointStats, error) {
	return p.rep.RunCycle()
}

// Run replicates continuously for at least d of cluster time.
func (p *Protected) Run(d time.Duration) ([]CheckpointStats, error) {
	return p.rep.RunFor(d)
}

// SetWorkload replaces the guest workload.
func (p *Protected) SetWorkload(w Workload) { p.rep.SetWorkload(w) }

// State reports the protection state: StateProtected while
// checkpoints flow, StateDegraded while an outage leaves the VM
// unprotected, StateResyncing during the post-outage delta resync,
// StateFailedOver once the replica was activated.
func (p *Protected) State() State { return p.rep.State() }

// Recovery reports the recovery behaviour so far: retries, rollbacks,
// degraded episodes, delta-resync traffic and time per protection mode.
func (p *Protected) Recovery() RecoveryStats { return p.rep.Recovery() }

// Trace returns the epoch-scoped tracer recording this VM's
// replication telemetry, or nil when ProtectOptions.NoTrace was set.
// Export with Trace().WriteJSONL(w); per-epoch stage attribution via
// EpochBreakdown(Trace().Events()).
func (p *Protected) Trace() *Tracer { return p.rep.Tracer() }

// StageBreakdown reassembles the per-epoch checkpoint stage
// attribution (pause, scan, encode, transfer, ack, release plus retry
// and rollback counts) from the recorded trace. Nil without a trace.
func (p *Protected) StageBreakdown() []EpochStages {
	return trace.EpochBreakdown(p.rep.Tracer().Events())
}

// PrimaryHealthy is the out-of-band health probe of the primary host,
// bypassing the heartbeat path — the signal the split-brain guard uses.
func (p *Protected) PrimaryHealthy() bool { return p.monitor.Healthy() }

// Totals reports aggregate replication statistics.
func (p *Protected) Totals() ReplicationTotals { return p.rep.Totals() }

// History returns the statistics of the most recent cycles, oldest
// first (a bounded tail: the last 128).
func (p *Protected) History() []CheckpointStats { return p.rep.History() }

// DetectFailure polls heartbeats for up to maxWait and returns the
// detection latency once the primary host is observed down. It
// returns failover.ErrNoFailure if the primary stayed healthy.
func (p *Protected) DetectFailure(maxWait time.Duration) (time.Duration, error) {
	return p.monitor.WaitForFailure(maxWait)
}

// Failover activates the replica VM on the secondary hypervisor from
// the last acknowledged checkpoint: translated state is restored,
// device models are switched to the secondary's (§7.3), and the VM
// resumes. Unacknowledged buffered output is discarded.
func (p *Protected) Failover() (FailoverResult, error) {
	return p.FailoverWithAgent(nil)
}

// FailoverWithAgent is Failover with a guest agent receiving the
// device unplug/replug notifications (the paper's 150-line guest
// kernel module, §7.6). Activation is refused with ErrSplitBrain while
// the primary is still observably healthy (the heartbeat path, not the
// host, failed) and with ErrAlreadyActivated after a prior activation.
func (p *Protected) FailoverWithAgent(agent GuestAgent) (FailoverResult, error) {
	name := p.rep.Primary().Name() + "-replica"
	return failover.ActivateOpts(p.rep, name, failover.Options{
		Agent:   agent,
		Monitor: p.monitor,
	})
}

// ForceFailover activates the replica even though the primary still
// looks healthy — the operator overriding the split-brain guard after
// fencing the primary out-of-band.
func (p *Protected) ForceFailover(agent GuestAgent) (FailoverResult, error) {
	name := p.rep.Primary().Name() + "-replica"
	return failover.ActivateOpts(p.rep, name, failover.Options{
		Agent:   agent,
		Monitor: p.monitor,
		Force:   true,
	})
}

// Errors surfaced from detection, recovery and activation.
var (
	// ErrNoFailure is returned by DetectFailure when the primary stayed
	// healthy for the whole window.
	ErrNoFailure = failover.ErrNoFailure
	// ErrSplitBrain is returned by failover while the primary is still
	// observably healthy (use ForceFailover to override).
	ErrSplitBrain = failover.ErrSplitBrain
	// ErrAlreadyActivated is returned by a second failover attempt.
	ErrAlreadyActivated = failover.ErrAlreadyActivated
	// ErrDegraded is returned by a checkpoint cycle that could not
	// reach the secondary and left the VM running unprotected (only
	// without DegradedMode; with it the cycle reports StateDegraded
	// in its stats instead).
	ErrDegraded = replication.ErrDegraded
	// ErrFailedOver is returned by replication calls after activation.
	ErrFailedOver = replication.ErrFailedOver
)
