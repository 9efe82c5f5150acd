// Package hypervisor defines the simulated virtualization substrate:
// the Hypervisor interface implemented by internal/xen and internal/kvm,
// the VM type shared by both, per-hypervisor cost models, and host
// health states used for failure injection.
//
// The replication, migration and failover engines are written against
// these interfaces only, exactly as HERE's user-mode components sit on
// top of libxc/kvmtool in the paper (§5).
package hypervisor

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/here-ft/here/internal/arch"
	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/vclock"
)

// Kind identifies a hypervisor implementation.
type Kind string

// The hypervisor implementation families. Xen and KVM are the paper's
// prototype pair (§7.1); CHV is a cloud-hypervisor-style rust-vmm VMM
// on KVM with its own state format and device naming, added to give
// the placement engine a third genuinely different backend.
const (
	KindXen Kind = "xen"
	KindKVM Kind = "kvm"
	KindCHV Kind = "chv"
)

// HealthState is the operational state of a hypervisor host. The three
// failure states mirror the paper's post-attack outcome taxonomy
// (§8.2): crash, hang, and resource starvation.
type HealthState int

// Host health states.
const (
	Healthy HealthState = iota + 1
	Crashed             // target completely shut down
	Hung                // target stops responding to all requests
	Starved             // target malfunctions, starving resources
)

// String names the health state.
func (s HealthState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Crashed:
		return "crashed"
	case Hung:
		return "hung"
	case Starved:
		return "starved"
	default:
		return fmt.Sprintf("health(%d)", int(s))
	}
}

// Errors reported by hypervisor operations.
var (
	ErrHostDown    = errors.New("hypervisor: host is not healthy")
	ErrVMExists    = errors.New("hypervisor: vm already exists")
	ErrVMNotFound  = errors.New("hypervisor: vm not found")
	ErrVMNotPaused = errors.New("hypervisor: vm must be paused")
	// ErrNoMicroreboot marks a backend without an in-place recovery
	// path; the policy engine treats it as "failover is the only option".
	ErrNoMicroreboot = errors.New("hypervisor: backend does not support microreboot")
)

// DeviceSpec requests one virtual device at VM creation. The concrete
// device model is chosen by the hypervisor (PV on Xen, virtio on KVM).
type DeviceSpec struct {
	Class     arch.DeviceClass
	ID        string
	MAC       string // DeviceNet
	MTU       int    // DeviceNet, defaults to 1500
	CapacityB uint64 // DeviceBlock
}

// VMConfig describes a VM to create or restore.
type VMConfig struct {
	Name       string
	MemBytes   uint64
	VCPUs      int
	PMLRingCap int // per-vCPU dirty ring capacity, 0 for default
	Devices    []DeviceSpec
	// Features restricts the CPUID features exposed to the guest.
	// Zero means the hypervisor's full set. HERE boots protected VMs
	// with the intersection of both hosts' sets (§7.4) so the guest
	// can resume on either hypervisor.
	Features arch.FeatureSet
}

// Validate checks the configuration.
func (c VMConfig) Validate() error {
	if c.Name == "" {
		return errors.New("vm config: empty name")
	}
	if c.MemBytes == 0 {
		return fmt.Errorf("vm %q: zero memory", c.Name)
	}
	if c.VCPUs <= 0 {
		return fmt.Errorf("vm %q: need at least one vCPU, got %d", c.Name, c.VCPUs)
	}
	seen := make(map[string]bool, len(c.Devices))
	for _, d := range c.Devices {
		if d.ID == "" {
			return fmt.Errorf("vm %q: device with empty id", c.Name)
		}
		if seen[d.ID] {
			return fmt.Errorf("vm %q: duplicate device id %q", c.Name, d.ID)
		}
		seen[d.ID] = true
	}
	return nil
}

// CostModel captures the CPU-side costs of state replication on one
// hypervisor. These are the calibration constants behind the paper's
// pause model t = αN/P + C (Eq. 3/4): network costs come from
// simnet.Link; everything else comes from here.
type CostModel struct {
	// PauseVM is the cost of stopping all vCPUs.
	PauseVM time.Duration
	// ResumeVM is the cost of resuming a paused VM, excluding device
	// reconfiguration. kvmtool's lightweight userspace makes this small
	// (Fig 7: replica resumption ~ms regardless of memory size).
	ResumeVM time.Duration
	// DevicePlug is the per-device cost of unplugging/plugging a
	// device model during failover (§7.3).
	DevicePlug time.Duration
	// ScanPerPage is the per-page cost of walking the dirty bitmap,
	// paid for every page of guest memory each checkpoint. This work
	// is divided across migrator threads in HERE.
	ScanPerPage time.Duration
	// MapPerDirtyPage is the per-dirty-page cost of mapping/unmapping
	// guest pages through the privileged interface. This path is
	// serialized by the hypervisor and does not parallelize.
	MapPerDirtyPage time.Duration
	// CopyPerDirtyPage is the per-dirty-page CPU copy cost, divided
	// across migrator threads.
	CopyPerDirtyPage time.Duration
	// MigratePerPage is the per-page CPU cost of the seeding
	// migration path (page-table setup and population on the receiver
	// in addition to mapping/copying). During the initial full-memory
	// pass, pages are not attributed to any vCPU, so only the network
	// side parallelizes; subsequent dirty iterations parallelize fully
	// through the per-vCPU PML rings.
	MigratePerPage time.Duration
	// ResumeWarmup is the guest-progress loss after each resume while
	// caches and TLBs refill — the overhead the paper credits for
	// high degradation targets being overshot (§8.6: "hardware
	// overheads such as cache misses, TLB misses and software
	// overheads for scheduling the VM are increased"). It costs wall
	// time without advancing the workload.
	ResumeWarmup time.Duration
	// CompressPerDirtyPage is the CPU cost of compressing one page
	// before transfer (optional checkpoint compression), divided
	// across migrator threads.
	CompressPerDirtyPage time.Duration
	// StateRecord is the cost of serializing vCPU and device state.
	StateRecord time.Duration
}

// Hypervisor is one simulated hypervisor host. One Hypervisor value
// corresponds to one physical machine of the paper's testbed.
//
// Implementations must be safe for concurrent use.
type Hypervisor interface {
	// Kind reports the implementation family.
	Kind() Kind
	// Product reports the product name, e.g. "Xen 4.12".
	Product() string
	// HostName reports the host machine's name.
	HostName() string
	// Features reports the CPUID features this hypervisor can expose.
	Features() arch.FeatureSet
	// DeviceModel reports the native device model name for a class,
	// e.g. "xen-netfront" or "virtio-net".
	DeviceModel(class arch.DeviceClass) (string, error)
	// Costs reports the host's replication cost model.
	Costs() CostModel
	// Capabilities reports what this backend can do: state format,
	// dirty-tracking granularity, snapshot/restore support, device
	// naming scheme and CVE-surface flavor. Placement and replication
	// consult this instead of switching on Kind.
	Capabilities() Capabilities
	// Clock reports the host's time source.
	Clock() vclock.Clock

	// CreateVM boots a fresh VM.
	CreateVM(cfg VMConfig) (*VM, error)
	// RestoreVM instantiates a VM (paused) from translated machine
	// state and already-received guest memory. The machine state must
	// be in this hypervisor's native flavor (device models, irqchip).
	RestoreVM(cfg VMConfig, st arch.MachineState, mem *memory.GuestMemory) (*VM, error)
	// LookupVM finds a VM by name.
	LookupVM(name string) (*VM, error)
	// DestroyVM removes a VM.
	DestroyVM(name string) error
	// VMs lists the VM names on this host.
	VMs() []string

	// EncodeState serializes machine state into this hypervisor's
	// native wire format (libxc-style records on Xen, kvmtool-style
	// sections on KVM).
	EncodeState(st arch.MachineState) ([]byte, error)
	// DecodeState parses this hypervisor's native wire format.
	DecodeState(b []byte) (arch.MachineState, error)

	// Health reports the host's health.
	Health() HealthState
	// Fail forces the host into a failure state (exploit injection).
	// Crashing a host stops all of its VMs.
	Fail(state HealthState, reason string)
	// Recover returns the host to Healthy (reboot/repair).
	Recover()
	// Microreboot attempts a ReHype-style in-place hypervisor reboot:
	// control state is rebuilt while guest memory and replica deposits
	// stay resident. Only backends advertising Capabilities.Microreboot
	// support it.
	Microreboot() error
	// FailureReason reports why the host failed, if it did.
	FailureReason() string
}

// VM is one guest. Both simulated hypervisors share this
// implementation; hypervisor-specific flavor lives in the MachineState
// they construct and in their state codecs. VM is safe for concurrent
// use.
type VM struct {
	name    string
	hv      Hypervisor
	clock   vclock.Clock
	mem     *memory.GuestMemory
	tracker *memory.Tracker

	mu      sync.Mutex
	state   arch.MachineState
	running bool
	started time.Time
}

// NewVM assembles a VM. Hypervisor implementations call this from
// CreateVM/RestoreVM; engines never construct VMs directly.
func NewVM(name string, hv Hypervisor, st arch.MachineState, mem *memory.GuestMemory, ringCap int) (*VM, error) {
	if err := st.Validate(); err != nil {
		return nil, fmt.Errorf("vm %q: %w", name, err)
	}
	return &VM{
		name:    name,
		hv:      hv,
		clock:   hv.Clock(),
		mem:     mem,
		tracker: memory.NewTracker(mem.NumPages(), len(st.VCPUs), ringCap),
		state:   st,
	}, nil
}

// Name reports the VM name.
func (v *VM) Name() string { return v.name }

// Hypervisor reports the host hypervisor.
func (v *VM) Hypervisor() Hypervisor { return v.hv }

// Memory returns the guest physical memory.
func (v *VM) Memory() *memory.GuestMemory { return v.mem }

// Tracker returns the dirty-page tracking facilities.
func (v *VM) Tracker() *memory.Tracker { return v.tracker }

// NumVCPUs reports the number of virtual CPUs.
func (v *VM) NumVCPUs() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.state.VCPUs)
}

// Running reports whether the VM is executing.
func (v *VM) Running() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.running
}

// Start begins guest execution.
func (v *VM) Start() {
	v.mu.Lock()
	defer v.mu.Unlock()
	if !v.running {
		v.running = true
		v.started = v.clock.Now()
	}
}

// Pause stops guest execution and accounts the hypervisor's pause cost
// on the clock. Pausing a paused VM is a no-op.
func (v *VM) Pause() {
	v.mu.Lock()
	if !v.running {
		v.mu.Unlock()
		return
	}
	v.running = false
	v.mu.Unlock()
	v.clock.Sleep(v.hv.Costs().PauseVM)
}

// Resume restarts guest execution and accounts the resume cost.
// Resuming a running VM is a no-op.
func (v *VM) Resume() {
	v.mu.Lock()
	if v.running {
		v.mu.Unlock()
		return
	}
	v.running = true
	v.mu.Unlock()
	v.clock.Sleep(v.hv.Costs().ResumeVM)
}

// WriteGuest writes data into guest memory on behalf of the given vCPU
// and marks the touched pages dirty. It fails while the VM is paused —
// a paused guest cannot execute stores, which is what checkpoint
// consistency relies on.
func (v *VM) WriteGuest(vcpu int, addr memory.Addr, data []byte) error {
	if !v.Running() {
		return fmt.Errorf("vm %q: write while paused", v.name)
	}
	if err := v.mem.Write(addr, data); err != nil {
		return fmt.Errorf("vm %q: %w", v.name, err)
	}
	first := addr.Page()
	last := (addr + memory.Addr(len(data)) - 1).Page()
	for p := first; p <= last; p++ {
		v.tracker.MarkDirty(vcpu, p)
	}
	return nil
}

// ReadGuest reads guest memory. Reads are allowed while paused (the
// replication engine reads a paused guest's pages).
func (v *VM) ReadGuest(addr memory.Addr, dst []byte) error {
	return v.mem.Read(addr, dst)
}

// TouchPage marks a page dirty on behalf of a vCPU without changing
// its content. Workload simulators use this to model stores into
// large guest memories without materializing gigabytes of backing
// store; a page can be dirty yet logically unchanged, which is safe.
func (v *VM) TouchPage(vcpu int, page memory.PageNum) error {
	if !v.Running() {
		return fmt.Errorf("vm %q: touch while paused", v.name)
	}
	if page >= v.mem.NumPages() {
		return fmt.Errorf("vm %q: touch page %d beyond memory", v.name, page)
	}
	v.tracker.MarkDirty(vcpu, page)
	return nil
}

// CaptureState snapshots the machine state in the common format. The
// VM must be paused, mirroring the paper's checkpoint step where vCPU
// and device states are sent only after the VM stops (§3.2).
func (v *VM) CaptureState() (arch.MachineState, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.running {
		return arch.MachineState{}, fmt.Errorf("vm %q: %w", v.name, ErrVMNotPaused)
	}
	// Stamp guest-visible time from the host clock so the replica
	// resumes with a consistent clock.
	now := v.clock.Now()
	st := v.state.Clone()
	st.Timers.SystemTimeNS = uint64(now.UnixNano())
	st.Timers.WallClockSec = uint64(now.Unix())
	st.Timers.WallClockNSec = uint32(now.Nanosecond())
	for i := range st.VCPUs {
		st.VCPUs[i].TSC = uint64(now.UnixNano()) * (st.Timers.TSCFrequencyHz / 1e9)
	}
	return st, nil
}

// MachineState returns a deep copy of the current machine state
// without requiring a pause (for inspection and tests).
func (v *VM) MachineState() arch.MachineState {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.state.Clone()
}
