package hypervisor

import (
	"fmt"
	"sort"
	"sync"

	"github.com/here-ft/here/internal/arch"
	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/vclock"
)

// Flavor is what one backend supplies: its identity table and its
// native save-image layout. Everything the backends share — the boot
// state, the native-flavor check, wrapping codec errors, the VM
// registry and the health machinery — is Host's, once for every
// flavor.
type Flavor struct {
	Kind     Kind
	Product  string
	Features arch.FeatureSet
	Costs    CostModel
	Caps     Capabilities
	// Models names the native device model of each class. A state
	// loads only if every device's model is one of them.
	Models map[arch.DeviceClass]string
	// Check, when set, is a native-flavor rule of the backend's own,
	// run after the shared ones.
	Check func(arch.MachineState) error
	// Encode and Decode are the save-image layout. Host checks the
	// state is native before Encode and after Decode.
	Encode func(arch.MachineState) ([]byte, error)
	Decode func([]byte) (arch.MachineState, error)
}

// Host is the shared Hypervisor implementation: one simulated physical
// machine running one hypervisor flavor. It is safe for concurrent use.
type Host struct {
	flavor   Flavor
	hostName string
	clock    vclock.Clock

	mu       sync.Mutex
	vms      map[string]*VM
	health   HealthState
	reason   string
	replicas map[string]ReplicaDeposit
	// microgate, when set, arbitrates Microreboot attempts: faults
	// injection installs it to model heal latency and attempts that
	// themselves fail. nil means attempts always succeed.
	microgate func() error
}

// ReplicaDeposit is replica-side checkpoint state parked on a
// secondary host: the replicated guest memory, the last acknowledged
// state image, and the epoch they correspond to. The replication
// engine deposits it after each acknowledged checkpoint so the state
// survives the control-plane process — a restarted daemon resumes
// protection with a delta resync from the deposit instead of a full
// re-seed. Deposits live and die with the host: a crash or reboot
// wipes them (the memory was RAM on that machine).
type ReplicaDeposit struct {
	Mem   *memory.GuestMemory
	Image []byte
	Epoch uint64
}

var _ Hypervisor = (*Host)(nil)

// NewHost returns a healthy host running the given flavor.
func NewHost(flavor Flavor, hostName string, clock vclock.Clock) (*Host, error) {
	if flavor.Encode == nil || flavor.Decode == nil {
		return nil, fmt.Errorf("host %q: flavor %q has no save-image layout", hostName, flavor.Kind)
	}
	if clock == nil {
		return nil, fmt.Errorf("host %q: nil clock", hostName)
	}
	if hostName == "" {
		return nil, fmt.Errorf("host: empty host name")
	}
	return &Host{
		flavor:   flavor,
		hostName: hostName,
		clock:    clock,
		vms:      make(map[string]*VM),
		health:   Healthy,
	}, nil
}

// Kind reports the hypervisor family.
func (h *Host) Kind() Kind { return h.flavor.Kind }

// Product reports the hypervisor product name.
func (h *Host) Product() string { return h.flavor.Product }

// HostName reports the machine name.
func (h *Host) HostName() string { return h.hostName }

// Features reports the exposable CPUID features.
func (h *Host) Features() arch.FeatureSet { return h.flavor.Features }

// DeviceModel reports the native device model name for a class.
func (h *Host) DeviceModel(class arch.DeviceClass) (string, error) {
	if model, ok := h.flavor.Models[class]; ok {
		return model, nil
	}
	return "", fmt.Errorf("%s: no device model for class %v", h.flavor.Kind, class)
}

// Costs reports the replication cost model.
func (h *Host) Costs() CostModel { return h.flavor.Costs }

// Capabilities reports the backend's self-description.
func (h *Host) Capabilities() Capabilities { return h.flavor.Caps }

// Clock reports the host time source.
func (h *Host) Clock() vclock.Clock { return h.clock }

// EncodeState serializes native-flavored state to the save image.
func (h *Host) EncodeState(st arch.MachineState) ([]byte, error) {
	err := h.validateNative(st)
	var b []byte
	if err == nil {
		b, err = h.flavor.Encode(st)
	}
	if err != nil {
		return nil, fmt.Errorf("%s encode: %w", h.flavor.Kind, err)
	}
	return b, nil
}

// DecodeState parses a save image and checks it is native-flavored.
func (h *Host) DecodeState(b []byte) (arch.MachineState, error) {
	st, err := h.flavor.Decode(b)
	if err == nil {
		err = h.validateNative(st)
	}
	if err != nil {
		return st, fmt.Errorf("%s decode: %w", h.flavor.Kind, err)
	}
	return st, nil
}

// bootTSCHz is the guest-visible TSC rate of a fresh VM (Xeon Gold
// 6130, Table 3).
const bootTSCHz = 2_100_000_000

// newMachineState builds the boot-time machine state of a fresh VM:
// flat 64-bit vCPUs, the flavor's interrupt platform and native device
// models, each device bound to the next interrupt vector from
// Caps.FirstVector.
func (h *Host) newMachineState(cfg VMConfig) (arch.MachineState, error) {
	f := h.flavor
	features := f.Features
	if cfg.Features != 0 {
		if !cfg.Features.IsSubsetOf(features) {
			return arch.MachineState{}, fmt.Errorf("%s: requested features %v exceed host support", f.Kind, cfg.Features)
		}
		features = cfg.Features
	}
	st := arch.MachineState{
		Features: features,
		Timers:   arch.TimerState{TSCFrequencyHz: bootTSCHz},
		IRQChip:  arch.IRQChipState{Kind: f.Caps.IRQChip},
		VCPUs:    make([]arch.VCPUState, cfg.VCPUs),
	}
	for i := range st.VCPUs {
		st.VCPUs[i] = bootVCPU(i)
	}
	for i, spec := range cfg.Devices {
		model, err := h.DeviceModel(spec.Class)
		if err != nil {
			return arch.MachineState{}, err
		}
		dev := arch.DeviceState{
			Class:     spec.Class,
			ID:        spec.ID,
			Model:     model,
			MAC:       spec.MAC,
			MTU:       spec.MTU,
			CapacityB: spec.CapacityB,
		}
		if dev.Class == arch.DeviceNet && dev.MTU == 0 {
			dev.MTU = 1500
		}
		st.Devices = append(st.Devices, dev)
		st.IRQChip.Pending = append(st.IRQChip.Pending, arch.IRQBinding{
			Source: spec.ID,
			Vector: f.Caps.FirstVector + uint32(i),
		})
	}
	return st, nil
}

func bootVCPU(id int) arch.VCPUState {
	flat := arch.Segment{Selector: 0x10, Base: 0, Limit: 0xFFFFFFFF, Flags: 0xA09B}
	return arch.VCPUState{
		ID: id,
		Regs: arch.Registers{
			RIP:    0x1000000,
			RSP:    0x7FF0_0000 - uint64(id)*0x10000,
			RFLAGS: 0x2,
			CR0:    0x8005_0033, // PE|MP|ET|NE|WP|AM|PG
			CR3:    0x1000,
			CR4:    0x3406E0,
			EFER:   0x500, // LME|LMA
			CS:     flat, DS: flat, ES: flat, FS: flat, GS: flat, SS: flat,
		},
		MSRs: map[uint32]uint64{
			0xC0000080: 0x500, // IA32_EFER
			0xC0000100: 0,     // FS base
			0xC0000101: 0,     // GS base
		},
		APIC: arch.APICState{ID: uint32(id)},
	}
}

// validateNative checks that machine state is in this host's flavor
// and loadable: the flavor's interrupt platform, its own device models
// only, its features, and the flavor's own Check. Loading another
// flavor's state must fail — that is what makes the state translator
// necessary.
func (h *Host) validateNative(st arch.MachineState) error {
	f := h.flavor
	if err := st.Validate(); err != nil {
		return err
	}
	if st.IRQChip.Kind != f.Caps.IRQChip {
		return fmt.Errorf("%s: irqchip %v is not %v", f.Kind, st.IRQChip.Kind, f.Caps.IRQChip)
	}
	for _, d := range st.Devices {
		if !h.nativeModel(d.Model) {
			return fmt.Errorf("%s: device %q has non-native model %q", f.Kind, d.ID, d.Model)
		}
	}
	if !st.Features.IsSubsetOf(f.Features) {
		return fmt.Errorf("%s: state requires unsupported features", f.Kind)
	}
	if f.Check != nil {
		return f.Check(st)
	}
	return nil
}

func (h *Host) nativeModel(model string) bool {
	for _, m := range h.flavor.Models {
		if m == model {
			return true
		}
	}
	return false
}

func (h *Host) checkUp() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.health != Healthy {
		return fmt.Errorf("host %q (%s) is %s: %w", h.hostName, h.Product(), h.health, ErrHostDown)
	}
	return nil
}

// CreateVM boots a fresh VM with this hypervisor's native device
// models and leaves it running.
func (h *Host) CreateVM(cfg VMConfig) (*VM, error) {
	if err := h.checkUp(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	st, err := h.newMachineState(cfg)
	if err != nil {
		return nil, fmt.Errorf("host %q: %w", h.hostName, err)
	}
	vm, err := NewVM(cfg.Name, h, st, memory.NewGuestMemory(cfg.MemBytes), cfg.PMLRingCap)
	if err != nil {
		return nil, err
	}
	if err := h.register(vm); err != nil {
		return nil, err
	}
	vm.Start()
	return vm, nil
}

// RestoreVM instantiates a paused VM from native-flavored machine
// state and received guest memory. The caller resumes it after device
// reconfiguration, matching the failover flow of §7.3.
func (h *Host) RestoreVM(cfg VMConfig, st arch.MachineState, mem *memory.GuestMemory) (*VM, error) {
	if err := h.checkUp(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if mem == nil {
		return nil, fmt.Errorf("host %q: restore %q with nil memory", h.hostName, cfg.Name)
	}
	if err := h.validateNative(st); err != nil {
		return nil, fmt.Errorf("host %q: restore %q: %w", h.hostName, cfg.Name, err)
	}
	if !st.Features.IsSubsetOf(h.Features()) {
		return nil, fmt.Errorf("host %q: restore %q: guest features %v not supported (host has %v)",
			h.hostName, cfg.Name, st.Features, h.Features())
	}
	vm, err := NewVM(cfg.Name, h, st, mem, cfg.PMLRingCap)
	if err != nil {
		return nil, err
	}
	if err := h.register(vm); err != nil {
		return nil, err
	}
	return vm, nil
}

func (h *Host) register(vm *VM) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.vms[vm.Name()]; ok {
		return fmt.Errorf("host %q: vm %q: %w", h.hostName, vm.Name(), ErrVMExists)
	}
	h.vms[vm.Name()] = vm
	return nil
}

// LookupVM finds a VM by name.
func (h *Host) LookupVM(name string) (*VM, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	vm, ok := h.vms[name]
	if !ok {
		return nil, fmt.Errorf("host %q: vm %q: %w", h.hostName, name, ErrVMNotFound)
	}
	return vm, nil
}

// DestroyVM removes a VM from the host.
func (h *Host) DestroyVM(name string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	vm, ok := h.vms[name]
	if !ok {
		return fmt.Errorf("host %q: vm %q: %w", h.hostName, name, ErrVMNotFound)
	}
	vm.Pause()
	delete(h.vms, name)
	return nil
}

// VMs lists VM names, sorted.
func (h *Host) VMs() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	names := make([]string, 0, len(h.vms))
	for n := range h.vms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// VMCount reports how many VMs the host holds, without building the
// sorted name list VMs does.
func (h *Host) VMCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.vms)
}

// DepositReplica parks replica-side checkpoint state on this host
// under a stable key (the protection name). It fails if the host is
// not healthy — a dead host can hold no state.
func (h *Host) DepositReplica(key string, d ReplicaDeposit) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.health != Healthy {
		return fmt.Errorf("host %q (%s) is %s: %w", h.hostName, h.Product(), h.health, ErrHostDown)
	}
	if h.replicas == nil {
		h.replicas = make(map[string]ReplicaDeposit)
	}
	h.replicas[key] = d
	return nil
}

// Replica retrieves a parked replica deposit, if the host still holds
// one for the key (and is alive to serve it).
func (h *Host) Replica(key string) (ReplicaDeposit, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.health != Healthy {
		return ReplicaDeposit{}, false
	}
	d, ok := h.replicas[key]
	return d, ok
}

// DropReplica discards a parked replica deposit (e.g. when protection
// moves elsewhere or the VM is unprotected).
func (h *Host) DropReplica(key string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.replicas, key)
}

// Health reports the host's health.
func (h *Host) Health() HealthState {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.health
}

// Fail forces the host into a failure state. All VMs stop executing:
// a crashed or hung hypervisor runs no guests (paper §8.2). The VMs'
// memory is NOT preserved across a crash — this is exactly why the
// replica on the second host matters.
func (h *Host) Fail(state HealthState, reason string) {
	if state == Healthy {
		return
	}
	h.mu.Lock()
	vms := make([]*VM, 0, len(h.vms))
	for _, vm := range h.vms {
		vms = append(vms, vm)
	}
	h.health = state
	h.reason = reason
	h.mu.Unlock()
	for _, vm := range vms {
		// Stop without accounting pause cost: the host died, nobody
		// ran the orderly pause path.
		vm.mu.Lock()
		vm.running = false
		vm.mu.Unlock()
	}
}

// Recover returns the host to Healthy. After a Crashed or Hung
// hypervisor this is a real reboot: VMs and replica deposits are
// wiped — they were RAM on the machine that just rebooted. A Starved
// host, by contrast, never lost power: un-starving it keeps VMs (still
// stopped; the caller decides what to resume) and replica deposits
// intact. (While the host is down, Replica already refuses to serve
// them.)
func (h *Host) Recover() {
	h.mu.Lock()
	defer h.mu.Unlock()
	wasStarved := h.health == Starved
	h.health = Healthy
	h.reason = ""
	if !wasStarved {
		h.vms = make(map[string]*VM)
		h.replicas = nil
	}
}

// SetMicrorebootGate installs (or, with nil, removes) the hook that
// arbitrates Microreboot attempts. Fault injection uses it to model
// heal latency and a seeded probability that an attempt itself fails.
func (h *Host) SetMicrorebootGate(gate func() error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.microgate = gate
}

// Microreboot attempts a ReHype-style in-place hypervisor reboot: the
// failed control state is rebuilt while guest memory and replica
// deposits stay resident in RAM. On success the host is Healthy again
// and its VMs are back — paused, with their dirty logs conservatively
// re-marked (every populated page dirty), because the tracking
// hardware state did not survive the reboot and the replication engine
// must not trust a bitmap the dead hypervisor maintained. The caller
// resumes the VMs once it has re-attached protection.
//
// It fails when the backend does not advertise Capabilities.Microreboot
// (chv has no such path) or when the injected gate says the attempt
// failed (still healing, or the reboot itself wedged).
func (h *Host) Microreboot() error {
	if !h.flavor.Caps.Microreboot {
		return fmt.Errorf("host %q (%s): %w", h.hostName, h.Product(), ErrNoMicroreboot)
	}
	h.mu.Lock()
	if h.health == Healthy {
		h.mu.Unlock()
		return nil
	}
	gate := h.microgate
	h.mu.Unlock()
	// Run the gate outside the lock: it may consult clocks or seeded
	// randomness and must not deadlock against concurrent host calls.
	if gate != nil {
		if err := gate(); err != nil {
			return fmt.Errorf("host %q: microreboot: %w", h.hostName, err)
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.health = Healthy
	h.reason = ""
	for _, vm := range h.vms {
		// Conservative dirty re-mark: the tracker survives in our
		// simulation, but a real microrebooted hypervisor rebuilds its
		// log-dirty state from scratch, so every populated page must be
		// considered dirty until the next checkpoint proves otherwise.
		tr := vm.Tracker()
		for _, n := range vm.Memory().PopulatedList() {
			tr.MarkDirty(0, n)
		}
	}
	return nil
}

// FailureReason reports why the host failed, or "".
func (h *Host) FailureReason() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.reason
}
