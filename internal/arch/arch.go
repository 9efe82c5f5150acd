// Package arch defines the hypervisor-independent machine state that
// HERE's state translator pivots through (paper §5.3, §7.4): vCPU
// registers, platform timers, interrupt controller state, CPUID
// features, and abstract virtual device descriptions.
//
// Both simulated hypervisors (internal/xen, internal/kvm) serialize to
// and from their own native wire formats; translation always goes
// native → arch.MachineState → native.
package arch

import (
	"fmt"
	"sort"
	"strings"
)

// Feature is a CPUID feature bit exposed to the guest.
type Feature uint64

// CPUID features relevant to cross-hypervisor compatibility. HERE must
// present the intersection of both hypervisors' supported features so
// the guest never observes a feature disappearing after failover
// (paper §7.4).
const (
	FeatureFPU Feature = 1 << iota
	FeatureSSE
	FeatureSSE2
	FeatureSSE3
	FeatureSSSE3
	FeatureSSE41
	FeatureSSE42
	FeatureAVX
	FeatureAVX2
	FeatureAES
	FeatureRDRAND
	FeatureRDTSCP
	FeatureX2APIC
	FeatureINVPCID
	FeatureXSAVE
	FeatureFSGSBASE
	FeaturePCID
	FeatureTSCDeadline
	FeatureHypervisor // the "running under a hypervisor" bit
)

var featureNames = map[Feature]string{
	FeatureFPU:         "fpu",
	FeatureSSE:         "sse",
	FeatureSSE2:        "sse2",
	FeatureSSE3:        "sse3",
	FeatureSSSE3:       "ssse3",
	FeatureSSE41:       "sse4.1",
	FeatureSSE42:       "sse4.2",
	FeatureAVX:         "avx",
	FeatureAVX2:        "avx2",
	FeatureAES:         "aes",
	FeatureRDRAND:      "rdrand",
	FeatureRDTSCP:      "rdtscp",
	FeatureX2APIC:      "x2apic",
	FeatureINVPCID:     "invpcid",
	FeatureXSAVE:       "xsave",
	FeatureFSGSBASE:    "fsgsbase",
	FeaturePCID:        "pcid",
	FeatureTSCDeadline: "tsc-deadline",
	FeatureHypervisor:  "hypervisor",
}

// FeatureSet is a set of CPUID features.
type FeatureSet uint64

// NewFeatureSet builds a set from individual features.
func NewFeatureSet(features ...Feature) FeatureSet {
	var s FeatureSet
	for _, f := range features {
		s |= FeatureSet(f)
	}
	return s
}

// Has reports whether f is in the set.
func (s FeatureSet) Has(f Feature) bool { return s&FeatureSet(f) != 0 }

// Intersect returns the features present in both sets. This is the
// compatibility mask HERE applies before replication starts.
func (s FeatureSet) Intersect(o FeatureSet) FeatureSet { return s & o }

// IsSubsetOf reports whether every feature of s is also in o.
func (s FeatureSet) IsSubsetOf(o FeatureSet) bool { return s&^o == 0 }

// String lists the named features, sorted, e.g. "fpu,sse,sse2".
func (s FeatureSet) String() string {
	var names []string
	for f, name := range featureNames {
		if s.Has(f) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

// Registers is the general-purpose and control register file of one
// vCPU in the common format.
type Registers struct {
	RAX, RBX, RCX, RDX uint64
	RSI, RDI, RBP, RSP uint64
	R8, R9, R10, R11   uint64
	R12, R13, R14, R15 uint64
	RIP, RFLAGS        uint64
	CR0, CR2, CR3, CR4 uint64
	EFER               uint64
	CS, DS, ES, FS     Segment
	GS, SS             Segment
	GDTRBase, GDTRLim  uint64
	IDTRBase, IDTRLim  uint64
}

// Segment is one x86 segment register.
type Segment struct {
	Selector uint16
	Base     uint64
	Limit    uint32
	Flags    uint16
}

// VCPUState is the replicable state of one virtual CPU.
type VCPUState struct {
	ID    int
	Regs  Registers
	TSC   uint64            // per-vCPU time stamp counter at capture
	APIC  APICState         // local interrupt controller state
	MSRs  map[uint32]uint64 // model-specific registers
	Halt  bool              // vCPU is in HLT
	Index uint32            // xsave-style state revision counter
}

// Clone returns a deep copy of the vCPU state.
func (v VCPUState) Clone() VCPUState {
	out := v
	if v.MSRs != nil {
		out.MSRs = make(map[uint32]uint64, len(v.MSRs))
		for k, val := range v.MSRs {
			out.MSRs[k] = val
		}
	}
	out.APIC.ISR = append([]uint8(nil), v.APIC.ISR...)
	out.APIC.IRR = append([]uint8(nil), v.APIC.IRR...)
	return out
}

// APICState is the local APIC state of one vCPU.
type APICState struct {
	ID       uint32
	TPR      uint32  // task priority register
	Timer    uint64  // current count of the APIC timer
	TimerDiv uint32  // divide configuration
	ISR      []uint8 // in-service vectors
	IRR      []uint8 // pending (requested) vectors
}

// IRQChipKind identifies the platform interrupt delivery mechanism.
type IRQChipKind int

// Interrupt delivery mechanisms of the two simulated hypervisors.
const (
	IRQChipIOAPIC       IRQChipKind = iota + 1 // kvmtool-style IOAPIC+LAPIC
	IRQChipEventChannel                        // Xen PV event channels
)

// String names the chip kind.
func (k IRQChipKind) String() string {
	switch k {
	case IRQChipIOAPIC:
		return "ioapic"
	case IRQChipEventChannel:
		return "event-channel"
	default:
		return fmt.Sprintf("irqchip(%d)", int(k))
	}
}

// IRQChipState is platform interrupt controller state. The translator
// converts Xen event-channel bindings into IOAPIC pin routing and back.
type IRQChipState struct {
	Kind    IRQChipKind
	Pending []IRQBinding // outstanding interrupt routes/bindings
}

// IRQBinding maps one virtual interrupt source to its guest vector.
type IRQBinding struct {
	Source string // device identifier, e.g. "net0"
	Vector uint32 // guest interrupt vector / event channel port
	Masked bool
}

// Clone returns a deep copy.
func (s IRQChipState) Clone() IRQChipState {
	out := s
	out.Pending = append([]IRQBinding(nil), s.Pending...)
	return out
}

// TimerState is platform timekeeping state.
type TimerState struct {
	TSCFrequencyHz uint64 // guest-visible TSC frequency
	SystemTimeNS   uint64 // guest-visible monotonic clock at capture
	WallClockSec   uint64 // guest-visible wall clock (seconds)
	WallClockNSec  uint32
}

// DeviceClass identifies the function of a virtual device.
type DeviceClass int

// Virtual device classes handled by the device manager.
const (
	DeviceNet DeviceClass = iota + 1
	DeviceBlock
	DeviceConsole
)

// String names the class.
func (c DeviceClass) String() string {
	switch c {
	case DeviceNet:
		return "net"
	case DeviceBlock:
		return "block"
	case DeviceConsole:
		return "console"
	default:
		return fmt.Sprintf("device(%d)", int(c))
	}
}

// DeviceState is the hypervisor-independent description of one virtual
// device. Model carries the hypervisor-specific device model name
// ("xen-netfront", "virtio-net", ...); the device manager rewrites it
// during failover since HERE deliberately uses different device models
// on each side (paper §5.2).
type DeviceState struct {
	Class     DeviceClass
	ID        string // stable device identifier, e.g. "net0"
	Model     string // device model name on the owning hypervisor
	MAC       string // DeviceNet: guest MAC address
	MTU       int    // DeviceNet
	CapacityB uint64 // DeviceBlock: virtual disk capacity
	WriteBack bool   // DeviceBlock: write cache mode
	InFlight  int    // outstanding requests at capture (must be 0 to unplug safely)
}

// MachineState is the full replicable non-memory state of a VM in the
// common format: everything the paper's state translator handles
// except the memory pages themselves.
type MachineState struct {
	VCPUs    []VCPUState
	Features FeatureSet
	Timers   TimerState
	IRQChip  IRQChipState
	Devices  []DeviceState
}

// Clone returns a deep copy of the machine state.
func (m MachineState) Clone() MachineState {
	out := m
	out.VCPUs = make([]VCPUState, len(m.VCPUs))
	for i, v := range m.VCPUs {
		out.VCPUs[i] = v.Clone()
	}
	out.IRQChip = m.IRQChip.Clone()
	out.Devices = append([]DeviceState(nil), m.Devices...)
	return out
}

// Validate checks internal consistency of the machine state.
func (m MachineState) Validate() error {
	if len(m.VCPUs) == 0 {
		return fmt.Errorf("machine state has no vCPUs")
	}
	seen := make(map[int]bool, len(m.VCPUs))
	for _, v := range m.VCPUs {
		if seen[v.ID] {
			return fmt.Errorf("duplicate vCPU id %d", v.ID)
		}
		seen[v.ID] = true
	}
	if m.IRQChip.Kind != IRQChipIOAPIC && m.IRQChip.Kind != IRQChipEventChannel {
		return fmt.Errorf("unknown irqchip kind %d", m.IRQChip.Kind)
	}
	ids := make(map[string]bool, len(m.Devices))
	for _, d := range m.Devices {
		if d.ID == "" {
			return fmt.Errorf("device with empty id (class %s)", d.Class)
		}
		if ids[d.ID] {
			return fmt.Errorf("duplicate device id %q", d.ID)
		}
		ids[d.ID] = true
	}
	return nil
}
