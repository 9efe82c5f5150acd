package hypervisor

import (
	"github.com/here-ft/here/internal/arch"
	"github.com/here-ft/here/internal/vulns"
)

// DirtyTracking describes the dirty-page tracking mechanism a backend
// exposes to the replication engine, and its granularity.
type DirtyTracking struct {
	// Mechanism names the facility: Xen's hypervisor-maintained
	// log-dirty bitmap, or KVM's PML-fed per-vCPU dirty rings.
	Mechanism string
	// PageBytes is the tracking granularity — the unit in which the
	// engine learns about guest writes.
	PageBytes uint64
}

// Capabilities is a backend's first-class self-description: what the
// replication, translation and placement layers may rely on without
// knowing the concrete implementation. Engines consult these instead
// of switching on Kind — the translator included — so a new backend
// plugs in by registering its Flavor, not by editing an engine.
type Capabilities struct {
	// StateFormat names the native machine-state wire format, e.g.
	// "xen-libxc-records". Two hosts with equal formats can exchange
	// raw images; different formats go through the state translator.
	StateFormat string
	// StateVersion is the format revision EncodeState produces.
	StateVersion int
	// DirtyTracking is the dirty-page tracking facility.
	DirtyTracking DirtyTracking
	// SnapshotRestore reports whether the backend can instantiate a
	// paused VM from translated state plus received memory — required
	// of any host asked to hold a replica (secondary role).
	SnapshotRestore bool
	// LiveDirtyLog reports whether the backend can track dirty pages
	// while the guest runs — required of any host asked to run a
	// protected primary.
	LiveDirtyLog bool
	// IRQChip is the interrupt platform a native state uses, and
	// FirstVector the vector its first device is bound to (an event
	// channel port on Xen, an IOAPIC GSI on the KVM-based backends);
	// later devices take the vectors after it. The translator rebinds
	// a state's interrupts onto the destination's platform from these.
	IRQChip     arch.IRQChipKind
	FirstVector uint32
	// DeviceNaming names the device-model naming scheme, e.g. "xen-pv"
	// or "kvmtool-virtio". Purely informational: the translator always
	// rewrites models through DeviceModel().
	DeviceNaming string
	// Microreboot reports whether the backend supports ReHype-style
	// in-place hypervisor recovery: rebooting the hypervisor control
	// state while guest memory (and replica deposits) stay resident in
	// RAM. The recovery policy engine consults this before attempting a
	// microreboot; without it, the only answer to a host failure is
	// failover.
	Microreboot bool
	// VulnFlavor is the deployment flavor in the vulnerability study —
	// what the placement engine scores CVE overlap with (§8.2).
	VulnFlavor vulns.Flavor
}
