// Package chv simulates a third hypervisor backend: a cloud-hypervisor
// style rust-vmm VMM on KVM. It shares the KVM kernel module with the
// kvmtool and QEMU-KVM backends (and therefore their kvm-core CVE
// surface) but carries neither QEMU nor kvmtool code, exposes
// virtio-pci device models under its own naming, assigns device GSIs
// from 32 upward, and saves machine state in a little-endian
// numeric-tag TLV snapshot format — different from Xen's record stream
// and kvmtool's named big-endian sections in byte order, layout,
// tagging and units, so the state translator has real work to do for
// every pairing.
package chv

import (
	"fmt"
	"time"

	"github.com/here-ft/here/internal/arch"
	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/vclock"
	"github.com/here-ft/here/internal/vulns"
)

// Product is the simulated product string.
const Product = "Cloud Hypervisor 34.0"

// Backend is the name this package registers under in the hypervisor
// backend registry.
const Backend = "chv"

func init() {
	hypervisor.Register(Backend, New)
}

// New returns a host machine running the simulated cloud-hypervisor
// backend.
func New(hostName string, clock vclock.Clock) (*hypervisor.Host, error) {
	return hypervisor.NewHost(flavor, hostName, clock)
}

// FirstGSI is the first IOAPIC line cloud-hypervisor assigns to
// virtio-pci devices; lines below are reserved for legacy interrupts
// and PCI INTx. The offset differs from kvmtool's (16), so translated
// interrupt bindings are genuinely renumbered between the two
// KVM-based backends.
const FirstGSI = 32

// Features reports the CPUID feature set the simulated backend
// exposes. A modern rust-vmm VMM passes through both the PCID group
// (which kvmtool masks) and the x2APIC/TSC-deadline group (which Xen's
// PV path masks), so its pairwise intersections with both are proper
// subsets.
func Features() arch.FeatureSet {
	return arch.NewFeatureSet(
		arch.FeatureFPU, arch.FeatureSSE, arch.FeatureSSE2, arch.FeatureSSE3,
		arch.FeatureSSSE3, arch.FeatureSSE41, arch.FeatureSSE42, arch.FeatureAVX,
		arch.FeatureAVX2, arch.FeatureAES, arch.FeatureRDRAND, arch.FeatureRDTSCP,
		arch.FeatureXSAVE, arch.FeatureFSGSBASE, arch.FeaturePCID,
		arch.FeatureINVPCID, arch.FeatureX2APIC, arch.FeatureTSCDeadline,
		arch.FeatureHypervisor,
	)
}

var flavor = hypervisor.Flavor{
	Kind:     hypervisor.KindCHV,
	Product:  Product,
	Features: Features(),
	// A thin rust VMM with cheap pause/resume like kvmtool, slightly
	// faster state serialization (versioned in-memory snapshots, no
	// section naming) and marginally slower page mapping through the
	// extra PCI indirection.
	Costs: hypervisor.CostModel{
		PauseVM:              130 * time.Microsecond,
		ResumeVM:             320 * time.Microsecond,
		DevicePlug:           1000 * time.Microsecond,
		ScanPerPage:          6 * time.Nanosecond,
		MapPerDirtyPage:      440 * time.Nanosecond,
		CopyPerDirtyPage:     150 * time.Nanosecond,
		MigratePerPage:       1450 * time.Nanosecond,
		ResumeWarmup:         35 * time.Millisecond,
		CompressPerDirtyPage: 2 * time.Microsecond,
		StateRecord:          180 * time.Microsecond,
	},
	// TLV snapshot stream, KVM dirty rings, full snapshot/restore,
	// IOAPIC GSIs from FirstGSI, virtio-pci device naming, and a CVE
	// surface of kvm-core plus its own (CVE-free in the study period)
	// VMM.
	Caps: hypervisor.Capabilities{
		StateFormat:  "chv-snapshot-tlv",
		StateVersion: 1,
		DirtyTracking: hypervisor.DirtyTracking{
			Mechanism: "pml-dirty-ring",
			PageBytes: memory.PageSize,
		},
		SnapshotRestore: true,
		LiveDirtyLog:    true,
		IRQChip:         arch.IRQChipIOAPIC,
		FirstVector:     FirstGSI,
		DeviceNaming:    "chv-virtio-pci",
		// No in-place recovery path: cloud-hypervisor offers no
		// kexec-with-VM-preservation story, so a failed chv host can
		// only be failed over.
		Microreboot: false,
		VulnFlavor:  vulns.FlavorCHV,
	},
	Models: map[arch.DeviceClass]string{
		arch.DeviceNet:     "virtio-net-pci",
		arch.DeviceBlock:   "virtio-blk-pci",
		arch.DeviceConsole: "virtio-console-pci",
	},
	Check:  checkGSIs,
	Encode: encodeState,
	Decode: decodeState,
}

// checkGSIs rejects device bindings below FirstGSI: kvmtool-numbered
// bindings (GSIs from 16) must be renumbered by the translator before
// they load here.
func checkGSIs(st arch.MachineState) error {
	for _, b := range st.IRQChip.Pending {
		if b.Vector < FirstGSI {
			return fmt.Errorf("chv: binding %q on reserved GSI %d (devices start at %d)",
				b.Source, b.Vector, FirstGSI)
		}
	}
	return nil
}
