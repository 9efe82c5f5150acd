// Package kvm simulates the paper's secondary hypervisor: Linux KVM
// with kvmtool as the userspace component (§7.1). It exposes
// virtio device models and IOAPIC/LAPIC interrupt delivery, and uses a
// kvmtool-style sectioned save format (big-endian, named sections,
// TSC stored in kHz as KVM_SET_TSC_KHZ does) — deliberately different
// from Xen's record stream in byte order, layout and units, so the
// state translator has real conversion work to do.
package kvm

import (
	"time"

	"github.com/here-ft/here/internal/arch"
	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/vclock"
	"github.com/here-ft/here/internal/vulns"
)

// Product is the simulated product string.
const Product = "KVM/kvmtool"

// Backend is the name this package registers under in the hypervisor
// backend registry.
const Backend = "kvm"

func init() {
	hypervisor.Register(Backend, New)
}

// New returns a host machine running the simulated KVM hypervisor.
func New(hostName string, clock vclock.Clock) (*hypervisor.Host, error) {
	return hypervisor.NewHost(flavor, hostName, clock)
}

// Flavor returns a copy of the kvmtool flavor for backends that differ
// from it in a field or two (internal/qemukvm changes only its product
// identity).
func Flavor() hypervisor.Flavor { return flavor }

// Features reports the CPUID feature set the simulated KVM/kvmtool
// exposes. kvmtool exposes x2APIC and TSC-deadline but masks
// PCID/INVPCID, so the intersection with Xen is a strict subset of
// both hosts' sets.
func Features() arch.FeatureSet {
	return arch.NewFeatureSet(
		arch.FeatureFPU, arch.FeatureSSE, arch.FeatureSSE2, arch.FeatureSSE3,
		arch.FeatureSSSE3, arch.FeatureSSE41, arch.FeatureSSE42, arch.FeatureAVX,
		arch.FeatureAVX2, arch.FeatureAES, arch.FeatureRDRAND, arch.FeatureRDTSCP,
		arch.FeatureXSAVE, arch.FeatureFSGSBASE, arch.FeatureX2APIC,
		arch.FeatureTSCDeadline, arch.FeatureHypervisor,
	)
}

// FirstGSI is the first IOAPIC interrupt line assigned to virtio
// devices; lines below are legacy ISA interrupts.
const FirstGSI = 16

var flavor = hypervisor.Flavor{
	Kind:     hypervisor.KindKVM,
	Product:  Product,
	Features: Features(),
	// kvmtool's thin userspace makes pause/resume and device plug
	// cheap — this is why the paper measures replica resumption in
	// single-digit milliseconds (Fig 7) and attributes it to "the more
	// efficient userspace component kvmtool".
	Costs: hypervisor.CostModel{
		PauseVM:              150 * time.Microsecond,
		ResumeVM:             350 * time.Microsecond,
		DevicePlug:           1200 * time.Microsecond,
		ScanPerPage:          6 * time.Nanosecond,
		MapPerDirtyPage:      420 * time.Nanosecond,
		CopyPerDirtyPage:     150 * time.Nanosecond,
		MigratePerPage:       1400 * time.Nanosecond,
		ResumeWarmup:         40 * time.Millisecond,
		CompressPerDirtyPage: 2 * time.Microsecond,
		StateRecord:          250 * time.Microsecond,
	},
	// Sectioned kvmtool save images, PML-fed per-vCPU dirty rings,
	// full snapshot/restore, IOAPIC GSIs from FirstGSI, virtio device
	// naming, and the kvm-core-only CVE surface that makes it the
	// paper's secondary of choice.
	Caps: hypervisor.Capabilities{
		StateFormat:  "kvmtool-sections",
		StateVersion: 2,
		DirtyTracking: hypervisor.DirtyTracking{
			Mechanism: "pml-dirty-ring",
			PageBytes: memory.PageSize,
		},
		SnapshotRestore: true,
		LiveDirtyLog:    true,
		IRQChip:         arch.IRQChipIOAPIC,
		FirstVector:     FirstGSI,
		DeviceNaming:    "kvmtool-virtio",
		// kexec-based in-place kernel reboot with guest RAM preserved.
		Microreboot: true,
		VulnFlavor:  vulns.FlavorKVM,
	},
	Models: map[arch.DeviceClass]string{
		arch.DeviceNet:     "virtio-net",
		arch.DeviceBlock:   "virtio-blk",
		arch.DeviceConsole: "virtio-console",
	},
	Encode: encodeState,
	Decode: decodeState,
}
