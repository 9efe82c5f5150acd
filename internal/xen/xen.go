// Package xen simulates the paper's primary hypervisor: Xen 4.12, a
// type-1 hypervisor exposing paravirtualized (PV) device models and
// event-channel interrupt delivery, with a libxc-style record-based
// save format (little-endian type/length/value records, as produced by
// xc_domain_save).
package xen

import (
	"time"

	"github.com/here-ft/here/internal/arch"
	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/vclock"
	"github.com/here-ft/here/internal/vulns"
)

// Product is the simulated product string.
const Product = "Xen 4.12"

// Backend is the name this package registers under in the hypervisor
// backend registry.
const Backend = "xen"

func init() {
	hypervisor.Register(Backend, New)
}

// New returns a host machine running the simulated Xen hypervisor.
func New(hostName string, clock vclock.Clock) (*hypervisor.Host, error) {
	return hypervisor.NewHost(flavor, hostName, clock)
}

// Features reports the CPUID feature set the simulated Xen exposes to
// HVM/PV guests. Xen exposes PCID/INVPCID but not x2APIC to PV-style
// guests, so the heterogeneous feature intersection with KVM is a
// strict subset of both (paper §7.4).
func Features() arch.FeatureSet {
	return arch.NewFeatureSet(
		arch.FeatureFPU, arch.FeatureSSE, arch.FeatureSSE2, arch.FeatureSSE3,
		arch.FeatureSSSE3, arch.FeatureSSE41, arch.FeatureSSE42, arch.FeatureAVX,
		arch.FeatureAVX2, arch.FeatureAES, arch.FeatureRDRAND, arch.FeatureRDTSCP,
		arch.FeatureXSAVE, arch.FeatureFSGSBASE, arch.FeaturePCID,
		arch.FeatureINVPCID, arch.FeatureHypervisor,
	)
}

var flavor = hypervisor.Flavor{
	Kind:     hypervisor.KindXen,
	Product:  Product,
	Features: Features(),
	// The per-page mapping cost reflects the serialized privcmd
	// foreign-mapping path; the scan cost reflects walking the
	// log-dirty bitmap; state records go through xl/libxl which is
	// comparatively heavyweight.
	Costs: hypervisor.CostModel{
		PauseVM:              300 * time.Microsecond,
		ResumeVM:             900 * time.Microsecond,
		DevicePlug:           2500 * time.Microsecond,
		ScanPerPage:          7 * time.Nanosecond,
		MapPerDirtyPage:      470 * time.Nanosecond,
		CopyPerDirtyPage:     160 * time.Nanosecond,
		MigratePerPage:       1500 * time.Nanosecond,
		ResumeWarmup:         50 * time.Millisecond,
		CompressPerDirtyPage: 2 * time.Microsecond,
		StateRecord:          700 * time.Microsecond,
	},
	// libxc record stream, the hypervisor-maintained log-dirty bitmap,
	// full snapshot/restore, PV event channels from port 1 (port 0 is
	// reserved), PV device naming, and the Xen+QEMU CVE surface.
	Caps: hypervisor.Capabilities{
		StateFormat:  "xen-libxc-records",
		StateVersion: 1,
		DirtyTracking: hypervisor.DirtyTracking{
			Mechanism: "log-dirty-bitmap",
			PageBytes: memory.PageSize,
		},
		SnapshotRestore: true,
		LiveDirtyLog:    true,
		IRQChip:         arch.IRQChipEventChannel,
		FirstVector:     1,
		DeviceNaming:    "xen-pv",
		// ReHype's original host: the hypervisor microreboots while
		// dom0 and guest memory stay resident.
		Microreboot: true,
		VulnFlavor:  vulns.FlavorXen,
	},
	Models: map[arch.DeviceClass]string{
		arch.DeviceNet:     "xen-netfront",
		arch.DeviceBlock:   "xen-blkfront",
		arch.DeviceConsole: "xen-console",
	},
	Encode: encodeState,
	Decode: decodeState,
}
