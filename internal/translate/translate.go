// Package translate implements HERE's state translator (paper §5.3,
// §7.4): converting the replicable machine state of a VM from one
// hypervisor's native representation into another's, via the common
// format defined in internal/arch.
//
// Translation covers CPU registers (copied via the common format),
// timers (including TSC frequency granularity differences between the
// two native codecs), interrupt controllers (Xen event-channel ports ↔
// IOAPIC GSIs), virtual device models (PV ↔ virtio), and CPUID feature
// compatibility masking.
package translate

import (
	"errors"
	"fmt"

	"github.com/here-ft/here/internal/arch"
	"github.com/here-ft/here/internal/hypervisor"
)

// Errors reported by the translator.
var (
	// ErrFeatureMismatch means the guest was booted with CPUID features
	// the destination hypervisor cannot provide and feature masking was
	// not enabled. HERE avoids this by booting protected VMs with the
	// feature intersection (CompatibleFeaturesAll) up front.
	ErrFeatureMismatch = errors.New("translate: guest features unsupported on destination")
	// ErrDeviceBusy means a device still has in-flight requests; the
	// device manager must quiesce devices before state translation.
	ErrDeviceBusy = errors.New("translate: device has in-flight requests")
)

// Options tunes a translation.
type Options struct {
	// MaskFeatures silently drops CPUID features the destination does
	// not support instead of failing. Unsafe for a live guest (a
	// running kernel may already rely on a dropped feature), so HERE
	// only uses it for offline conversions.
	MaskFeatures bool
}

// CompatibleFeaturesAll reports the CPUID feature set a protected VM
// must be booted with so it can resume on any of hosts: the
// intersection of their feature sets (paper §7.4). For a chain, hosts
// are the primary and every secondary, so the guest can resume on
// whichever replica survives.
func CompatibleFeaturesAll(hosts ...hypervisor.Hypervisor) arch.FeatureSet {
	if len(hosts) == 0 {
		return 0
	}
	fs := hosts[0].Features()
	for _, h := range hosts[1:] {
		fs = fs.Intersect(h.Features())
	}
	return fs
}

// Translate converts machine state from the src hypervisor's native
// flavor to the dst hypervisor's. src==dst kinds yields a validated
// deep copy. The input is never modified.
func Translate(st arch.MachineState, src, dst hypervisor.Hypervisor, opts Options) (arch.MachineState, error) {
	if err := st.Validate(); err != nil {
		return arch.MachineState{}, fmt.Errorf("translate: source state: %w", err)
	}
	out := st.Clone()

	// CPUID feature compatibility (§7.4).
	if !out.Features.IsSubsetOf(dst.Features()) {
		if !opts.MaskFeatures {
			missing := out.Features &^ dst.Features()
			return arch.MachineState{}, fmt.Errorf("%w: missing %v on %s",
				ErrFeatureMismatch, missing, dst.Product())
		}
		out.Features = out.Features.Intersect(dst.Features())
	}

	// Device model switch (§5.2): same logical devices, destination-
	// native models. Devices must be quiescent.
	for i := range out.Devices {
		d := &out.Devices[i]
		if d.InFlight != 0 {
			return arch.MachineState{}, fmt.Errorf("%w: device %q has %d requests",
				ErrDeviceBusy, d.ID, d.InFlight)
		}
		model, err := dst.DeviceModel(d.Class)
		if err != nil {
			return arch.MachineState{}, fmt.Errorf("translate: device %q: %w", d.ID, err)
		}
		d.Model = model
	}

	// Interrupt controller conversion: rebind every interrupt source
	// onto the destination's delivery mechanism, preserving source
	// association, ordering and mask state. The destination's
	// capabilities name its platform and first device vector.
	caps := dst.Capabilities()
	out.IRQChip.Kind = caps.IRQChip
	for i := range out.IRQChip.Pending {
		out.IRQChip.Pending[i].Vector = caps.FirstVector + uint32(i)
	}

	// vCPU registers and timers transfer through the common format
	// unchanged; the native codecs handle representation differences
	// (e.g. KVM's kHz-granular TSC frequency).
	return out, nil
}

// TranslateImage converts a native save image from src's wire format
// into dst's: decode, translate, re-encode. This is the full path a
// checkpoint's vCPU/device record takes across the replication link.
func TranslateImage(image []byte, src, dst hypervisor.Hypervisor, opts Options) ([]byte, error) {
	st, err := src.DecodeState(image)
	if err != nil {
		return nil, fmt.Errorf("translate image: decode %s: %w", src.Product(), err)
	}
	out, err := Translate(st, src, dst, opts)
	if err != nil {
		return nil, err
	}
	encoded, err := dst.EncodeState(out)
	if err != nil {
		return nil, fmt.Errorf("translate image: encode %s: %w", dst.Product(), err)
	}
	return encoded, nil
}
