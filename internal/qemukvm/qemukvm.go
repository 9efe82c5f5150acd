// Package qemukvm simulates the hypervisor pairing the paper
// deliberately rejected (§8.2): KVM with QEMU as the userspace device
// model. It is functionally equivalent to the kvmtool-based host —
// same virtio devices, same save format, same costs — but its code
// base includes QEMU, which Xen HVM deployments also use for device
// emulation. A single QEMU device-model vulnerability (the paper
// cites CVE-2015-3456, "VENOM") therefore takes down BOTH sides of a
// Xen → QEMU-KVM pair, defeating the purpose of heterogeneous
// replication. HERE pairs Xen with kvmtool instead; this package
// exists to demonstrate why, end to end.
package qemukvm

import (
	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/kvm"
	"github.com/here-ft/here/internal/vclock"
	"github.com/here-ft/here/internal/vulns"
)

// Product is the simulated product string. The vulnerability model
// reads the flavor, not this string: exploit.ProductOf maps
// vulns.FlavorQEMUKVM to vulns.QEMUKVM, so QEMU component
// vulnerabilities apply to hosts running it.
const Product = "QEMU-KVM 6.2"

// Backend is the name this package registers under in the hypervisor
// backend registry.
const Backend = "qemukvm"

func init() {
	hypervisor.Register(Backend, New)
}

// New returns a host machine running KVM with the QEMU device model.
func New(hostName string, clock vclock.Clock) (*hypervisor.Host, error) {
	return hypervisor.NewHost(flavor(), hostName, clock)
}

// flavor is the kvmtool flavor with its product identity swapped: the
// same devices, save format and costs, but the device naming and the
// CVE surface of the QEMU userspace, which drags the entire QEMU
// vulnerability history into this deployment — exactly what the
// placement engine scores against.
func flavor() hypervisor.Flavor {
	f := kvm.Flavor()
	f.Product = Product
	f.Caps.DeviceNaming = "qemu-virtio"
	f.Caps.VulnFlavor = vulns.FlavorQEMUKVM
	return f
}
