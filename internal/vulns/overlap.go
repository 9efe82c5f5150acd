package vulns

import (
	"sort"
	"sync"
)

// Flavor identifies a concrete hypervisor deployment — the combination
// of kernel-side hypervisor and userspace VMM actually running on a
// host. Products (Table 1) are where CVEs are filed; flavors are what
// placement reasons about: a deployment is exposed to every CVE filed
// against any component in its stack (§8.2).
type Flavor string

// The deployment flavors of the simulated fleet.
const (
	// FlavorXen is Xen with the QEMU HVM device model.
	FlavorXen Flavor = "xen"
	// FlavorKVM is KVM with the kvmtool userspace — the paper's chosen
	// secondary, precisely because it carries no QEMU code.
	FlavorKVM Flavor = "kvm-kvmtool"
	// FlavorQEMUKVM is KVM with the QEMU userspace — the pairing §8.2
	// rejects for Xen primaries.
	FlavorQEMUKVM Flavor = "qemu-kvm"
	// FlavorCHV is KVM with a rust-vmm style VMM (cloud-hypervisor):
	// kvm-core bugs apply, QEMU and kvmtool bugs do not.
	FlavorCHV Flavor = "cloud-hypervisor"
)

// CompCHV is the cloud-hypervisor VMM code base. The study period
// (2013–2020) predates any published CVE volume for it, so the dataset
// holds no records against it — its entire shared surface with other
// flavors is kvm-core.
const CompCHV Component = "chv-vmm"

// flavorComponents maps each deployment flavor to the components whose
// vulnerabilities affect it.
var flavorComponents = map[Flavor][]Component{
	FlavorXen:     {CompXenCore, CompQEMU},
	FlavorKVM:     {CompKVMCore, CompKVMTool},
	FlavorQEMUKVM: {CompKVMCore, CompQEMU},
	FlavorCHV:     {CompKVMCore, CompCHV},
}

// flavorProducts maps each deployment flavor to the product family
// whose Table 1 rows it runs: cloud-hypervisor runs the KVM core.
var flavorProducts = map[Flavor]Product{
	FlavorXen:     Xen,
	FlavorKVM:     KVM,
	FlavorQEMUKVM: QEMUKVM,
	FlavorCHV:     KVM,
}

// Product reports the product family of this deployment in the
// vulnerability study.
func (f Flavor) Product() Product { return flavorProducts[f] }

// Flavors lists the known deployment flavors, sorted.
func Flavors() []Flavor {
	out := make([]Flavor, 0, len(flavorComponents))
	for f := range flavorComponents {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Components lists the code bases whose vulnerabilities affect this
// deployment.
func (f Flavor) Components() []Component {
	return append([]Component(nil), flavorComponents[f]...)
}

// SharedComponents lists the code bases two deployments have in
// common — the channel through which one exploit can take down both
// replicas of a pair.
func SharedComponents(a, b Flavor) []Component {
	var out []Component
	for _, ca := range flavorComponents[a] {
		for _, cb := range flavorComponents[b] {
			if ca == cb {
				out = append(out, ca)
			}
		}
	}
	return out
}

// dosByComponent counts the dataset's DoS-only CVEs per component,
// computed once — Overlap is called per candidate pair on every
// placement decision.
var (
	dosOnce        sync.Once
	dosByComponent map[Component]int
)

func dosCounts() map[Component]int {
	dosOnce.Do(func() {
		dosByComponent = make(map[Component]int)
		for _, c := range Dataset() {
			if c.DoSOnly {
				dosByComponent[c.Component]++
			}
		}
	})
	return dosByComponent
}

// Overlap counts the DoS-only CVEs of the study that affect BOTH
// deployments — the number of single exploits that could take down a
// primary of flavor a and a secondary of flavor b at once. This is the
// §8.2 argument quantified: Xen↔QEMU-KVM share the full QEMU DoS
// surface (192 CVEs), while Xen↔kvmtool share nothing. Lower is
// better; zero is a fully heterogeneous pairing.
func Overlap(a, b Flavor) int {
	counts := dosCounts()
	total := 0
	for _, comp := range SharedComponents(a, b) {
		total += counts[comp]
	}
	return total
}
