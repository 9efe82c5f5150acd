package vulns

import "testing"

// TestOverlapPinsPaperNumbers pins the §8.2 pair-scoring to the
// published Table 1 DoS-only counts: the QEMU device model contributes
// 192 shared DoS CVEs to any pair of deployments that both ship it,
// kvm-core contributes 38 to any pair of KVM-based deployments, and a
// Xen↔kvmtool (or Xen↔cloud-hypervisor) pair shares nothing.
func TestOverlapPinsPaperNumbers(t *testing.T) {
	tests := []struct {
		a, b Flavor
		want int
	}{
		// The rejected pairing: Xen HVM and QEMU-KVM both embed QEMU.
		{FlavorXen, FlavorQEMUKVM, 192},
		// The paper's chosen pairing: disjoint code bases.
		{FlavorXen, FlavorKVM, 0},
		{FlavorXen, FlavorCHV, 0},
		// KVM-based deployments share the kernel module.
		{FlavorKVM, FlavorQEMUKVM, 38},
		{FlavorKVM, FlavorCHV, 38},
		{FlavorQEMUKVM, FlavorCHV, 38},
		// Self-pairings expose the full own DoS surface.
		{FlavorXen, FlavorXen, 152 + 192},
		{FlavorKVM, FlavorKVM, 38},
		{FlavorQEMUKVM, FlavorQEMUKVM, 38 + 192},
		{FlavorCHV, FlavorCHV, 38},
	}
	for _, tc := range tests {
		if got := Overlap(tc.a, tc.b); got != tc.want {
			t.Errorf("Overlap(%s, %s) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
		// Overlap is symmetric by construction; pin that too.
		if got := Overlap(tc.b, tc.a); got != tc.want {
			t.Errorf("Overlap(%s, %s) = %d, want %d", tc.b, tc.a, got, tc.want)
		}
	}
}

// TestOverlapMatchesDataset cross-checks the memoized per-component
// counts against a direct scan of the dataset using CVE.Affects-style
// membership, so the helper and the exploit engine cannot drift apart.
func TestOverlapMatchesDataset(t *testing.T) {
	for _, a := range Flavors() {
		for _, b := range Flavors() {
			want := 0
			for _, c := range Dataset() {
				if !c.DoSOnly {
					continue
				}
				if componentIn(c.Component, a.Components()) && componentIn(c.Component, b.Components()) {
					want++
				}
			}
			if got := Overlap(a, b); got != want {
				t.Errorf("Overlap(%s, %s) = %d, dataset scan says %d", a, b, got, want)
			}
		}
	}
}

func componentIn(c Component, set []Component) bool {
	for _, s := range set {
		if s == c {
			return true
		}
	}
	return false
}

func TestFlavorComponents(t *testing.T) {
	shared := SharedComponents(FlavorXen, FlavorQEMUKVM)
	if len(shared) != 1 || shared[0] != CompQEMU {
		t.Fatalf("SharedComponents(xen, qemu-kvm) = %v, want [qemu]", shared)
	}
	if got := SharedComponents(FlavorXen, FlavorCHV); len(got) != 0 {
		t.Fatalf("SharedComponents(xen, chv) = %v, want none", got)
	}
}
