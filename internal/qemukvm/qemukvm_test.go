package qemukvm_test

import (
	"testing"
	"time"

	"github.com/here-ft/here/internal/exploit"
	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/kvm"
	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/qemukvm"
	"github.com/here-ft/here/internal/replication"
	"github.com/here-ft/here/internal/simnet"
	"github.com/here-ft/here/internal/translate"
	"github.com/here-ft/here/internal/vclock"
	"github.com/here-ft/here/internal/vulns"
	"github.com/here-ft/here/internal/xen"
)

func TestIdentity(t *testing.T) {
	h, err := qemukvm.New("q", vclock.NewSim())
	if err != nil {
		t.Fatal(err)
	}
	if h.Kind() != hypervisor.KindKVM {
		t.Fatalf("Kind = %v", h.Kind())
	}
	if h.Product() != qemukvm.Product {
		t.Fatalf("Product = %q", h.Product())
	}
	if exploit.ProductOf(h) != vulns.QEMUKVM {
		t.Fatalf("ProductOf = %v", exploit.ProductOf(h))
	}
	// Everything else matches kvmtool.
	clk := vclock.NewSim()
	kh, err := kvm.New("k", clk)
	if err != nil {
		t.Fatal(err)
	}
	if h.Features() != kh.Features() {
		t.Fatal("feature set differs from kvmtool")
	}
	if h.Costs() != kh.Costs() {
		t.Fatal("cost model differs from kvmtool")
	}
}

// TestVENOMScenario is §8.2's "benefits of heterogeneity" paragraph,
// executed: a QEMU device-model CVE kills BOTH hosts of a
// Xen → QEMU-KVM pair (Xen HVM also runs QEMU), while the paper's
// Xen → kvmtool pairing survives the same exploit.
func TestVENOMScenario(t *testing.T) {
	venomCVE, err := exploit.FirstDoS(vulns.Dataset(), vulns.QEMU)
	if err != nil {
		t.Fatal(err)
	}
	venom, err := exploit.New(venomCVE)
	if err != nil {
		t.Fatal(err)
	}

	clk := vclock.NewSim()
	xa, err := xen.New("xen-a", clk)
	if err != nil {
		t.Fatal(err)
	}
	qb, err := qemukvm.New("qemukvm-b", clk)
	if err != nil {
		t.Fatal(err)
	}
	bad := exploit.RunCampaign([]exploit.Exploit{venom}, xa, qb)
	if bad.HostsDowned != 2 || bad.ServiceSurvived {
		t.Fatalf("Xen→QEMU-KVM should fall to one QEMU CVE: %+v", bad)
	}

	clk2 := vclock.NewSim()
	xa2, err := xen.New("xen-a", clk2)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := kvm.New("kvmtool-b", clk2)
	if err != nil {
		t.Fatal(err)
	}
	good := exploit.RunCampaign([]exploit.Exploit{venom}, xa2, kb)
	if good.HostsDowned != 1 || !good.ServiceSurvived {
		t.Fatalf("Xen→kvmtool should survive the QEMU CVE: %+v", good)
	}
}

// Replication onto a QEMU-KVM secondary works exactly like kvmtool —
// the difference is purely the vulnerability surface.
func TestReplicationOntoQEMUKVM(t *testing.T) {
	clk := vclock.NewSim()
	xh, err := xen.New("a", clk)
	if err != nil {
		t.Fatal(err)
	}
	qh, err := qemukvm.New("b", clk)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := xh.CreateVM(hypervisor.VMConfig{
		Name: "vm", MemBytes: 512 * memory.PageSize, VCPUs: 2,
		Features: translate.CompatibleFeaturesAll(xh, qh),
	})
	if err != nil {
		t.Fatal(err)
	}
	link, err := simnet.NewLink(simnet.OmniPath100(), clk)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := replication.NewChain(vm, []replication.Secondary{{Host: qh, Transport: link}}, replication.Config{
		Engine: replication.EngineHERE, Period: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep.Seed(); err != nil {
		t.Fatal(err)
	}
	if _, err := rep.RunCycle(); err != nil {
		t.Fatal(err)
	}
	_, mem, err := rep.ReplicaImage()
	if err != nil {
		t.Fatal(err)
	}
	if mem.Hash() != vm.Memory().Hash() {
		t.Fatal("replica diverged")
	}
}
