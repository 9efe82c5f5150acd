package devices_test

import (
	"testing"
	"testing/quick"
	"time"

	"github.com/here-ft/here/internal/arch"
	"github.com/here-ft/here/internal/devices"
	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/kvm"
	"github.com/here-ft/here/internal/vclock"
	"github.com/here-ft/here/internal/xen"
)

func TestIOBufferReleaseOnAck(t *testing.T) {
	clk := vclock.NewSim()
	b := devices.NewIOBuffer(clk)

	b.Buffer(100, nil)
	clk.Advance(time.Second)
	b.Buffer(200, nil)
	e0 := b.SealEpoch()

	b.Buffer(300, nil) // next epoch
	if b.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", b.Pending())
	}

	clk.Advance(2 * time.Second)
	got := b.Release(e0)
	if len(got) != 2 {
		t.Fatalf("released %d packets, want 2", len(got))
	}
	if got[0].Size != 100 || got[1].Size != 200 {
		t.Fatalf("wrong packets released: %+v", got)
	}
	// First packet waited 3s (1s before seal + 2s until ack), second 2s.
	if got[0].Delay != 3*time.Second || got[1].Delay != 2*time.Second {
		t.Fatalf("delays = %v, %v", got[0].Delay, got[1].Delay)
	}
	if b.Pending() != 1 {
		t.Fatalf("Pending after release = %d, want 1", b.Pending())
	}
}

func TestIOBufferReleaseExactlyOnce(t *testing.T) {
	clk := vclock.NewSim()
	b := devices.NewIOBuffer(clk)
	b.Buffer(1, nil)
	e0 := b.SealEpoch()
	if got := b.Release(e0); len(got) != 1 {
		t.Fatalf("first release = %d packets", len(got))
	}
	if got := b.Release(e0); len(got) != 0 {
		t.Fatalf("second release = %d packets, want 0", len(got))
	}
}

func TestIOBufferCumulativeAck(t *testing.T) {
	clk := vclock.NewSim()
	b := devices.NewIOBuffer(clk)
	b.Buffer(1, nil)
	b.SealEpoch() // epoch 0
	b.Buffer(2, nil)
	b.SealEpoch() // epoch 1
	b.Buffer(3, nil)
	e2 := b.SealEpoch() // epoch 2
	// Acking epoch 2 releases all three epochs in order.
	got := b.Release(e2)
	if len(got) != 3 {
		t.Fatalf("released %d packets, want 3", len(got))
	}
	for i, p := range got {
		if p.Size != i+1 {
			t.Fatalf("packet order wrong: %+v", got)
		}
	}
}

func TestIOBufferDiscardUnreleased(t *testing.T) {
	clk := vclock.NewSim()
	b := devices.NewIOBuffer(clk)
	b.Buffer(1, nil)
	e0 := b.SealEpoch()
	b.Buffer(2, nil)
	b.SealEpoch() // epoch 1, never acked
	b.Buffer(3, nil)

	if got := b.Release(e0); len(got) != 1 {
		t.Fatalf("release = %d", len(got))
	}
	// Failover: epoch 1 (sealed) and the current epoch are discarded.
	if n := b.DiscardUnreleased(); n != 2 {
		t.Fatalf("discarded %d, want 2", n)
	}
	if b.Pending() != 0 {
		t.Fatal("buffer not empty after discard")
	}
	released, dropped := b.Stats()
	if released != 1 || dropped != 2 {
		t.Fatalf("Stats = (%d, %d)", released, dropped)
	}
}

func TestIOBufferSequencesMonotone(t *testing.T) {
	clk := vclock.NewSim()
	b := devices.NewIOBuffer(clk)
	var last uint64
	for i := 0; i < 100; i++ {
		seq := b.Buffer(1, nil)
		if i > 0 && seq <= last {
			t.Fatalf("sequence not monotone: %d after %d", seq, last)
		}
		last = seq
		if i%7 == 0 {
			b.SealEpoch()
		}
	}
}

// Property: no packet is ever both released and dropped, and every
// buffered packet is eventually exactly one of the two.
func TestIOBufferConservationProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		clk := vclock.NewSim()
		b := devices.NewIOBuffer(clk)
		buffered := 0
		var lastSealed devices.Epoch
		sealedAny := false
		releasedCount := 0
		for _, op := range ops {
			switch op % 4 {
			case 0, 1:
				b.Buffer(int(op), nil)
				buffered++
			case 2:
				lastSealed = b.SealEpoch()
				sealedAny = true
			case 3:
				if sealedAny {
					releasedCount += len(b.Release(lastSealed))
				}
			}
		}
		dropped := b.DiscardUnreleased()
		rel, drp := b.Stats()
		return releasedCount+dropped == buffered &&
			rel == uint64(releasedCount) && drp == uint64(dropped) &&
			b.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFailoverReplugRejectsRunningVM(t *testing.T) {
	clk := vclock.NewSim()
	xh, err := xen.New("a", clk)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := xh.CreateVM(hypervisor.VMConfig{Name: "vm", MemBytes: 1 << 20, VCPUs: 1})
	if err != nil {
		t.Fatal(err)
	}
	mgr := devices.NewManager(nil)
	if err := mgr.FailoverReplug(vm, xh); err == nil {
		t.Fatal("replug on running VM succeeded")
	}
}

func TestGuestKernelTracksReplug(t *testing.T) {
	g := devices.NewGuestKernel(map[string]string{"net0": "xen-netfront"})
	g.DeviceGone("net0", "xen-netfront")
	g.DeviceArrived("net0", "virtio-net")
	if err := g.Err(); err != nil {
		t.Fatal(err)
	}
	model, ok := g.Attached("net0")
	if !ok || model != "virtio-net" {
		t.Fatalf("attached = %q, %v", model, ok)
	}
	events := g.Events()
	if len(events) != 2 || events[0] != "gone:net0:xen-netfront" ||
		events[1] != "arrived:net0:virtio-net" {
		t.Fatalf("events = %v", events)
	}
}

func TestGuestKernelDetectsProtocolViolations(t *testing.T) {
	g := devices.NewGuestKernel(map[string]string{"net0": "xen-netfront"})
	g.DeviceArrived("net0", "virtio-net") // still attached!
	if g.Err() == nil {
		t.Fatal("double-attach not detected")
	}
	g2 := devices.NewGuestKernel(nil)
	g2.DeviceGone("ghost", "xen-netfront")
	if g2.Err() == nil {
		t.Fatal("unplug of unknown device not detected")
	}
}

func TestGuestKernelThroughFailoverReplug(t *testing.T) {
	clk := vclock.NewSim()
	xh, err := xen.New("a", clk)
	if err != nil {
		t.Fatal(err)
	}
	kh, err := kvm.New("b", clk)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := xh.CreateVM(hypervisor.VMConfig{
		Name: "vm", MemBytes: 1 << 20, VCPUs: 1,
		Devices: []hypervisor.DeviceSpec{
			{Class: arch.DeviceNet, ID: "net0"},
			{Class: arch.DeviceBlock, ID: "disk0"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	vm.Pause()
	guest := devices.NewGuestKernel(map[string]string{
		"net0":  "xen-netfront",
		"disk0": "xen-blkfront",
	})
	mgr := devices.NewManager(guest)
	// FailoverReplug on the same kinds still detaches and re-probes
	// each device once, in unplug-then-plug order.
	if err := mgr.FailoverReplug(vm, kh); err != nil {
		t.Fatal(err)
	}
	if err := guest.Err(); err != nil {
		t.Fatal(err)
	}
	if len(guest.Events()) != 4 {
		t.Fatalf("events = %v", guest.Events())
	}
}
