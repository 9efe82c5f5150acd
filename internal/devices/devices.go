// Package devices implements HERE's device manager (paper §5.2, §7.3):
// epoch-based buffering of the protected VM's outgoing network traffic,
// released only when the matching checkpoint is acknowledged by the
// replica, plus the failover-time device model switch from the primary
// hypervisor's models to the secondary's.
package devices

import (
	"fmt"
	"sync"
	"time"

	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/vclock"
)

// Epoch identifies one checkpoint interval's worth of buffered output.
type Epoch uint64

// Packet is one outgoing network packet of the protected VM.
type Packet struct {
	Seq      uint64        // monotonically increasing per buffer
	Size     int           // bytes on the wire
	Enqueued time.Time     // when the guest emitted it
	Released time.Time     // when the buffer released it (zero until then)
	Delay    time.Duration // Released − Enqueued, the replication-induced latency
	Payload  []byte        // optional payload for correctness checks
}

// IOBuffer buffers all outgoing I/O of a protected VM per checkpoint
// epoch (paper §3.2 step 6: buffered packets are sent to clients only
// once the corresponding checkpoint completes). It is safe for
// concurrent use.
type IOBuffer struct {
	clock vclock.Clock

	mu       sync.Mutex
	nextSeq  uint64
	curEpoch Epoch
	current  []Packet
	sealed   map[Epoch][]Packet
	released uint64 // packets released to clients
	dropped  uint64 // packets discarded at failover
}

// NewIOBuffer returns an empty buffer timed against clock.
func NewIOBuffer(clock vclock.Clock) *IOBuffer {
	return &IOBuffer{
		clock:  clock,
		sealed: make(map[Epoch][]Packet),
	}
}

// Buffer enqueues an outgoing packet into the current epoch and
// returns its sequence number.
func (b *IOBuffer) Buffer(size int, payload []byte) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	seq := b.nextSeq
	b.nextSeq++
	b.current = append(b.current, Packet{
		Seq:      seq,
		Size:     size,
		Enqueued: b.clock.Now(),
		Payload:  payload,
	})
	return seq
}

// SealEpoch closes the current epoch at a checkpoint pause and returns
// its id. Output buffered after this call belongs to the next epoch.
func (b *IOBuffer) SealEpoch() Epoch {
	b.mu.Lock()
	defer b.mu.Unlock()
	id := b.curEpoch
	b.sealed[id] = b.current
	b.current = nil
	b.curEpoch++
	return id
}

// Release returns, exactly once, every packet of sealed epochs up to
// and including acked, stamped with release time and delay. Epochs
// already released return nothing.
func (b *IOBuffer) Release(acked Epoch) []Packet {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.clock.Now()
	var out []Packet
	for e := Epoch(0); e <= acked; e++ {
		pkts, ok := b.sealed[e]
		if !ok {
			continue
		}
		delete(b.sealed, e)
		for i := range pkts {
			pkts[i].Released = now
			pkts[i].Delay = now.Sub(pkts[i].Enqueued)
		}
		out = append(out, pkts...)
	}
	b.released += uint64(len(out))
	return out
}

// DiscardUnreleased drops every sealed-but-unacked epoch and the
// current epoch, returning the number of packets discarded. Called at
// failover: the replica reverted to the last acknowledged checkpoint,
// so this output corresponds to execution that logically never
// happened — clients must never see it.
func (b *IOBuffer) DiscardUnreleased() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := len(b.current)
	for e, pkts := range b.sealed {
		n += len(pkts)
		delete(b.sealed, e)
	}
	b.current = nil
	b.dropped += uint64(n)
	return n
}

// Pending reports the number of buffered, unreleased packets.
func (b *IOBuffer) Pending() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := len(b.current)
	for _, pkts := range b.sealed {
		n += len(pkts)
	}
	return n
}

// Stats reports totals: packets released to clients and packets
// dropped at failover.
func (b *IOBuffer) Stats() (released, dropped uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.released, b.dropped
}

// GuestAgent receives migration events inside the guest, standing in
// for the paper's 150-line guest kernel module (§7.6) that performs
// safe device unplug/replug on failover.
type GuestAgent interface {
	// DeviceGone tells the guest a device model disappeared.
	DeviceGone(id, model string)
	// DeviceArrived tells the guest a new device model is available.
	DeviceArrived(id, model string)
}

// NopAgent ignores all notifications.
type NopAgent struct{}

// DeviceGone implements GuestAgent.
func (NopAgent) DeviceGone(string, string) {}

// DeviceArrived implements GuestAgent.
func (NopAgent) DeviceArrived(string, string) {}

// Manager performs the failover-time device switch on the replica VM
// (paper §7.3): instruct the guest to unplug the primary hypervisor's
// device models, then install the secondary's models for the same
// logical devices.
type Manager struct {
	agent GuestAgent
}

// NewManager returns a device manager notifying the given guest agent
// (NopAgent if nil).
func NewManager(agent GuestAgent) *Manager {
	if agent == nil {
		agent = NopAgent{}
	}
	return &Manager{agent: agent}
}

// FailoverReplug performs the guest-visible device switch when a
// replica activates (paper §7.3): even though the replica's host-side
// state already carries the destination's device models (the state
// translator rewrote them), the guest kernel still has the primary
// hypervisor's frontend drivers loaded. Each device is therefore
// unplugged and replugged through the guest agent, costing two
// DevicePlug periods per device.
func (m *Manager) FailoverReplug(vm *hypervisor.VM, dst hypervisor.Hypervisor) error {
	if vm.Running() {
		return fmt.Errorf("failover replug: vm %q is running", vm.Name())
	}
	costs := dst.Costs()
	clock := dst.Clock()
	for _, d := range vm.MachineState().Devices {
		m.agent.DeviceGone(d.ID, d.Model)
		clock.Sleep(costs.DevicePlug)
		m.agent.DeviceArrived(d.ID, d.Model)
		clock.Sleep(costs.DevicePlug)
	}
	return nil
}

// GuestKernel simulates the paper's in-guest kernel module (§7.6,
// ~150 lines of C in the prototype) that receives migration events
// from the device manager and performs safe device unplug/replug. It
// validates the protocol the module enforces: a device must be gone
// before a replacement arrives, and no device may vanish twice. It is
// safe for concurrent use.
type GuestKernel struct {
	mu       sync.Mutex
	attached map[string]string // device id → model
	events   []string
	violated error
}

var _ GuestAgent = (*GuestKernel)(nil)

// NewGuestKernel returns a guest module with the given devices
// initially attached (id → model).
func NewGuestKernel(attached map[string]string) *GuestKernel {
	m := make(map[string]string, len(attached))
	for id, model := range attached {
		m[id] = model
	}
	return &GuestKernel{attached: m}
}

// DeviceGone implements GuestAgent: the guest detaches the driver.
func (g *GuestKernel) DeviceGone(id, model string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.events = append(g.events, "gone:"+id+":"+model)
	if _, ok := g.attached[id]; !ok && g.violated == nil {
		g.violated = fmt.Errorf("guest kernel: unplug of unknown device %q", id)
		return
	}
	delete(g.attached, id)
}

// DeviceArrived implements GuestAgent: the guest probes the new model.
func (g *GuestKernel) DeviceArrived(id, model string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.events = append(g.events, "arrived:"+id+":"+model)
	if _, ok := g.attached[id]; ok && g.violated == nil {
		g.violated = fmt.Errorf("guest kernel: device %q arrived while still attached", id)
		return
	}
	g.attached[id] = model
}

// Attached reports the model currently bound to a device id, if any.
func (g *GuestKernel) Attached(id string) (string, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	model, ok := g.attached[id]
	return model, ok
}

// Events returns the ordered event log.
func (g *GuestKernel) Events() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]string(nil), g.events...)
}

// Err reports the first protocol violation observed, or nil.
func (g *GuestKernel) Err() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.violated
}
