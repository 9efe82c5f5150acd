package main

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"github.com/here-ft/here/internal/controlplane"
	"github.com/here-ft/here/internal/fleet"
	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/journal"
	"github.com/here-ft/here/internal/kvm"
	"github.com/here-ft/here/internal/orchestrator"
	"github.com/here-ft/here/internal/replication"
	"github.com/here-ft/here/internal/trace"
	"github.com/here-ft/here/internal/transport"
	"github.com/here-ft/here/internal/vclock"
	"github.com/here-ft/here/internal/xen"
)

// stack is the system under test, assembled the way cmd/hered/main.go
// assembles a daemon: a virtual clock (so modeled Costs sleeps take no
// wall time and every measurement is wall time of Go code), a metrics
// registry, a journal on the real filesystem, a sharded fleet and the
// control-plane handler. TCP workloads add node B — a second daemon's
// fleet plus its peer transport listener on loopback — and node A then
// dials one streaming client per protection, as hered -peer does.
type stack struct {
	wl  Workload
	dir string

	// Node A. The hosts outlive daemon restarts: a crash of the control
	// plane leaves the hypervisors and their guests running.
	clock *vclock.SimClock
	reg   *trace.Registry
	hosts []*hypervisor.Host
	store *journal.Store
	sched *fleet.Scheduler
	api   http.Handler

	// Node B (TCP workloads only).
	nodeB *fleet.Scheduler
	peer  *transport.Server

	// Every client node A's DialTransport handed out; closing them is
	// the transport half of killing the daemon. DialTransport runs on
	// the placement groups' goroutines, hence the lock.
	mu      sync.Mutex
	clients []*transport.Client
}

// bootTimes is what one daemon start cost, stage by stage.
type bootTimes struct {
	open    time.Duration // journal.Open: snapshot load + log replay
	recover time.Duration // Recover()
	replay  journal.Report
	report  orchestrator.RecoverReport
}

func newHosts(clock vclock.Clock, prefix string) ([]*hypervisor.Host, error) {
	var hosts []*hypervisor.Host
	for i := 0; i < hostsPerKind; i++ {
		h, err := xen.New(fmt.Sprintf("%sxen%d", prefix, i), clock)
		if err != nil {
			return nil, err
		}
		hosts = append(hosts, h)
	}
	for i := 0; i < hostsPerKind; i++ {
		h, err := kvm.New(fmt.Sprintf("%skvm%d", prefix, i), clock)
		if err != nil {
			return nil, err
		}
		hosts = append(hosts, h)
	}
	return hosts, nil
}

// newStack builds node B (when the workload has one), node A's hosts,
// and boots node A on an empty state directory.
func newStack(wl Workload, dir string) (*stack, error) {
	s := &stack{wl: wl, dir: dir, clock: vclock.NewSim(), reg: trace.NewRegistry()}
	if wl.TCP {
		clockB := vclock.NewSim()
		regB := trace.NewRegistry()
		nodeB, err := fleet.New(fleet.Config{Groups: 1, Orchestrator: orchestrator.Config{
			Clock: clockB, Metrics: regB,
		}})
		if err != nil {
			return nil, err
		}
		hostsB, err := newHosts(clockB, "b-")
		if err != nil {
			return nil, err
		}
		for _, h := range hostsB {
			if err := nodeB.AddHost(h); err != nil {
				return nil, err
			}
		}
		peer := transport.NewServer(transport.ServerConfig{Fence: nodeB.Guard(), Metrics: regB})
		if err := peer.Listen("127.0.0.1:0"); err != nil {
			return nil, err
		}
		nodeB.AttachPeerServer(peer)
		s.nodeB, s.peer = nodeB, peer
	}
	hosts, err := newHosts(s.clock, "")
	if err != nil {
		s.close()
		return nil, err
	}
	s.hosts = hosts
	if _, err := s.boot(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// boot starts node A's daemon on whatever the state directory holds:
// journal.Open, fleet.New, AddHost for every host, Recover() — hered's
// start-up sequence — and then mounts the control-plane handler.
func (s *stack) boot() (bootTimes, error) {
	var bt bootTimes
	t0 := time.Now()
	store, report, err := journal.Open(s.dir, journal.Options{GroupCommit: s.wl.Groups > 1})
	if err != nil {
		return bt, fmt.Errorf("state-dir: %w", err)
	}
	bt.open, bt.replay = time.Since(t0), report
	s.store = store

	cfg := orchestrator.Config{Clock: s.clock, Metrics: s.reg, Journal: store}
	if s.wl.TCP {
		addr := s.peer.Addr()
		cfg.DialTransport = func(name string, memBytes, generation uint64) (replication.Transport, error) {
			c, err := transport.Dial(transport.ClientConfig{
				Addr: addr, Protection: name, MemBytes: memBytes,
				Generation: generation, Metrics: s.reg,
			})
			if err != nil {
				return nil, err
			}
			s.mu.Lock()
			s.clients = append(s.clients, c)
			s.mu.Unlock()
			return c, nil
		}
	}
	sched, err := fleet.New(fleet.Config{Groups: s.wl.Groups, Orchestrator: cfg})
	if err != nil {
		return bt, err
	}
	for _, h := range s.hosts {
		if err := sched.AddHost(h); err != nil {
			return bt, err
		}
	}
	s.sched = sched

	t2 := time.Now()
	bt.report, err = sched.Recover()
	if err != nil {
		return bt, fmt.Errorf("recover: %w", err)
	}
	bt.recover = time.Since(t2)

	srv, err := controlplane.New(controlplane.Config{Manager: sched, Journal: store})
	if err != nil {
		return bt, err
	}
	s.api = srv.Handler()
	return bt, nil
}

// crash kills node A's daemon the way kill -9 would: its TCP
// connections and its journal file handle close, nothing is synced,
// compacted or snapshotted. The hosts, their guests and the replica
// deposits parked on them stay, as does node B.
func (s *stack) crash() error {
	s.mu.Lock()
	clients := s.clients
	s.clients = nil
	s.mu.Unlock()
	for _, c := range clients {
		_ = c.Close() // tearing down: nothing to do about a close error
	}
	s.sched, s.api = nil, nil
	if s.store == nil {
		return nil
	}
	err := s.store.Close()
	s.store = nil
	return err
}

// close tears the whole stack down (both nodes).
func (s *stack) close() {
	_ = s.crash() // tearing down: the state directory is removed next
	if s.peer != nil {
		_ = s.peer.Close()
	}
}

// host returns node A's host of that name.
func (s *stack) host(name string) *hypervisor.Host {
	for _, h := range s.hosts {
		if h.HostName() == name {
			return h
		}
	}
	return nil
}
