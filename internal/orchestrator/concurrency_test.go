package orchestrator_test

// Concurrency test for the manager's locking model: the control-plane
// daemon drives Tick from a pump goroutine while API handlers call
// Protect/Unprotect/Failover/SetPeriod/Status/Events concurrently.
// Run with -race (the Makefile's race target includes this package).

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/here-ft/here/internal/orchestrator"
)

func TestConcurrentAPIUnderTick(t *testing.T) {
	m, _, _ := fleet(t, "xxkk")
	stop := make(chan struct{})
	var bg, mut sync.WaitGroup

	// Pump: what the daemon's ticker goroutine does.
	bg.Add(1)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := m.Tick(); err != nil {
					t.Errorf("tick: %v", err)
					return
				}
			}
		}
	}()

	// Mutators: protect/tune/failover/unprotect churn, two workers on
	// disjoint VM names so their own errors are deterministic.
	for w := 0; w < 2; w++ {
		mut.Add(1)
		go func(w int) {
			defer mut.Done()
			for i := 0; i < 40; i++ {
				name := fmt.Sprintf("vm-%d-%d", w, i)
				if _, err := m.Protect(spec(name)); err != nil {
					// The other worker's protections occupy hosts too;
					// placement can transiently fail.
					if errors.Is(err, orchestrator.ErrNoHost) ||
						errors.Is(err, orchestrator.ErrNoHeterogeneous) {
						continue
					}
					t.Errorf("protect %s: %v", name, err)
					return
				}
				if _, err := m.SetPeriod(name, 0.2, 10*time.Second); err != nil {
					t.Errorf("set period %s: %v", name, err)
					return
				}
				if i%4 == 0 {
					if _, err := m.Failover(name); err != nil &&
						!errors.Is(err, orchestrator.ErrNoReplica) {
						t.Errorf("failover %s: %v", name, err)
						return
					}
				}
				if err := m.Unprotect(name); err != nil {
					t.Errorf("unprotect %s: %v", name, err)
					return
				}
			}
		}(w)
	}

	// Readers: what status/events/hosts handlers do per request.
	for r := 0; r < 3; r++ {
		bg.Add(1)
		go func() {
			defer bg.Done()
			var cursor uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, st := range m.StatusAll() {
					if st.Name == "" {
						t.Error("snapshot with empty name")
						return
					}
					// Getters on a possibly already-unprotected entry must
					// still be safe.
					if p, err := m.Lookup(st.Name); err == nil {
						_ = p.Primary()
						_ = p.Secondary()
						_ = p.Lost()
						_ = p.Tracer()
					}
				}
				for _, e := range m.EventsSince(cursor) {
					if e.Seq <= cursor {
						t.Errorf("event seq %d <= cursor %d", e.Seq, cursor)
						return
					}
					cursor = e.Seq
				}
				_ = m.HostsStatus()
				_ = m.Protections()
			}
		}()
	}

	mut.Wait()
	close(stop)
	bg.Wait()

	if n := len(m.Protections()); n != 0 {
		t.Fatalf("%d protections left after churn", n)
	}
	if len(m.EventsSince(0)) == 0 {
		t.Fatal("no events recorded by the churn")
	}
}
