package recovery

import (
	"math"
	"testing"
	"time"

	"github.com/here-ft/here/internal/hypervisor"
)

func TestClassify(t *testing.T) {
	able := hypervisor.Capabilities{Microreboot: true}
	unable := hypervisor.Capabilities{}
	pol := Policy{Deadline: 2 * time.Second, MaxAttempts: 3, Backoff: 250 * time.Millisecond, Jitter: 0.5}
	off := Policy{}

	cases := []struct {
		name   string
		health hypervisor.HealthState
		caps   hypervisor.Capabilities
		pol    Policy
		want   Decision
	}{
		{"disabled policy always fails over", hypervisor.Hung, able, off, Failover},
		{"disabled policy even for starvation", hypervisor.Starved, able, off, Failover},
		{"starved recovers in place without microreboot", hypervisor.Starved, unable, pol, Unstarve},
		{"hung + capable microreboots", hypervisor.Hung, able, pol, Microreboot},
		{"crashed + capable microreboots", hypervisor.Crashed, able, pol, Microreboot},
		{"hung without capability fails over", hypervisor.Hung, unable, pol, Failover},
		{"crashed without capability fails over", hypervisor.Crashed, unable, pol, Failover},
		{"healthy is not recoverable", hypervisor.Healthy, able, pol, Failover},
	}
	for _, c := range cases {
		if got := Classify(c.health, c.caps, c.pol); got != c.want {
			t.Errorf("%s: Classify = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestPolicyValidate(t *testing.T) {
	if err := (Policy{Deadline: 2 * time.Second, MaxAttempts: 3, Backoff: 250 * time.Millisecond, Jitter: 0.5}).Validate(); err != nil {
		t.Fatalf("enabled policy invalid: %v", err)
	}
	if err := (Policy{}).Validate(); err != nil {
		t.Fatalf("zero policy invalid: %v", err)
	}
	bad := []Policy{
		{Deadline: -time.Second},
		{MaxAttempts: -1},
		{Backoff: -time.Millisecond},
		{Jitter: -0.1},
		{Jitter: 1.5},
		{Jitter: math.NaN()},
		{Jitter: math.Inf(1)},
		{Jitter: math.Inf(-1)},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad policy %d validated", i)
		}
	}
}

func TestMachineAttemptBudget(t *testing.T) {
	start := time.Unix(1000, 0)
	m := NewMachine(Policy{MaxAttempts: 3, Backoff: 10 * time.Millisecond}, start, 1)
	for i := 0; i < 3; i++ {
		if !m.Begin(start) {
			t.Fatalf("attempt %d refused under budget 3", i+1)
		}
	}
	if m.Begin(start) {
		t.Fatal("fourth attempt allowed under budget 3")
	}
	if m.Attempts() != 3 {
		t.Fatalf("Attempts = %d, want 3", m.Attempts())
	}
}

func TestMachineDeadline(t *testing.T) {
	start := time.Unix(1000, 0)
	pol := Policy{MaxAttempts: 100, Deadline: time.Second, Backoff: 10 * time.Millisecond}
	m := NewMachine(pol, start, 1)
	if !m.Begin(start) {
		t.Fatal("attempt at t=0 refused")
	}
	if !m.Begin(start.Add(999 * time.Millisecond)) {
		t.Fatal("attempt just inside deadline refused")
	}
	if m.Begin(start.Add(time.Second)) {
		t.Fatal("attempt at deadline allowed")
	}
	if m.Begin(start.Add(2 * time.Second)) {
		t.Fatal("attempt past deadline allowed")
	}
}

func TestBackoffGrowsAndClamps(t *testing.T) {
	start := time.Unix(1000, 0)
	pol := Policy{MaxAttempts: 10, Deadline: time.Second, Backoff: 100 * time.Millisecond}
	m := NewMachine(pol, start, 7)
	m.Begin(start)
	d1 := m.BackoffDelay(start)
	if d1 != 100*time.Millisecond {
		t.Fatalf("first backoff = %v, want 100ms (no jitter)", d1)
	}
	m.Begin(start)
	if d2 := m.BackoffDelay(start); d2 != 200*time.Millisecond {
		t.Fatalf("second backoff = %v, want 200ms", d2)
	}
	// 50ms from the deadline, even a 400ms backoff must clamp.
	m.Begin(start)
	if d3 := m.BackoffDelay(start.Add(950 * time.Millisecond)); d3 != 50*time.Millisecond {
		t.Fatalf("clamped backoff = %v, want 50ms", d3)
	}
	if d4 := m.BackoffDelay(start.Add(2 * time.Second)); d4 != 0 {
		t.Fatalf("backoff past deadline = %v, want 0", d4)
	}
}

func TestBackoffJitterBoundedAndDeterministic(t *testing.T) {
	start := time.Unix(1000, 0)
	pol := Policy{MaxAttempts: 50, Backoff: 100 * time.Millisecond, Jitter: 0.5}
	a := NewMachine(pol, start, 42)
	b := NewMachine(pol, start, 42)
	for i := 0; i < 20; i++ {
		a.Begin(start)
		b.Begin(start)
		da := a.BackoffDelay(start)
		db := b.BackoffDelay(start)
		if da != db {
			t.Fatalf("same seed diverged at attempt %d: %v vs %v", i+1, da, db)
		}
		base := 100 * time.Millisecond
		for j := 1; j < a.Attempts(); j++ {
			base *= 2
		}
		lo := base - time.Duration(float64(base)*0.5)
		hi := base + time.Duration(float64(base)*0.5)
		if da < lo || da > hi {
			t.Fatalf("attempt %d jittered delay %v outside [%v, %v]", i+1, da, lo, hi)
		}
	}
}
