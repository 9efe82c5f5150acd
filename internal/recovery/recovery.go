// Package recovery is the deadline-driven recover-vs-failover policy
// of HERE's in-place recovery subsystem. The paper treats every
// hypervisor failure as terminal and answers with failover to the
// heterogeneous replica (§8.2); ReHype showed most hypervisor failures
// are transient and survivable by microrebooting the hypervisor in
// place, preserving guest memory. This package holds the policy that
// chooses between the two: classify the failure (crash vs. hang vs.
// starvation, capability check), attempt in-place recovery under a
// bounded retry budget with jittered backoff and a hard deadline, and
// escalate to fenced failover when the budget or deadline is spent.
//
// The package is deliberately free of orchestrator state: it decides,
// the orchestrator acts. Everything probabilistic (retry jitter) draws
// from a caller-seeded RNG so a given recovery replays exactly.
package recovery

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/here-ft/here/internal/hypervisor"
)

// Default policy knobs: three attempts under a two-second wall, a
// quarter-second first backoff doubling per retry, half of it
// jittered. Small relative to the heartbeat timeouts that detect the
// failure, large relative to a simulated reboot.
const (
	DefaultDeadline    = 2 * time.Second
	DefaultMaxAttempts = 3
	DefaultBackoff     = 250 * time.Millisecond
	DefaultJitter      = 0.5
)

// Policy bounds one protection's in-place recovery: how many
// microreboot attempts, how they back off, and the hard deadline past
// which the orchestrator stops trying and fails over. The zero value
// disables in-place recovery entirely (MaxAttempts 0), which is
// exactly the paper's any-failure-means-failover behavior.
type Policy struct {
	// Deadline is the hard wall, measured from failure detection: once
	// it passes, no further attempts run and the failure escalates to
	// fenced failover. Zero means no deadline (attempts bound alone).
	Deadline time.Duration
	// MaxAttempts is the in-place attempt budget per failure. Zero
	// disables in-place recovery: every failure escalates immediately.
	MaxAttempts int
	// Backoff is the delay before the second attempt; it doubles each
	// retry after that.
	Backoff time.Duration
	// Jitter is the fraction of each backoff that is randomized, in
	// [0,1]: a delay d becomes d ± d*Jitter drawn uniformly.
	Jitter float64
}

// DefaultPolicy returns the enabled default ladder.
func DefaultPolicy() Policy {
	return Policy{
		Deadline:    DefaultDeadline,
		MaxAttempts: DefaultMaxAttempts,
		Backoff:     DefaultBackoff,
		Jitter:      DefaultJitter,
	}
}

// Enabled reports whether the policy permits any in-place attempt.
func (p Policy) Enabled() bool { return p.MaxAttempts > 0 }

// Validate rejects nonsensical knobs.
func (p Policy) Validate() error {
	if p.Deadline < 0 {
		return fmt.Errorf("recovery policy: negative deadline %v", p.Deadline)
	}
	if p.MaxAttempts < 0 {
		return fmt.Errorf("recovery policy: negative attempt budget %d", p.MaxAttempts)
	}
	if p.Backoff < 0 {
		return fmt.Errorf("recovery policy: negative backoff %v", p.Backoff)
	}
	if !(p.Jitter >= 0 && p.Jitter <= 1) { // NaN compares false both ways
		return fmt.Errorf("recovery policy: jitter %v outside [0,1]", p.Jitter)
	}
	return nil
}

// String renders the ladder compactly, e.g. "3×/2s backoff 250ms±50%".
func (p Policy) String() string {
	if !p.Enabled() {
		return "disabled (failover only)"
	}
	s := fmt.Sprintf("%d×", p.MaxAttempts)
	if p.Deadline > 0 {
		s += fmt.Sprintf("/%v", p.Deadline)
	}
	return s + fmt.Sprintf(" backoff %v±%.0f%%", p.Backoff, p.Jitter*100)
}

// Decision is the policy's answer to a detected host failure.
type Decision int

const (
	// Failover: no in-place path applies — escalate to fenced failover.
	Failover Decision = iota
	// Unstarve: the host is resource-starved, not rebooted. Host
	// recovery preserves RAM; no microreboot needed.
	Unstarve
	// Microreboot: the hypervisor crashed or hung and the backend can
	// reboot it in place.
	Microreboot
)

// String names the decision.
func (d Decision) String() string {
	switch d {
	case Unstarve:
		return "unstarve"
	case Microreboot:
		return "microreboot"
	default:
		return "failover"
	}
}

// Classify maps a failed host's health and capabilities to a recovery
// decision under the given policy. A disabled policy always answers
// Failover — the pre-ReHype behavior. Starvation is always recoverable
// in place (RAM never went away); a crash or hang is recoverable only
// when the backend advertises Capabilities.Microreboot (xen and kvm
// do, chv does not).
func Classify(health hypervisor.HealthState, caps hypervisor.Capabilities, pol Policy) Decision {
	if !pol.Enabled() {
		return Failover
	}
	switch health {
	case hypervisor.Starved:
		return Unstarve
	case hypervisor.Crashed, hypervisor.Hung:
		if caps.Microreboot {
			return Microreboot
		}
	}
	return Failover
}

// Machine runs one failure's attempt ladder: it meters attempts
// against the policy's budget and deadline and deals the jittered
// backoff between them. One Machine per detected failure; it is not
// safe for concurrent use (the orchestrator drives it from a single
// recovery goroutine).
type Machine struct {
	pol      Policy
	start    time.Time
	rng      *rand.Rand
	attempts int
}

// NewMachine starts a ladder at the detection instant. The seed makes
// the jitter sequence — and therefore the whole recovery timeline —
// replayable.
func NewMachine(pol Policy, start time.Time, seed int64) *Machine {
	return &Machine{pol: pol, start: start, rng: rand.New(rand.NewSource(seed))}
}

// Deadline is the instant past which no attempt may begin (zero time
// when the policy has no deadline).
func (m *Machine) Deadline() time.Time {
	if m.pol.Deadline <= 0 {
		return time.Time{}
	}
	return m.start.Add(m.pol.Deadline)
}

// Attempts reports how many attempts have begun.
func (m *Machine) Attempts() int { return m.attempts }

// Begin asks to start the next attempt at instant now. It returns
// false when the attempt budget is spent or the deadline has passed —
// the escalation signal.
func (m *Machine) Begin(now time.Time) bool {
	if m.attempts >= m.pol.MaxAttempts {
		return false
	}
	if d := m.Deadline(); !d.IsZero() && !now.Before(d) {
		return false
	}
	m.attempts++
	return true
}

// BackoffDelay deals the jittered, exponentially grown delay to sleep
// before the next attempt, clamped so the sleep never overshoots the
// deadline (sleeping past it would just burn wall-clock before the
// inevitable escalation).
func (m *Machine) BackoffDelay(now time.Time) time.Duration {
	d := m.pol.Backoff
	for i := 1; i < m.attempts; i++ {
		d *= 2
	}
	if m.pol.Jitter > 0 && d > 0 {
		spread := 2*m.rng.Float64() - 1 // uniform in [-1, 1)
		d += time.Duration(float64(d) * m.pol.Jitter * spread)
	}
	if d < 0 {
		d = 0
	}
	if dl := m.Deadline(); !dl.IsZero() {
		if rem := dl.Sub(now); d > rem {
			d = rem
		}
		if d < 0 {
			d = 0
		}
	}
	return d
}
