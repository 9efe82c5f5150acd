// Package period implements HERE's dynamic checkpoint period manager
// (paper §5.4, Algorithm 1): after every checkpoint it recomputes the
// next checkpointing interval T from the measured pause duration t,
// under a soft degradation budget D (D_T = t/(t+T), Eq. 1) and a hard
// interval cap T_max.
//
// The controller always checkpoints as frequently as the budget allows
// — for the critical workloads HERE targets, a shorter interval means
// less lost computation and shorter I/O buffering delays on failover.
package period

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// DefaultSigma is the default adjustment step σ.
const DefaultSigma = 250 * time.Millisecond

// DefaultUnboundedStart is the starting interval used when no T_max is
// configured (the paper's T_max = ∞ configurations).
const DefaultUnboundedStart = 30 * time.Second

// ErrBadConfig reports an invalid controller configuration.
var ErrBadConfig = errors.New("period: invalid configuration")

// Config parameterizes the controller.
type Config struct {
	// D is the desired performance degradation in [0, 1), a soft limit
	// (paper: can be exceeded at high loads). D = 0 pins T to Tmax.
	D float64
	// Tmax is the maximum tolerable checkpoint interval, a hard limit.
	// Zero means unbounded (the paper's T_max = ∞ configurations);
	// the controller then starts from DefaultUnboundedStart and backs
	// off multiplicatively instead of jumping to the midpoint.
	Tmax time.Duration
	// Sigma is the adjustment step σ (DefaultSigma if zero).
	Sigma time.Duration
	// Start overrides the initial interval. Zero starts at Tmax
	// (Algorithm 1 line 1) or, when unbounded, at
	// DefaultUnboundedStart. Must not exceed Tmax.
	Start time.Duration
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if !(c.D >= 0 && c.D < 1) { // NaN compares false both ways
		return fmt.Errorf("%w: D = %v, want [0, 1)", ErrBadConfig, c.D)
	}
	if c.Tmax < 0 {
		return fmt.Errorf("%w: negative Tmax %v", ErrBadConfig, c.Tmax)
	}
	if c.Sigma < 0 {
		return fmt.Errorf("%w: negative Sigma %v", ErrBadConfig, c.Sigma)
	}
	if c.Tmax > 0 && c.Sigma > c.Tmax {
		return fmt.Errorf("%w: Sigma %v exceeds Tmax %v", ErrBadConfig, c.Sigma, c.Tmax)
	}
	if c.Start < 0 || (c.Tmax > 0 && c.Start > c.Tmax) {
		return fmt.Errorf("%w: Start %v outside (0, Tmax]", ErrBadConfig, c.Start)
	}
	return nil
}

// Degradation computes D_T = t/(t+T) (Eq. 1), the fraction of wall
// time the VM spends paused.
func Degradation(t, T time.Duration) float64 {
	if t <= 0 {
		return 0
	}
	return float64(t) / float64(t+T)
}

// Manager is the dynamic period controller. It is safe for concurrent
// use.
type Manager struct {
	cfg   Config
	sigma time.Duration
	tmax  time.Duration // effective cap; 0 = unbounded

	mu    sync.Mutex
	t     time.Duration // current interval T
	tPrev time.Duration // last known-good interval T_prev
	dPrev float64       // previous degradation D_prev
}

// New returns a controller starting at T = T_max (Algorithm 1 line 1),
// or at DefaultUnboundedStart when unbounded.
func New(cfg Config) (*Manager, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sigma := cfg.Sigma
	if sigma == 0 {
		sigma = DefaultSigma
	}
	start := cfg.Start
	if start == 0 {
		start = cfg.Tmax
	}
	if start == 0 {
		start = DefaultUnboundedStart
	}
	if start < sigma {
		start = sigma
	}
	return &Manager{
		cfg:   cfg,
		sigma: sigma,
		tmax:  cfg.Tmax,
		t:     start,
		tPrev: start,
		dPrev: cfg.D, // Algorithm 1 line 2
	}, nil
}

// Config returns the controller configuration.
func (m *Manager) Config() Config {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cfg
}

// Retune replaces the degradation budget D and the interval cap Tmax
// of a running controller — the control-plane's live-tuning path. The
// current interval is clamped into the new bounds; the controller's
// walk-back state (T_prev, D_prev) is preserved so the next Observe
// continues from where the old tuning left off.
func (m *Manager) Retune(d float64, tmax time.Duration) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	next := m.cfg
	next.D = d
	next.Tmax = tmax
	// Start only constrains construction; a live controller's interval
	// is clamped below instead.
	next.Start = 0
	if next.Tmax > 0 && m.sigma > next.Tmax {
		return fmt.Errorf("%w: Sigma %v exceeds Tmax %v", ErrBadConfig, m.sigma, next.Tmax)
	}
	if err := next.Validate(); err != nil {
		return err
	}
	m.cfg = next
	m.tmax = tmax
	if m.tmax > 0 {
		if m.t > m.tmax {
			m.t = m.tmax
		}
		if m.tPrev > m.tmax {
			m.tPrev = m.tmax
		}
	}
	if m.t < m.sigma {
		m.t = m.sigma
	}
	return nil
}

// Period reports the current checkpoint interval T.
func (m *Manager) Period() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.t
}

// Observe feeds the measured pause duration of the checkpoint that
// just completed and recomputes T (Algorithm 1 lines 4–15). It returns
// the degradation measured for that checkpoint and the next interval.
func (m *Manager) Observe(pause time.Duration) (dCurr float64, next time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()

	dCurr = Degradation(pause, m.t)
	switch {
	case dCurr <= m.cfg.D:
		// Budget available: tighten the interval by one step.
		m.tPrev = m.t
		m.t -= m.sigma
	case m.dPrev <= m.cfg.D:
		// First overshoot: walk back to the last known-good interval.
		m.t = m.tPrev
	default:
		// Restoring T_prev was not enough: jump toward T_max.
		m.tPrev = m.t
		m.t = m.midpoint()
	}
	m.dPrev = dCurr
	m.clamp()
	return dCurr, m.t
}

// midpoint computes round((T+Tmax)/2, σ); in unbounded mode it backs
// off multiplicatively instead.
func (m *Manager) midpoint() time.Duration {
	if m.tmax == 0 {
		return roundTo(2*m.t, m.sigma)
	}
	return roundTo((m.t+m.tmax)/2, m.sigma)
}

// clamp enforces σ ≤ T ≤ Tmax.
func (m *Manager) clamp() {
	if m.t < m.sigma {
		m.t = m.sigma
	}
	if m.tmax > 0 && m.t > m.tmax {
		m.t = m.tmax
	}
}

func roundTo(d, step time.Duration) time.Duration {
	if step <= 0 {
		return d
	}
	half := step / 2
	return (d + half) / step * step
}

// PauseModel is the linear pause-duration model of Eq. 3/4:
// t = αN/P + C, where N is the number of dirty pages and P the
// parallelism factor.
type PauseModel struct {
	// Alpha is the per-dirty-page cost (network + CPU), divided by the
	// parallelism factor.
	Alpha time.Duration
	// C is the amortized constant cost (pause/resume and state
	// transfer, independent of VM activity).
	C time.Duration
}

// Predict estimates the pause duration for n dirty pages with
// parallelism p (clamped to ≥ 1).
func (pm PauseModel) Predict(n int, p int) time.Duration {
	if p < 1 {
		p = 1
	}
	if n < 0 {
		n = 0
	}
	return time.Duration(float64(pm.Alpha)*float64(n)/float64(p)) + pm.C
}

// FitPauseModel fits α and C by least squares from observed
// (dirtyPages, pause) samples taken at parallelism p. It reports an
// error with fewer than two distinct samples.
func FitPauseModel(pages []int, pauses []time.Duration, p int) (PauseModel, error) {
	if len(pages) != len(pauses) || len(pages) < 2 {
		return PauseModel{}, fmt.Errorf("period: need ≥2 paired samples, got %d/%d",
			len(pages), len(pauses))
	}
	if p < 1 {
		p = 1
	}
	n := float64(len(pages))
	var sx, sy, sxx, sxy float64
	for i := range pages {
		x := float64(pages[i])
		y := float64(pauses[i])
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return PauseModel{}, errors.New("period: all samples have the same page count")
	}
	slope := (n*sxy - sx*sy) / den
	intercept := (sy - slope*sx) / n
	return PauseModel{
		Alpha: time.Duration(slope * float64(p)),
		C:     time.Duration(intercept),
	}, nil
}
