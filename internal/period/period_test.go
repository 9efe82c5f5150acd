package period

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{"valid", Config{D: 0.3, Tmax: 25 * time.Second, Sigma: time.Second}, false},
		{"zero D pins Tmax", Config{D: 0, Tmax: 3 * time.Second}, false},
		{"unbounded", Config{D: 0.3}, false},
		{"negative D", Config{D: -0.1, Tmax: time.Second}, true},
		{"D = 1", Config{D: 1, Tmax: time.Second}, true},
		{"NaN D", Config{D: math.NaN(), Tmax: time.Second}, true},
		{"+Inf D", Config{D: math.Inf(1)}, true},
		{"-Inf D", Config{D: math.Inf(-1)}, true},
		{"negative Tmax", Config{D: 0.3, Tmax: -1}, true},
		{"negative Sigma", Config{D: 0.3, Sigma: -1}, true},
		{"Sigma > Tmax", Config{D: 0.3, Tmax: time.Second, Sigma: 2 * time.Second}, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.cfg)
			if (err != nil) != tc.wantErr {
				t.Fatalf("New = %v, wantErr %v", err, tc.wantErr)
			}
		})
	}
}

func TestDegradationFormula(t *testing.T) {
	if got := Degradation(2*time.Second, 8*time.Second); got != 0.2 {
		t.Fatalf("D = %v, want 0.2", got)
	}
	if got := Degradation(0, time.Second); got != 0 {
		t.Fatalf("D(0) = %v", got)
	}
	if got := Degradation(-time.Second, time.Second); got != 0 {
		t.Fatalf("D(<0) = %v", got)
	}
}

func TestStartsAtTmax(t *testing.T) {
	m, err := New(Config{D: 0.3, Tmax: 25 * time.Second, Sigma: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if m.Period() != 25*time.Second {
		t.Fatalf("initial T = %v, want Tmax", m.Period())
	}
}

func TestTightensUnderBudget(t *testing.T) {
	m, err := New(Config{D: 0.3, Tmax: 10 * time.Second, Sigma: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// Tiny pauses: degradation ~0 ≤ D, so T steps down by σ each time.
	for i := 1; i <= 3; i++ {
		_, next := m.Observe(time.Millisecond)
		want := 10*time.Second - time.Duration(i)*time.Second
		if next != want {
			t.Fatalf("after %d observations T = %v, want %v", i, next, want)
		}
	}
}

func TestWalksBackOnFirstOvershoot(t *testing.T) {
	m, err := New(Config{D: 0.3, Tmax: 10 * time.Second, Sigma: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	m.Observe(time.Millisecond) // T: 10s → 9s, Tprev = 10s
	// Overshoot: t = 9s on T = 9s gives D = 0.5 > 0.3; Dprev ≈ 0 ≤ D,
	// so walk back to Tprev = 10s.
	_, next := m.Observe(9 * time.Second)
	if next != 10*time.Second {
		t.Fatalf("T after first overshoot = %v, want walk-back to 10s", next)
	}
}

func TestJumpsToMidpointOnRepeatedOvershoot(t *testing.T) {
	m, err := New(Config{D: 0.3, Tmax: 20 * time.Second, Sigma: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// Drive T down to 4s with tiny pauses.
	for i := 0; i < 16; i++ {
		m.Observe(time.Millisecond)
	}
	if m.Period() != 4*time.Second {
		t.Fatalf("setup failed: T = %v", m.Period())
	}
	m.Observe(10 * time.Second) // overshoot #1: walk back to 5s
	if m.Period() != 5*time.Second {
		t.Fatalf("after overshoot #1 T = %v, want 5s", m.Period())
	}
	// Overshoot #2: Dprev > D, so jump to round((5+20)/2) = 12.5s → 13s.
	_, next := m.Observe(10 * time.Second)
	want := 13 * time.Second // round(12.5s, 1s) rounds half up
	if next != want {
		t.Fatalf("after overshoot #2 T = %v, want %v", next, want)
	}
}

func TestZeroDPinsTmax(t *testing.T) {
	// Table 6's HERE(3Sec, 0%) configuration: D = 0 forces T = Tmax.
	m, err := New(Config{D: 0, Tmax: 3 * time.Second, Sigma: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		pause := time.Duration(i%7) * 100 * time.Millisecond
		if _, next := m.Observe(pause); pause > 0 && next != 3*time.Second {
			t.Fatalf("iteration %d: T = %v, want pinned 3s", i, next)
		}
	}
}

func TestUnboundedBacksOffMultiplicatively(t *testing.T) {
	m, err := New(Config{D: 0.3, Sigma: time.Second}) // Tmax = ∞
	if err != nil {
		t.Fatal(err)
	}
	if m.Period() != DefaultUnboundedStart {
		t.Fatalf("unbounded start = %v", m.Period())
	}
	// Force the double-overshoot path.
	m.Observe(time.Millisecond)             // tighten to 29s, Dprev small
	m.Observe(100 * time.Second)            // overshoot #1: walk back to 30s
	_, next := m.Observe(100 * time.Second) // overshoot #2: back off to 2×30s
	if next != time.Minute {
		t.Fatalf("unbounded backoff T = %v, want 60s", next)
	}
}

func TestNeverLeavesBounds(t *testing.T) {
	f := func(pausesMS []uint16) bool {
		const (
			tmax  = 25 * time.Second
			sigma = 500 * time.Millisecond
		)
		m, err := New(Config{D: 0.3, Tmax: tmax, Sigma: sigma})
		if err != nil {
			return false
		}
		for _, p := range pausesMS {
			_, next := m.Observe(time.Duration(p) * time.Millisecond)
			if next < sigma || next > tmax {
				return false
			}
			if next%sigma != 0 {
				return false // T always stays on the σ grid
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestConvergesToBudget(t *testing.T) {
	// A synthetic workload with a fixed pause cost: t = 1s regardless
	// of T. The budget D = 0.3 implies an equilibrium T* where
	// 1/(1+T*) ≈ 0.3 → T* ≈ 2.33s. The controller must settle near it.
	m, err := New(Config{D: 0.3, Tmax: 25 * time.Second, Sigma: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for i := 0; i < 200; i++ {
		last, _ = m.Observe(time.Second)
	}
	if math.Abs(last-0.3) > 0.07 {
		t.Fatalf("converged degradation = %v, want ≈ 0.3", last)
	}
	T := m.Period().Seconds()
	if T < 1.8 || T > 3.0 {
		t.Fatalf("converged T = %vs, want ≈ 2.33s", T)
	}
}

func TestPauseModelPredict(t *testing.T) {
	pm := PauseModel{Alpha: 1000 * time.Nanosecond, C: time.Millisecond}
	if got := pm.Predict(0, 1); got != time.Millisecond {
		t.Fatalf("Predict(0) = %v", got)
	}
	if got := pm.Predict(1000, 1); got != time.Millisecond+time.Millisecond {
		t.Fatalf("Predict(1000, 1) = %v", got)
	}
	if got := pm.Predict(1000, 4); got != time.Millisecond+250*time.Microsecond {
		t.Fatalf("Predict(1000, 4) = %v", got)
	}
	if pm.Predict(-5, 0) != pm.Predict(0, 1) {
		t.Fatal("negative inputs not clamped")
	}
}

func TestFitPauseModelRecovers(t *testing.T) {
	truth := PauseModel{Alpha: 470 * time.Nanosecond, C: 2 * time.Millisecond}
	const p = 4
	var pages []int
	var pauses []time.Duration
	for n := 10000; n <= 100000; n += 10000 {
		pages = append(pages, n)
		pauses = append(pauses, truth.Predict(n, p))
	}
	fit, err := FitPauseModel(pages, pauses, p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(fit.Alpha-truth.Alpha)) > 5 {
		t.Fatalf("alpha = %v, want %v", fit.Alpha, truth.Alpha)
	}
	if math.Abs(float64(fit.C-truth.C)) > float64(50*time.Microsecond) {
		t.Fatalf("C = %v, want %v", fit.C, truth.C)
	}
}

func TestFitPauseModelErrors(t *testing.T) {
	if _, err := FitPauseModel([]int{1}, []time.Duration{1}, 1); err == nil {
		t.Fatal("fit with one sample succeeded")
	}
	if _, err := FitPauseModel([]int{1, 2}, []time.Duration{1}, 1); err == nil {
		t.Fatal("fit with mismatched lengths succeeded")
	}
	if _, err := FitPauseModel([]int{5, 5, 5}, []time.Duration{1, 2, 3}, 1); err == nil {
		t.Fatal("fit with degenerate x succeeded")
	}
}

func TestStartOverride(t *testing.T) {
	m, err := New(Config{D: 0.3, Tmax: 25 * time.Second, Start: 4 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if m.Period() != 4*time.Second {
		t.Fatalf("start = %v, want 4s", m.Period())
	}
	if _, err := New(Config{D: 0.3, Tmax: 10 * time.Second, Start: 11 * time.Second}); err == nil {
		t.Fatal("Start > Tmax accepted")
	}
	if _, err := New(Config{D: 0.3, Start: -time.Second}); err == nil {
		t.Fatal("negative Start accepted")
	}
	// Start below sigma is clamped up to sigma.
	m, err = New(Config{D: 0.3, Tmax: 10 * time.Second, Sigma: time.Second, Start: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if m.Period() != time.Second {
		t.Fatalf("sub-sigma start = %v, want clamped to sigma", m.Period())
	}
}

func TestAdaptiveRemusValidation(t *testing.T) {
	if _, err := NewAdaptiveRemus(0, time.Second); err == nil {
		t.Fatal("zero default accepted")
	}
	if _, err := NewAdaptiveRemus(5*time.Second, 0); err == nil {
		t.Fatal("zero io period accepted")
	}
	if _, err := NewAdaptiveRemus(time.Second, 2*time.Second); err == nil {
		t.Fatal("io period above default accepted")
	}
}

func TestAdaptiveRemusSwitchesOnIO(t *testing.T) {
	a, err := NewAdaptiveRemus(5*time.Second, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if a.Period() != 5*time.Second {
		t.Fatalf("initial period = %v", a.Period())
	}
	// Quiet checkpoints keep the default.
	for i := 0; i < 5; i++ {
		if _, next := a.Observe(10 * time.Millisecond); next != 5*time.Second {
			t.Fatalf("quiet period = %v", next)
		}
	}
	// Traffic switches to the low period on the next checkpoint.
	a.RecordIO(3)
	if _, next := a.Observe(10 * time.Millisecond); next != 500*time.Millisecond {
		t.Fatalf("io period = %v, want 500ms", next)
	}
	// It stays low while traffic continues.
	a.RecordIO(1)
	if _, next := a.Observe(10 * time.Millisecond); next != 500*time.Millisecond {
		t.Fatalf("period left io mode too early")
	}
	// After DefaultIdleAfter quiet checkpoints it returns to default.
	var next time.Duration
	for i := 0; i < DefaultIdleAfter; i++ {
		_, next = a.Observe(10 * time.Millisecond)
	}
	if next != 5*time.Second {
		t.Fatalf("period after quiet spell = %v, want default", next)
	}
	// Zero/negative packet counts are ignored.
	a.RecordIO(0)
	a.RecordIO(-5)
	if _, next := a.Observe(time.Millisecond); next != 5*time.Second {
		t.Fatal("non-positive IO toggled the policy")
	}
}

func TestAdaptiveRemusIgnoresLoad(t *testing.T) {
	// The limitation HERE addresses (§5.4): huge pauses do not make
	// Adaptive Remus back off — it has no degradation budget.
	a, err := NewAdaptiveRemus(5*time.Second, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	deg, next := a.Observe(20 * time.Second)
	if next != 5*time.Second {
		t.Fatalf("pause changed the period: %v", next)
	}
	if deg < 0.7 {
		t.Fatalf("degradation = %v, want reported honestly", deg)
	}
}

func TestRetune(t *testing.T) {
	m, err := New(Config{D: 0.3, Tmax: 25 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// Tighten the cap below the current interval: T must be clamped.
	if err := m.Retune(0.1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := m.Period(); got != 5*time.Second {
		t.Fatalf("Period = %v, want clamped to 5s", got)
	}
	if cfg := m.Config(); cfg.D != 0.1 || cfg.Tmax != 5*time.Second {
		t.Fatalf("Config = %+v after retune", cfg)
	}
	// The controller keeps operating under the new budget.
	if _, next := m.Observe(100 * time.Millisecond); next > 5*time.Second {
		t.Fatalf("next = %v exceeds retuned Tmax", next)
	}
	// Invalid budgets are rejected without touching the state.
	if err := m.Retune(1.5, 5*time.Second); err == nil {
		t.Fatal("D = 1.5 accepted")
	}
	if err := m.Retune(0.1, -time.Second); err == nil {
		t.Fatal("negative Tmax accepted")
	}
	if err := m.Retune(0.1, time.Millisecond); err == nil {
		t.Fatal("Tmax below sigma accepted")
	}
	if cfg := m.Config(); cfg.Tmax != 5*time.Second {
		t.Fatalf("failed retune mutated config: %+v", cfg)
	}
	// Unbounded mode (Tmax = 0) is reachable live.
	if err := m.Retune(0.2, 0); err != nil {
		t.Fatal(err)
	}
	if cfg := m.Config(); cfg.Tmax != 0 {
		t.Fatalf("Tmax = %v, want unbounded", cfg.Tmax)
	}
}
