package experiments

import (
	"fmt"
	"time"

	"github.com/here-ft/here/internal/faults"
	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/metrics"
	"github.com/here-ft/here/internal/orchestrator"
	"github.com/here-ft/here/internal/recovery"
	"github.com/here-ft/here/internal/simnet"
	"github.com/here-ft/here/internal/trace"
	"github.com/here-ft/here/internal/vclock"
	"github.com/here-ft/here/internal/workload"

	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/kvm"
	"github.com/here-ft/here/internal/xen"
)

// Recovery-bench scenario constants. Both strategies run the exact
// same seeded incident — a transient primary hang that heals after
// recoveryBenchHeal — so the rows differ only in how the orchestrator
// answers it: microreboot in place versus immediate fenced failover.
const (
	// recoveryBenchPages is the guest size: big enough that a full
	// re-seed visibly costs bandwidth, small enough for test runs.
	recoveryBenchPages = 16384
	// recoveryBenchResident is the cold resident set pre-populated
	// before the run: pages a failover's full re-seed must ship but
	// the workload barely touches — the population an in-place delta
	// resync gets to skip.
	recoveryBenchResident = 12288
	// recoveryBenchLoad is the membench working-set percentage: the
	// hot fraction that is dirty (and must be re-shipped) under either
	// strategy. Kept small so hot ≪ resident.
	recoveryBenchLoad = 5
	// recoveryBenchPeriod caps the checkpoint interval so the
	// post-incident observation has fine granularity.
	recoveryBenchPeriod = 250 * time.Millisecond
	// recoveryBenchHeal is the transient fault's heal latency: reboot
	// attempts before it fail, attempts after it succeed.
	recoveryBenchHeal = 80 * time.Millisecond
	// recoveryBenchWarmTicks is the steady-state run before the fault.
	recoveryBenchWarmTicks = 8
	// recoveryBenchMaxTicks bounds the post-fault observation window.
	recoveryBenchMaxTicks = 60
)

// recoveryBenchLink is the replication interconnect for the bench: a
// 1 GbE-class link, slow enough that shipping the full guest (the
// failover path's re-seed) is visibly more expensive than shipping the
// microreboot path's dirty delta.
func recoveryBenchLink() simnet.LinkConfig {
	return simnet.LinkConfig{
		Name:              "recovery-bench-1g",
		BytesPerSec:       1e9 / 8,
		Latency:           50 * time.Microsecond,
		SingleStreamShare: 0.5,
	}
}

// RecoveryBenchRow is one strategy's measured incident: the simulated
// time and replication work it took to get the guest from "primary
// hypervisor down" back to fully protected. It is one row of the
// committed BENCH_recovery.json.
type RecoveryBenchRow struct {
	// Strategy is "in-place" (microreboot ladder enabled) or
	// "failover" (ladder disabled — the paper's baseline).
	Strategy string `json:"strategy"`
	// RecoveryMS is the simulated time, in milliseconds, from fault
	// injection until the protection is back in mode "protected".
	RecoveryMS float64 `json:"recovery_ms"`
	// Ticks is the orchestration rounds that took.
	Ticks int `json:"ticks"`
	// EpochsRolledBack is the checkpoint epochs the guest lost: zero
	// when the primary's state survived (in-place), the gap back to
	// the replica's acked epoch when it did not (failover).
	EpochsRolledBack uint64 `json:"epochs_rolled_back"`
	// PagesResent is every page shipped between fault and restored
	// protection: the delta resync for in-place, the full re-seed for
	// failover (plus ordinary checkpoints either way).
	PagesResent int64 `json:"pages_resent"`
	// Attempts / InPlace / Escalations are the here_recovery_* counter
	// readings after the incident.
	Attempts    int64 `json:"attempts"`
	InPlace     int64 `json:"inplace"`
	Escalations int64 `json:"escalations"`
	// Generation is the fencing generation after recovery: unchanged
	// by in-place recovery, bumped by failover.
	Generation int `json:"generation"`
}

// RecoveryBench runs the same seeded transient-hypervisor-hang
// incident twice — once with the in-place microreboot ladder enabled,
// once forced straight to fenced failover — and reports recovery
// latency and lost work (epochs rolled back, pages re-shipped) for
// each. The contrast is the tentpole claim: when the hypervisor can be
// rebooted under the guest, protection returns for the price of a
// dirty delta instead of a full re-seed, with no generation bump.
func RecoveryBench(scale Scale) ([]RecoveryBenchRow, error) {
	inPlace, err := runRecoveryBench(scale, true)
	if err != nil {
		return nil, fmt.Errorf("recovery bench (in-place): %w", err)
	}
	failover, err := runRecoveryBench(scale, false)
	if err != nil {
		return nil, fmt.Errorf("recovery bench (failover): %w", err)
	}
	return []RecoveryBenchRow{inPlace, failover}, nil
}

func runRecoveryBench(scale Scale, inPlace bool) (RecoveryBenchRow, error) {
	row := RecoveryBenchRow{Strategy: "failover"}
	clk := vclock.NewSim()
	reg := trace.NewRegistry()
	cfg := orchestrator.Config{
		Clock:     clk,
		Link:      recoveryBenchLink(),
		MaxPeriod: recoveryBenchPeriod,
		Metrics:   reg,
		NoTrace:   true,
	}
	if inPlace {
		row.Strategy = "in-place"
		cfg.Recovery = recovery.Policy{
			Deadline:    10 * time.Second,
			MaxAttempts: 8,
			Backoff:     40 * time.Millisecond,
			Jitter:      0, // fully deterministic ladder for the bench
		}
	}
	m, err := orchestrator.New(cfg)
	if err != nil {
		return row, err
	}
	var hosts []*hypervisor.Host
	for i, mk := range []func(string, vclock.Clock) (*hypervisor.Host, error){
		xen.New, kvm.New, xen.New,
	} {
		h, err := mk(fmt.Sprintf("rb%d", i), clk)
		if err != nil {
			return row, err
		}
		if err := m.AddHost(h); err != nil {
			return row, err
		}
		hosts = append(hosts, h)
	}

	w, err := workload.NewMemoryBench(recoveryBenchLoad, scale.WriteRatePages, scale.Seed)
	if err != nil {
		return row, err
	}
	p, err := m.Protect(orchestrator.VMSpec{
		Name:        "rb",
		MemoryBytes: recoveryBenchPages * memory.PageSize,
		VCPUs:       2,
		Workload:    w,
	})
	if err != nil {
		return row, err
	}
	marker := []byte("recovery-bench marker")
	if err := p.VM().WriteGuest(0, 7*memory.PageSize, marker); err != nil {
		return row, err
	}
	// Pre-populate the cold resident set with distinct non-zero
	// content, starting past the membench working set so the hot and
	// cold regions stay disjoint.
	page := make([]byte, memory.PageSize)
	for i := 0; i < recoveryBenchResident; i++ {
		n := recoveryBenchPages - recoveryBenchResident + i
		for j := 0; j < 16; j++ {
			page[j*8] = byte(n >> (j % 3 * 8))
		}
		page[0], page[1], page[2] = byte(n), byte(n>>8), byte(n>>16)
		if err := p.VM().WriteGuest(0, memory.Addr(n)*memory.PageSize, page); err != nil {
			return row, err
		}
	}
	for i := 0; i < recoveryBenchWarmTicks; i++ {
		if err := m.Tick(); err != nil {
			return row, err
		}
	}
	before, err := m.Status("rb")
	if err != nil {
		return row, err
	}
	if before.Mode != orchestrator.ModeProtected {
		return row, fmt.Errorf("not protected after warmup: mode %s", before.Mode)
	}

	// Inject the seeded transient hang on the primary and drive the
	// orchestrator until protection is fully restored.
	primary := hosts[0]
	if before.Primary.Name != primary.HostName() {
		return row, fmt.Errorf("unexpected primary %s", before.Primary.Name)
	}
	plan := faults.New(clk, scale.Seed)
	plan.Instrument(nil, reg)
	plan.HostTransientHang(0, recoveryBenchHeal, primary, "bench transient stall")
	plan.Advance(clk.Now())
	faultAt := clk.Now()

	prevPages := before.Totals.PagesSent
	var firstEpoch uint64
	restored := false
	for row.Ticks = 0; row.Ticks < recoveryBenchMaxTicks; row.Ticks++ {
		if err := m.Tick(); err != nil {
			return row, err
		}
		st, err := m.Status("rb")
		if err != nil {
			return row, err
		}
		// Totals reset when the incident re-wires the replication
		// engine; a drop means every page of the new total is
		// incident traffic.
		if cur := st.Totals.PagesSent; cur >= prevPages {
			row.PagesResent += cur - prevPages
			prevPages = cur
		} else {
			row.PagesResent += cur
			prevPages = cur
		}
		if row.Ticks == 0 {
			firstEpoch = st.Epoch
			row.Generation = st.Generation
		}
		if st.Mode == orchestrator.ModeProtected {
			row.Ticks++
			row.Generation = st.Generation
			restored = true
			break
		}
	}
	if !restored {
		return row, fmt.Errorf("protection not restored within %d ticks", recoveryBenchMaxTicks)
	}
	if p.Lost() {
		return row, fmt.Errorf("service lost during the incident")
	}
	got := make([]byte, len(marker))
	if err := p.VM().ReadGuest(7*memory.PageSize, got); err != nil {
		return row, err
	}
	if string(got) != string(marker) {
		return row, fmt.Errorf("guest data lost across recovery: %q", got)
	}

	row.RecoveryMS = millis(clk.Now().Sub(faultAt))
	if before.Epoch > firstEpoch {
		row.EpochsRolledBack = before.Epoch - firstEpoch
	}
	row.Attempts = reg.Counter("here_recovery_attempts_total", "").Value()
	row.InPlace = reg.Counter("here_recovery_inplace_total", "").Value()
	row.Escalations = reg.Counter("here_recovery_escalations_total", "").Value()
	return row, nil
}

// RenderRecoveryBench formats the in-place versus failover incident
// comparison.
func RenderRecoveryBench(rows []RecoveryBenchRow) *metrics.Table {
	tab := metrics.NewTable("Recovery: in-place microreboot vs fenced failover (same seeded incident)",
		"Strategy", "Recovery(ms)", "Ticks", "EpochsLost", "PagesResent",
		"Attempts", "InPlace", "Escalated", "Generation")
	for _, r := range rows {
		tab.AddRow(r.Strategy, r.RecoveryMS,
			r.Ticks, r.EpochsRolledBack, r.PagesResent,
			r.Attempts, r.InPlace, r.Escalations, r.Generation)
	}
	return tab
}
