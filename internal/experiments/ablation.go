package experiments

import (
	"fmt"
	"time"

	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/metrics"
	"github.com/here-ft/here/internal/migration"
	"github.com/here-ft/here/internal/replication"
	"github.com/here-ft/here/internal/simnet"
	"github.com/here-ft/here/internal/vclock"
	"github.com/here-ft/here/internal/workload"
)

// Ablation studies for HERE's design choices, beyond the paper's
// figures: how much each mechanism contributes.

// ThreadAblationRow is one thread-count measurement.
type ThreadAblationRow struct {
	Threads   int
	PauseSecs float64 // mean checkpoint pause
	SpeedupX  float64 // vs one thread
}

// ThreadAblation sweeps HERE's checkpoint transfer thread count on a
// loaded VM, quantifying the multithreading contribution in isolation
// (the paper fixes threads = 4; §5.1 motivates the design).
func ThreadAblation(scale Scale, threadCounts []int) ([]ThreadAblationRow, error) {
	if len(threadCounts) == 0 {
		threadCounts = []int{1, 2, 4, 8}
	}
	var rows []ThreadAblationRow
	var base float64
	for _, threads := range threadCounts {
		pair, err := NewHeterogeneousPair()
		if err != nil {
			return nil, err
		}
		vm, err := pair.ProtectedVM("ablate", GB(scale.LoadedGB), 4)
		if err != nil {
			return nil, err
		}
		w, err := workload.NewMemoryBench(30, scale.WriteRatePages, scale.Seed)
		if err != nil {
			return nil, err
		}
		rep, err := newReplicator(vm, pair, replication.Config{
			Engine:   replication.EngineHERE,
			Threads:  threads,
			Period:   4 * time.Second,
			Workload: w,
		})
		if err != nil {
			return nil, err
		}
		if _, err := rep.Seed(); err != nil {
			return nil, err
		}
		stats, err := rep.RunFor(secs(scale.RunSeconds))
		if err != nil {
			return nil, err
		}
		var total time.Duration
		for _, st := range stats {
			total += st.Pause
		}
		mean := (total / time.Duration(len(stats))).Seconds()
		if threads == threadCounts[0] {
			base = mean
		}
		rows = append(rows, ThreadAblationRow{
			Threads:   threads,
			PauseSecs: mean,
			SpeedupX:  base / mean,
		})
	}
	return rows, nil
}

// RenderThreadAblation formats the thread-count sweep.
func RenderThreadAblation(rows []ThreadAblationRow) *metrics.Table {
	tab := metrics.NewTable("Ablation: checkpoint transfer threads (30% load)",
		"Threads", "MeanPause(ms)", "Speedup")
	for _, r := range rows {
		tab.AddRow(r.Threads, r.PauseSecs*1e3, fmt.Sprintf("%.2fx", r.SpeedupX))
	}
	return tab
}

// StreamShareRow is one single-stream-efficiency measurement.
type StreamShareRow struct {
	Share     float64
	RemusSecs float64
	HERESecs  float64
	GainPct   float64
}

// StreamShareAblation sweeps the link's single-stream efficiency —
// the hardware property that motivates multithreaded transfer in the
// first place. At share = 1.0 one stream saturates the link and HERE's
// network parallelism buys nothing; the CPU-side parallelism remains.
func StreamShareAblation(scale Scale, shares []float64) ([]StreamShareRow, error) {
	if len(shares) == 0 {
		shares = []float64{0.15, 0.30, 0.60, 1.0}
	}
	var rows []StreamShareRow
	for _, share := range shares {
		run := func(engine replication.Engine) (float64, error) {
			clk := vclock.NewSim()
			pair, err := pairWithShare(clk, engine, share)
			if err != nil {
				return 0, err
			}
			vm, err := pair.ProtectedVM("ablate", GB(scale.LoadedGB), 4)
			if err != nil {
				return 0, err
			}
			w, err := workload.NewMemoryBench(30, scale.WriteRatePages, scale.Seed)
			if err != nil {
				return 0, err
			}
			rep, err := newReplicator(vm, pair, replication.Config{
				Engine: engine, Period: 4 * time.Second, Workload: w,
			})
			if err != nil {
				return 0, err
			}
			if _, err := rep.Seed(); err != nil {
				return 0, err
			}
			stats, err := rep.RunFor(secs(scale.RunSeconds))
			if err != nil {
				return 0, err
			}
			var total time.Duration
			for _, st := range stats {
				total += st.Pause
			}
			return (total / time.Duration(len(stats))).Seconds(), nil
		}
		remus, err := run(replication.EngineRemus)
		if err != nil {
			return nil, err
		}
		here, err := run(replication.EngineHERE)
		if err != nil {
			return nil, err
		}
		rows = append(rows, StreamShareRow{
			Share:     share,
			RemusSecs: remus,
			HERESecs:  here,
			GainPct:   100 * (1 - here/remus),
		})
	}
	return rows, nil
}

func pairWithShare(clk *vclock.SimClock, engine replication.Engine, share float64) (*Pair, error) {
	var pair *Pair
	var err error
	if engine == replication.EngineRemus {
		pair, err = NewHomogeneousPair()
	} else {
		pair, err = NewHeterogeneousPair()
	}
	if err != nil {
		return nil, err
	}
	cfg := simnet.OmniPath100()
	cfg.SingleStreamShare = share
	link, err := simnet.NewLink(cfg, pair.Clock)
	if err != nil {
		return nil, err
	}
	pair.Link = link
	return pair, nil
}

// RenderStreamShareAblation formats the stream-share sweep.
func RenderStreamShareAblation(rows []StreamShareRow) *metrics.Table {
	tab := metrics.NewTable("Ablation: single-stream link efficiency",
		"Share", "Remus(ms)", "HERE(ms)", "HEREGain")
	for _, r := range rows {
		tab.AddRow(fmt.Sprintf("%.2f", r.Share), r.RemusSecs*1e3, r.HERESecs*1e3,
			fmt.Sprintf("%.0f%%", r.GainPct))
	}
	return tab
}

// RingAblationRow is one PML-ring-capacity measurement.
type RingAblationRow struct {
	RingCapacity int
	Problematic  int
	Overflowed   bool
}

// RingAblation sweeps the per-vCPU PML ring capacity during seeding:
// small rings overflow and lose problematic-page attribution (the
// shared bitmap keeps correctness); large rings attribute fully.
func RingAblation(scale Scale, capacities []int) ([]RingAblationRow, error) {
	if len(capacities) == 0 {
		capacities = []int{memory.DefaultPMLCapacity, 1 << 14, 1 << 20}
	}
	var rows []RingAblationRow
	for _, capacity := range capacities {
		clk := vclock.NewSim()
		pair, err := NewHeterogeneousPair()
		if err != nil {
			return nil, err
		}
		_ = clk
		vm, err := pair.Primary.CreateVM(hypervisor.VMConfig{
			Name: "ablate", MemBytes: GB(1), VCPUs: 4, PMLRingCap: capacity,
		})
		if err != nil {
			return nil, err
		}
		w, err := workload.NewMemoryBench(2, 400_000, scale.Seed)
		if err != nil {
			return nil, err
		}
		res, err := migration.Migrate(vm, memory.NewGuestMemory(GB(1)), migration.Config{
			Transport: pair.Link, Mode: migration.ModeHERE, Workload: w,
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, RingAblationRow{
			RingCapacity: capacity,
			Problematic:  res.ProblematicResent,
			Overflowed:   res.ProblematicResent == 0,
		})
	}
	return rows, nil
}

// RenderRingAblation formats the ring-capacity sweep.
func RenderRingAblation(rows []RingAblationRow) *metrics.Table {
	tab := metrics.NewTable("Ablation: per-vCPU PML ring capacity (seeding attribution)",
		"RingCap", "ProblematicResent")
	for _, r := range rows {
		tab.AddRow(r.RingCapacity, r.Problematic)
	}
	return tab
}

// CompressionRow is one compression-ablation measurement.
type CompressionRow struct {
	Link        string
	Compression bool
	PauseSecs   float64
}

// CompressionAblation measures checkpoint pause with and without
// per-page compression on a fast interconnect and on a constrained
// link. Compression trades CPU for bytes: it must help on the slow
// link and hurt (or be neutral) on the fast one — the classic
// crossover that decides whether to enable it.
func CompressionAblation(scale Scale) ([]CompressionRow, error) {
	links := []simnet.LinkConfig{simnet.OmniPath100(), simnet.GigE()}
	var out []CompressionRow
	for _, linkCfg := range links {
		for _, compress := range []bool{false, true} {
			pair, err := NewHeterogeneousPair()
			if err != nil {
				return nil, err
			}
			link, err := simnet.NewLink(linkCfg, pair.Clock)
			if err != nil {
				return nil, err
			}
			pair.Link = link
			vm, err := pair.ProtectedVM("compress", GB(scale.LoadedGB), 4)
			if err != nil {
				return nil, err
			}
			w, err := workload.NewMemoryBench(30, scale.WriteRatePages, scale.Seed)
			if err != nil {
				return nil, err
			}
			rep, err := newReplicator(vm, pair, replication.Config{
				Engine:      replication.EngineHERE,
				Period:      4 * time.Second,
				Workload:    w,
				Compression: compress,
			})
			if err != nil {
				return nil, err
			}
			if _, err := rep.Seed(); err != nil {
				return nil, err
			}
			stats, err := rep.RunFor(secs(scale.RunSeconds))
			if err != nil {
				return nil, err
			}
			var total time.Duration
			for _, st := range stats {
				total += st.Pause
			}
			out = append(out, CompressionRow{
				Link:        linkCfg.Name,
				Compression: compress,
				PauseSecs:   (total / time.Duration(len(stats))).Seconds(),
			})
		}
	}
	return out, nil
}

// RenderCompression formats the compression ablation.
func RenderCompression(rows []CompressionRow) *metrics.Table {
	tab := metrics.NewTable("Ablation: checkpoint compression vs link speed",
		"Link", "Compression", "MeanPause(ms)")
	for _, r := range rows {
		mode := "off"
		if r.Compression {
			mode = "on"
		}
		tab.AddRow(r.Link, mode, r.PauseSecs*1e3)
	}
	return tab
}
