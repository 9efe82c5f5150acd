// Package migration implements the seeding phase of VM replication
// (paper §3.2 step ❷/❸ and §7.2): iterative pre-copy live migration of
// guest memory to the secondary host, in two variants:
//
//   - ModeXen — the stock Xen algorithm: one migration thread scans
//     the shared log-dirty bitmap and streams pages over a single
//     connection.
//   - ModeHERE — HERE's optimization: one migrator thread per vCPU.
//     The initial full-memory pass cannot attribute pages to vCPUs, so
//     it gains only network-stream parallelism; subsequent iterations
//     drain each vCPU's PML ring independently, parallelizing the
//     CPU-side work too. Pages transferred by several threads
//     ("problematic" pages, written by multiple vCPUs mid-copy) are
//     resent during the final stop-and-copy.
//
// The VM keeps executing its workload during every live iteration;
// only the final stop-and-copy pauses it. Migration ends with the VM
// paused and its memory and machine state materialized on the
// destination — the caller either resumes it there (pure migration) or
// enters continuous replication (seeding).
package migration

import (
	"errors"
	"fmt"
	"time"

	"github.com/here-ft/here/internal/arch"
	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/trace"
	"github.com/here-ft/here/internal/wire"
	"github.com/here-ft/here/internal/workload"
)

// Mode selects the migration algorithm.
type Mode int

// Migration algorithms.
const (
	// ModeXen is stock Xen live migration (single-threaded).
	ModeXen Mode = iota + 1
	// ModeHERE is HERE's multithreaded migration (§7.2).
	ModeHERE
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeXen:
		return "xen"
	case ModeHERE:
		return "here"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Defaults mirroring Xen's migration parameters.
const (
	// DefaultMaxIterations is Xen's live-iteration cap ("5 iterations
	// in the case of Xen", §3.2).
	DefaultMaxIterations = 5
	// DefaultStopThreshold is the dirty-page count below which the
	// final stop-and-copy is entered.
	DefaultStopThreshold = 256
)

// Transport carries the migration traffic: *simnet.Link for the
// deterministic in-process simulation, or a real network transport
// (*transport.Client). Structural typing keeps the packages decoupled.
type Transport interface {
	// Transfer moves (or models moving) bytes split across streams,
	// reporting the time it took.
	Transfer(bytes int64, streams int) (time.Duration, error)
}

// seedSender is the optional Transport extension a real network
// transport implements: the encoded seed stream itself crosses the
// wire and the peer replica applies it. A plain Transport only models
// the transfer cost while the stream is decoded locally.
type seedSender interface {
	SendSeed(round uint64, stream []byte) error
}

// Config parameterizes a migration.
type Config struct {
	// Transport carries the migration traffic.
	Transport Transport
	// Mode selects the algorithm.
	Mode Mode
	// Threads is the number of migrator threads for ModeHERE
	// (defaults to the VM's vCPU count). Ignored by ModeXen.
	Threads int
	// MaxIterations caps the live pre-copy iterations
	// (DefaultMaxIterations if 0).
	MaxIterations int
	// StopThreshold enters stop-and-copy once the dirty set is this
	// small (DefaultStopThreshold if 0).
	StopThreshold int
	// Workload keeps executing inside the guest during live
	// iterations (nil = idle guest).
	Workload workload.Workload
	// Codec encodes each batch into the checkpoint wire format. When
	// the migration seeds continuous replication this is the leg's
	// encoder, bound (wire.Encoder.Prime) to the destination memory so
	// later rounds delta against earlier ones. Nil uses a private
	// raw-mode encoder.
	Codec *wire.Encoder
	// Drift makes the migration converge a dst that already holds a copy
	// of this guest instead of filling it: a dirty log naming every page
	// where dst and the guest differ, apart from those in the guest's own
	// log. Nil fills dst from scratch.
	Drift *memory.DirtyBitmap
	// Logged, when set, receives every page the migration takes out of
	// the guest's dirty log (Drift included): what a further copy that was
	// current when that log began needs to reach the final state.
	Logged *memory.DirtyBitmap
	// Tracer records one "seed-round" span per pre-copy iteration
	// (Epoch is the iteration number) plus one for the final
	// stop-and-copy. Nil disables tracing.
	Tracer *trace.Tracer
}

// Result reports what a migration did.
type Result struct {
	// Duration is total migration time (Fig 6's metric).
	Duration time.Duration
	// Downtime is the stop-and-copy pause at the end.
	Downtime time.Duration
	// Iterations is the number of live pre-copy rounds.
	Iterations int
	// PagesSent counts page transfers, including resends.
	PagesSent int64
	// LaterPages is the part of PagesSent shipped after the first pass:
	// the later pre-copy rounds and the stop-and-copy.
	LaterPages int64
	// BytesSent is the traffic put on the link.
	BytesSent int64
	// ProblematicResent counts pages resent in stop-and-copy because
	// multiple vCPUs modified them mid-transfer (ModeHERE only).
	ProblematicResent int
	// FinalState is the machine state captured at the end; the VM is
	// left paused.
	FinalState arch.MachineState
	// Wire aggregates the wire codec's measured statistics across all
	// batches (raw vs encoded bytes, frame mix, encode time).
	Wire wire.Stats
}

// Migrate runs the seeding migration of vm's memory into dst.
// On success the VM is paused with its final state captured; dst holds
// a byte-identical copy of guest memory.
//
// With cfg.Drift, dst — a warm copy of this guest — is converged, not
// filled: the first pass carries only Drift and the guest's dirty log, no
// content is compared, and every round goes out, even an empty one, as
// overwrite frames — right against any replica content, such as a
// seedSender's peer's own copy, which the caller guarantees equals the
// guest outside that first pass (DESIGN §11). Without it dst is filled
// as ever, zero runs included.
func Migrate(vm *hypervisor.VM, dst *memory.GuestMemory, cfg Config) (Result, error) {
	var res Result
	if vm == nil || dst == nil {
		return res, errors.New("migration: nil vm or destination memory")
	}
	if cfg.Transport == nil {
		return res, errors.New("migration: nil transport")
	}
	if cfg.Mode != ModeXen && cfg.Mode != ModeHERE {
		return res, fmt.Errorf("migration: unknown mode %d", int(cfg.Mode))
	}
	if !vm.Running() {
		return res, errors.New("migration: vm is not running")
	}
	maxIter := cfg.MaxIterations
	if maxIter <= 0 {
		maxIter = DefaultMaxIterations
	}
	threshold := cfg.StopThreshold
	if threshold <= 0 {
		threshold = DefaultStopThreshold
	}
	threads := 1
	if cfg.Mode == ModeHERE {
		threads = cfg.Threads
		if threads <= 0 {
			threads = vm.NumVCPUs()
		}
	}

	enc := cfg.Codec
	if enc == nil {
		enc = wire.NewEncoder(false)
	}

	clock := vm.Hypervisor().Clock()
	costs := vm.Hypervisor().Costs()
	start := clock.Now()

	// Reset tracking so the migration sees a clean slate, then treat
	// every page as dirty for the initial full-memory pass — or, when
	// converging, the drift, folded into the dirty log.
	converge := cfg.Drift != nil
	bitmap := vm.Tracker().Bitmap()
	if converge {
		for _, p := range cfg.Drift.Peek() {
			bitmap.Set(p)
		}
	}
	batch := logged(cfg.Logged, bitmap.Snapshot())
	for v := 0; v < vm.NumVCPUs(); v++ {
		vm.Tracker().Ring(v).Drain()
	}
	if !converge {
		batch = make([]memory.PageNum, vm.Memory().NumPages())
		for i := range batch {
			batch[i] = memory.PageNum(i)
		}
	}
	firstPass := int64(len(batch))

	problematic := make(map[memory.PageNum]int)
	for iter := 1; ; iter++ {
		res.Iterations = iter
		initialPass := iter == 1
		iterStart := clock.Now()
		bytesBefore := res.BytesSent
		dur, err := transferBatch(vm, dst, batch, cfg.Mode, initialPass, converge, threads, costs, cfg.Transport, enc, &res)
		if err != nil {
			return res, err
		}
		cfg.Tracer.Span(trace.SpanSeedRound, int64(iter), iterStart, trace.Event{
			Engine: cfg.Mode.String(), Pages: len(batch),
			Bytes: res.BytesSent - bytesBefore,
		})
		// The guest executed during the whole transfer; its writes
		// form the next iteration's dirty set.
		if cfg.Workload != nil && dur > 0 {
			if _, err := cfg.Workload.Step(vm, dur); err != nil {
				return res, fmt.Errorf("migration: workload: %w", err)
			}
		}
		// HERE attributes dirty pages to vCPUs via the PML rings and
		// flags pages written by more than one vCPU as problematic.
		if cfg.Mode == ModeHERE {
			collectProblematic(vm, problematic)
		}
		batch = logged(cfg.Logged, bitmap.Snapshot())
		if len(batch) <= threshold || iter >= maxIter {
			break
		}
	}

	// Stop-and-copy: pause the guest, send the remaining dirty pages
	// plus any problematic pages, then the vCPU/device state record.
	pauseStart := clock.Now()
	vm.Pause()
	final := batch
	if len(problematic) > 0 {
		final = appendProblematic(final, problematic)
		res.ProblematicResent = len(problematic)
	}
	stopBytesBefore := res.BytesSent
	if _, err := transferBatch(vm, dst, final, cfg.Mode, false, converge, threads, costs, cfg.Transport, enc, &res); err != nil {
		return res, err
	}
	clock.Sleep(costs.StateRecord)
	cfg.Tracer.Span(trace.SpanSeedRound, int64(res.Iterations+1), pauseStart, trace.Event{
		Engine: cfg.Mode.String(), Pages: len(final),
		Bytes: res.BytesSent - stopBytesBefore, Note: "stop-and-copy",
	})
	state, err := vm.CaptureState()
	if err != nil {
		return res, fmt.Errorf("migration: capture: %w", err)
	}
	res.FinalState = state
	res.LaterPages = res.PagesSent - firstPass
	res.Downtime = clock.Since(pauseStart)
	res.Duration = clock.Since(start)
	return res, nil
}

// logged notes a dirty-log snapshot in Config.Logged and returns it.
func logged(into *memory.DirtyBitmap, batch []memory.PageNum) []memory.PageNum {
	if into != nil {
		for _, p := range batch {
			into.Set(p)
		}
	}
	return batch
}

// transferBatch encodes one batch of pages into a wire stream, accounts
// the cost of sending it, and decodes it into the destination (converge:
// overwrite frames, an empty batch still sent). Cost model, DESIGN.md §5:
//
//	scan:  totalPages × ScanPerPage, divided across threads
//	cpu:   n × MigratePerPage — serial on the initial full pass (pages
//	       unattributed to vCPUs) and under ModeXen; divided across
//	       threads on HERE's ring-driven iterations
//	net:   link transfer of the measured stream size with `threads`
//	       streams
func transferBatch(vm *hypervisor.VM, dst *memory.GuestMemory, pages []memory.PageNum,
	mode Mode, initialPass, converge bool, threads int, costs hypervisor.CostModel,
	link Transport, enc *wire.Encoder, res *Result) (time.Duration, error) {

	clock := vm.Hypervisor().Clock()
	begin := clock.Now()
	n := len(pages)

	scan := time.Duration(int64(costs.ScanPerPage) * int64(vm.Memory().NumPages()))
	cpu := time.Duration(int64(costs.MigratePerPage) * int64(n))
	if mode == ModeHERE {
		scan /= time.Duration(threads)
		if !initialPass {
			// Ring-driven iterations parallelize the per-page work,
			// but a share of it (grant mapping through the privileged
			// interface) stays serialized in the hypervisor.
			const serialShare = 0.30
			cpu = time.Duration(float64(cpu)*serialShare +
				float64(cpu)*(1-serialShare)/float64(threads))
		}
	}
	clock.Sleep(scan + cpu)

	if n > 0 || converge {
		var cp *wire.Checkpoint
		var err error
		if converge {
			cp, err = enc.EncodeOverwrite(vm.Memory(), pages, nil, nil, uint64(res.Iterations))
		} else {
			cp, err = enc.Encode(vm.Memory(), pages, nil, nil, uint64(res.Iterations), threads)
		}
		if err != nil {
			return 0, fmt.Errorf("migration: %w", err)
		}
		if sender, ok := link.(seedSender); ok {
			// Real transport: the stream itself crosses the wire, and the
			// return is the peer replica's acknowledgement of the round.
			if err := sender.SendSeed(uint64(res.Iterations), cp.Stream); err != nil {
				return 0, fmt.Errorf("migration: %w", err)
			}
		} else if _, err := link.Transfer(cp.WireSize, threads); err != nil {
			return 0, fmt.Errorf("migration: %w", err)
		}
		// Each batch lands on the destination before the next one is
		// encoded, so a codec bound to dst deltas against it at once.
		if _, err := wire.Decode(cp.Stream, dst); err != nil {
			return 0, fmt.Errorf("migration: apply: %w", err)
		}
		res.PagesSent += int64(n)
		res.BytesSent += cp.WireSize
		res.Wire.Add(cp.Stats)
	}
	return clock.Since(begin), nil
}

// collectProblematic drains every vCPU's PML ring and counts pages
// that appear in more than one ring since the last drain.
func collectProblematic(vm *hypervisor.VM, problematic map[memory.PageNum]int) {
	owner := make(map[memory.PageNum]int)
	for v := 0; v < vm.NumVCPUs(); v++ {
		ring := vm.Tracker().Ring(v)
		if ring == nil {
			continue
		}
		pages, overflowed := ring.Drain()
		if overflowed {
			// Ring overflow loses attribution; the shared bitmap still
			// has the pages, so correctness is unaffected — we only
			// lose the ability to flag problematic pages this round.
			continue
		}
		for _, p := range pages {
			if prev, ok := owner[p]; ok && prev != v {
				problematic[p]++
			}
			owner[p] = v
		}
	}
}

func appendProblematic(batch []memory.PageNum, problematic map[memory.PageNum]int) []memory.PageNum {
	seen := make(map[memory.PageNum]bool, len(batch))
	for _, p := range batch {
		seen[p] = true
	}
	for p := range problematic {
		if !seen[p] {
			batch = append(batch, p)
		}
	}
	return batch
}
