// Package ycsb implements the YCSB benchmark suite's core workloads
// A–F (§8.6, Table 4: "Database benchmark suite") against the
// in-guest key-value store of internal/kvstore.
//
// Request distributions follow the YCSB definitions: Zipfian key
// popularity for A/B/C/E/F, latest-biased for D, uniform scan lengths
// for E. Operation costs are calibrated so an unreplicated VM scores
// in the paper's Fig 11 range (workload A ≈ 43 kops/s baseline).
//
// To keep simulated multi-minute runs fast, one in SampleRate
// operations is executed for real against the store (moving real
// bytes through guest memory); the remainder are modeled by dirtying
// statistically equivalent pages in the store's region. All
// operations count toward throughput.
package ycsb

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/kvstore"
	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/workload"
)

// Kind names a YCSB core workload.
type Kind string

// The six core workloads.
const (
	WorkloadA Kind = "A" // 50% read, 50% update, zipfian
	WorkloadB Kind = "B" // 95% read, 5% update, zipfian
	WorkloadC Kind = "C" // 100% read, zipfian
	WorkloadD Kind = "D" // 95% read, 5% insert, latest
	WorkloadE Kind = "E" // 95% scan, 5% insert, zipfian
	WorkloadF Kind = "F" // 50% read, 50% read-modify-write, zipfian
)

// Kinds lists the workloads in order.
func Kinds() []Kind {
	return []Kind{WorkloadA, WorkloadB, WorkloadC, WorkloadD, WorkloadE, WorkloadF}
}

// Mix is the operation mix of one workload.
type Mix struct {
	Read, Update, Insert, Scan, RMW float64
	Latest                          bool // latest-biased key choice (workload D)
	ScanMax                         int  // maximum scan length (workload E)
}

// MixFor returns the standard mix of a core workload.
func MixFor(k Kind) (Mix, error) {
	switch k {
	case WorkloadA:
		return Mix{Read: 0.5, Update: 0.5}, nil
	case WorkloadB:
		return Mix{Read: 0.95, Update: 0.05}, nil
	case WorkloadC:
		return Mix{Read: 1.0}, nil
	case WorkloadD:
		return Mix{Read: 0.95, Insert: 0.05, Latest: true}, nil
	case WorkloadE:
		return Mix{Scan: 0.95, Insert: 0.05, ScanMax: 100}, nil
	case WorkloadF:
		return Mix{Read: 0.5, RMW: 0.5}, nil
	default:
		return Mix{}, fmt.Errorf("ycsb: unknown workload %q", k)
	}
}

// Guest-time operation costs, calibrated to the paper's baselines.
const (
	costRead   = 9 * time.Microsecond
	costUpdate = 30 * time.Microsecond
	costInsert = 35 * time.Microsecond
	costScan   = 150 * time.Microsecond
	costRMW    = costRead + costUpdate
)

// Guest page-cache churn per operation. A database VM dirties far
// more memory than its logical writes: block/page cache turnover on
// reads, and write-ahead log + memtable + compaction traffic on
// writes (RocksDB's write amplification). These constants reproduce
// the paper's observation that even read-mostly YCSB workloads suffer
// 30–50% degradation under second-scale checkpointing (Fig 11).
const (
	churnReadPages  = 4  // cache turnover per read
	churnWritePages = 25 // WAL + memtable + compaction per write
	churnScanPages  = 50 // bulk cache turnover per scan
)

// AvgOpCost reports the expected guest time per operation for a mix.
func (m Mix) AvgOpCost() time.Duration {
	c := m.Read*float64(costRead) +
		m.Update*float64(costUpdate) +
		m.Insert*float64(costInsert) +
		m.Scan*float64(costScan) +
		m.RMW*float64(costRMW)
	return time.Duration(c)
}

// DefaultSampleRate executes one in this many operations for real.
const DefaultSampleRate = 64

// Config parameterizes a YCSB workload instance.
type Config struct {
	Kind Kind
	// RecordCount is the number of records loaded before the run
	// (YCSB's recordcount; the paper uses 1M — scale down for quick
	// tests).
	RecordCount int
	// ValueSize is the value payload per record (default 100 bytes).
	ValueSize int
	// SampleRate executes 1/SampleRate operations for real
	// (DefaultSampleRate if 0; 1 executes everything).
	SampleRate int
	// Seed fixes the request sequence.
	Seed int64
	// DisableChurn turns off the guest page-cache churn model (unit
	// tests that need byte-exact behavior only).
	DisableChurn bool
}

// Workload drives one YCSB workload against an in-guest store. It
// implements workload.Workload. Not safe for concurrent use.
type Workload struct {
	kind       Kind
	mix        Mix
	store      *kvstore.Store
	rng        *rand.Rand
	zipf       *rand.Zipf
	records    int
	valueSize  int
	sampleRate int
	opIndex    uint64
	vcpus      int
	loaded     bool
	churn      bool
	carry      time.Duration // unconsumed guest time from previous steps
}

var _ workload.Workload = (*Workload)(nil)

// New builds a YCSB workload bound to the given store.
func New(store *kvstore.Store, cfg Config) (*Workload, error) {
	if store == nil {
		return nil, errors.New("ycsb: nil store")
	}
	mix, err := MixFor(cfg.Kind)
	if err != nil {
		return nil, err
	}
	if cfg.RecordCount <= 0 {
		return nil, fmt.Errorf("ycsb: record count %d must be positive", cfg.RecordCount)
	}
	if cfg.ValueSize == 0 {
		cfg.ValueSize = 100
	}
	if cfg.ValueSize < 0 {
		return nil, fmt.Errorf("ycsb: negative value size")
	}
	if cfg.SampleRate == 0 {
		cfg.SampleRate = DefaultSampleRate
	}
	if cfg.SampleRate < 1 {
		return nil, fmt.Errorf("ycsb: sample rate %d must be ≥ 1", cfg.SampleRate)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	return &Workload{
		kind:       cfg.Kind,
		mix:        mix,
		store:      store,
		rng:        rng,
		zipf:       rand.NewZipf(rng, 1.1, 1, uint64(cfg.RecordCount-1)),
		records:    cfg.RecordCount,
		valueSize:  cfg.ValueSize,
		sampleRate: cfg.SampleRate,
		churn:      !cfg.DisableChurn,
	}, nil
}

// Name implements workload.Workload.
func (w *Workload) Name() string { return "ycsb-" + string(w.kind) }

// BaselineThroughput reports the unreplicated operations/second this
// workload achieves (the Fig 11 "Xen" bars).
func (w *Workload) BaselineThroughput() float64 {
	return float64(time.Second) / float64(w.mix.AvgOpCost())
}

func key(i int) []byte { return []byte(fmt.Sprintf("user%08d", i)) }

// Load inserts the initial records for real (YCSB's load phase). The
// sampled execution path needs every key present.
func (w *Workload) Load(vcpu int) error {
	val := make([]byte, w.valueSize)
	for i := range val {
		val[i] = byte('a' + i%26)
	}
	for i := 0; i < w.records; i++ {
		if err := w.store.Put(vcpu, key(i), val); err != nil {
			return fmt.Errorf("ycsb load: record %d: %w", i, err)
		}
	}
	w.loaded = true
	return nil
}

// Loaded reports whether the load phase ran.
func (w *Workload) Loaded() bool { return w.loaded }

func (w *Workload) pickKey() int {
	z := int(w.zipf.Uint64())
	if w.mix.Latest {
		// Latest distribution: popularity anchored at the newest key.
		return (w.records - 1 - z + w.records) % w.records
	}
	return z
}

// Step implements workload.Workload: executes ⌊d/avgOpCost⌋
// operations, a 1/SampleRate subset for real.
func (w *Workload) Step(vm *hypervisor.VM, d time.Duration) (workload.StepStats, error) {
	if !w.loaded {
		return workload.StepStats{}, errors.New("ycsb: Load must run before Step")
	}
	if d <= 0 {
		return workload.StepStats{}, nil
	}
	avg := w.mix.AvgOpCost()
	budget := w.carry + d
	n := int(budget / avg)
	w.carry = budget - time.Duration(n)*avg
	stats := workload.StepStats{}
	w.vcpus = vm.NumVCPUs()
	for i := 0; i < n; i++ {
		real := w.opIndex%uint64(w.sampleRate) == 0
		w.opIndex++
		if err := w.doOp(vm, real, &stats); err != nil {
			return stats, err
		}
		stats.Ops++
	}
	return stats, nil
}

func (w *Workload) doOp(vm *hypervisor.VM, real bool, stats *workload.StepStats) error {
	vcpu := int(w.opIndex) % w.vcpus
	r := w.rng.Float64()
	mix := w.mix
	switch {
	case r < mix.Read:
		if real {
			if _, err := w.store.Get(key(w.pickKey())); err != nil &&
				!errors.Is(err, kvstore.ErrNotFound) {
				return fmt.Errorf("ycsb read: %w", err)
			}
		}
		return w.cacheChurn(vm, vcpu, churnReadPages)
	case r < mix.Read+mix.Update:
		stats.Writes++
		if real {
			if err := w.realPut(vcpu, key(w.pickKey())); err != nil {
				return err
			}
		} else if err := w.modelWrite(vm, vcpu); err != nil {
			return err
		}
		return w.cacheChurn(vm, vcpu, churnReadPages+churnWritePages)
	case r < mix.Read+mix.Update+mix.Insert:
		stats.Writes++
		k := w.records
		w.records++
		if real {
			if err := w.realPut(vcpu, key(k)); err != nil {
				return err
			}
		} else if err := w.modelWrite(vm, vcpu); err != nil {
			return err
		}
		return w.cacheChurn(vm, vcpu, churnReadPages+churnWritePages)
	case r < mix.Read+mix.Update+mix.Insert+mix.Scan:
		if real {
			n := 1
			if mix.ScanMax > 1 {
				n += w.rng.Intn(mix.ScanMax)
			}
			if _, err := w.store.Scan(n); err != nil {
				return fmt.Errorf("ycsb scan: %w", err)
			}
		}
		return w.cacheChurn(vm, vcpu, churnScanPages)
	default: // read-modify-write
		stats.Writes++
		k := key(w.pickKey())
		if real {
			if _, err := w.store.Get(k); err != nil && !errors.Is(err, kvstore.ErrNotFound) {
				return fmt.Errorf("ycsb rmw: %w", err)
			}
			if err := w.realPut(vcpu, k); err != nil {
				return err
			}
		} else if err := w.modelWrite(vm, vcpu); err != nil {
			return err
		}
		return w.cacheChurn(vm, vcpu, 2*churnReadPages+churnWritePages)
	}
}

// cacheChurn dirties n pages of the guest page cache — the memory
// between the store region and the end of guest memory.
func (w *Workload) cacheChurn(vm *hypervisor.VM, vcpu, n int) error {
	if !w.churn || n <= 0 {
		return nil
	}
	base, size := w.store.Region()
	first := (base + memory.Addr(size) + memory.PageSize - 1).Page()
	total := vm.Memory().NumPages()
	if first >= total {
		return nil
	}
	span := int64(total - first)
	for i := 0; i < n; i++ {
		p := first + memory.PageNum(w.rng.Int63n(span))
		if err := vm.TouchPage(vcpu, p); err != nil {
			return fmt.Errorf("ycsb churn: %w", err)
		}
	}
	return nil
}

func (w *Workload) realPut(vcpu int, k []byte) error {
	val := make([]byte, w.valueSize)
	for i := range val {
		val[i] = byte(w.rng.Intn(256))
	}
	err := w.store.Put(vcpu, k, val)
	if errors.Is(err, kvstore.ErrFull) {
		// The log filled up; a real database would compact. Model the
		// compaction as a fresh log: statistically the dirty-page
		// behavior continues, and sampled reads still hit loaded keys.
		return w.modelFull()
	}
	return err
}

// modelFull absorbs log exhaustion; subsequent real writes degrade to
// modeled writes.
func (w *Workload) modelFull() error {
	w.sampleRate = 1 << 30 // effectively stop real execution
	return nil
}

// modelWrite dirties the statistically expected pages of a store
// write: the record log page, the bucket page and the header page.
func (w *Workload) modelWrite(vm *hypervisor.VM, vcpu int) error {
	base, size := w.store.Region()
	pages := memory.PageNum(size / memory.PageSize)
	if pages == 0 {
		return nil
	}
	first := base.Page()
	for i := 0; i < 2; i++ {
		p := first + memory.PageNum(w.rng.Int63n(int64(pages)))
		if err := vm.TouchPage(vcpu, p); err != nil {
			return fmt.Errorf("ycsb model write: %w", err)
		}
	}
	if err := vm.TouchPage(vcpu, first); err != nil { // header page
		return fmt.Errorf("ycsb model write: %w", err)
	}
	return nil
}
