package main

// Scale is how much of a workload one run executes. Every loop of a
// phase runs until its time budget is spent AND its sample floor is
// met, so the floors alone fix the run when the budget is zero (the
// smoke scale, which is therefore exactly repeatable in its counts).
type Scale struct {
	Guests   int // protected guests
	GuestMiB int // memory per guest
	Setups   int // how many times the stack is set up (setup_s is their median)
	Warmup   int // warm-up rounds inside set-up
	Rounds   int // floor on steady rounds
	Protects int // floor on protect samples
	Fails    int // floor on forced failovers
	Restarts int // crash/restart cycles (not time-boxed)
}

// Workload is one set of inputs: a topology, a guest population and
// the writes each guest issues per round.
type Workload struct {
	Name string
	Why  string

	TCP         bool // two nodes over loopback TCP; false = one node, in-process simnet links
	Groups      int  // placement groups (journal group commit when > 1)
	Secondaries int  // replication chain width
	PopulatePct int  // share of guest memory written during set-up

	// Per guest per round.
	FullPages   int // full-page overwrites of populated pages
	SmallWrites int // 64-byte stores into populated pages
	Touches     int // TouchPage on never-written pages
	// Per round.
	Status int // GET /v1/vms/{name} calls (GET /v1/vms is always 2)

	// What the workload is for, in terms of the traced run's attribution
	// of the tick: the layers that together must hold the largest share,
	// and the layers that must each stay under a tenth.
	Dominant, Negligible []string

	Full, Smoke Scale
}

// Phase shares of the --seconds budget. The remainder covers the
// integrity hashes, the restarts (a fixed count) and the forced GCs.
const (
	steadyShare   = 0.66
	protectShare  = 0.04
	failoverShare = 0.15
	// In a traced run the steady budget is split between a probes-off
	// stretch (the baseline of trace.overhead_ratio) and the traced one.
	tracedPlainShare = 0.30
	tracedShare      = 0.36
)

// Floors a full-scale run must meet to count (the smoke scale is
// exempt): below them the medians are not steady enough to gate on.
const (
	steadyFloorS   = 15.0
	failoverFloorS = 3.0
	failoverFloorN = 64
	setupFloorS    = 2.0
	statusFloorN   = 3000
	listFloorN     = 300
)

// defaultSeconds is the measuring time the floors above are met with;
// BENCHMARK.json's run_seconds is the same number.
const defaultSeconds = 24

const (
	listPerRound    = 2
	scratchGuestKiB = 256
	settleMiB       = 64 // guest memory failed over between two forced collections in phase 4
	hostsPerKind    = 3
)

var workloads = []Workload{
	{
		Name: "tcp-bulk",
		Why: "2 x 64 MiB guests rewriting 2048 pages a round over loopback TCP: " +
			"memory reads, raw wire encode/decode and transport bytes dominate the round",
		TCP: true, Groups: 1, Secondaries: 1, PopulatePct: 100,
		FullPages: 2048, Status: 10,
		Dominant:   []string{"wire", "transport", "memory"},
		Negligible: []string{"journal", "replication", "hypervisor+translate"},
		Full:       Scale{Guests: 2, GuestMiB: 64, Setups: 3, Warmup: 34, Rounds: 300, Protects: 32, Fails: 12, Restarts: 11},
		Smoke:      Scale{Guests: 2, GuestMiB: 16, Setups: 1, Warmup: 2, Rounds: 6, Protects: 3, Fails: 2, Restarts: 2},
	},
	{
		Name: "tcp-fleet",
		Why: "192 x 1 MiB guests dirtying 16 pages a round, 4 placement groups, journal group commit: " +
			"per-checkpoint fixed costs (round trip, fsync, tick bookkeeping) and O(fleet) reads dominate",
		TCP: true, Groups: 4, Secondaries: 1, PopulatePct: 100,
		FullPages: 16, Status: 20,
		Dominant:   []string{"journal"},
		Negligible: []string{"memory", "replication", "hypervisor+translate"},
		Full:       Scale{Guests: 192, GuestMiB: 1, Setups: 3, Warmup: 12, Rounds: 150, Protects: 32, Fails: 64, Restarts: 11},
		Smoke:      Scale{Guests: 12, GuestMiB: 1, Setups: 1, Warmup: 2, Rounds: 6, Protects: 3, Fails: 4, Restarts: 2},
	},
	{
		Name: "local-chain",
		Why: "one node, 16 x 8 MiB guests on 2-secondary simnet chains, small in-page stores plus touched zero pages: " +
			"the simnet branch, per-leg encode/decode and zero-run frames, which the TCP workloads never run",
		TCP: false, Groups: 1, Secondaries: 2, PopulatePct: 50,
		SmallWrites: 192, Touches: 64, Status: 10,
		Dominant:   []string{"wire"},
		Negligible: []string{"memory", "hypervisor+translate"},
		Full:       Scale{Guests: 16, GuestMiB: 8, Setups: 3, Warmup: 50, Rounds: 300, Protects: 32, Fails: 64, Restarts: 11},
		Smoke:      Scale{Guests: 3, GuestMiB: 4, Setups: 1, Warmup: 2, Rounds: 6, Protects: 3, Fails: 3, Restarts: 2},
	},
}

func workloadByName(name string) (Workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}
