package fleet_test

import (
	"fmt"
	"testing"

	"github.com/here-ft/here/internal/fleet"
	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/orchestrator"
	"github.com/here-ft/here/internal/vclock"
)

// sched builds a scheduler with the given group count and host layout.
// kinds: "x" for a Xen host, "k" for a KVM host.
func sched(t *testing.T, groups int, kinds string) (*fleet.Scheduler, []*hypervisor.Host, *vclock.SimClock) {
	t.Helper()
	clk := vclock.NewSim()
	s, err := fleet.New(fleet.Config{
		Groups:       groups,
		Orchestrator: orchestrator.Config{Clock: clk},
	})
	if err != nil {
		t.Fatal(err)
	}
	hosts := newHosts(t, clk, kinds)
	for _, h := range hosts {
		if err := s.AddHost(h); err != nil {
			t.Fatal(err)
		}
	}
	return s, hosts, clk
}

func spec(name string) orchestrator.VMSpec {
	return orchestrator.VMSpec{
		Name: name, MemoryBytes: 64 * memory.PageSize, VCPUs: 1,
	}
}

// namesAcrossGroups returns VM names chosen so every group owns at
// least one, plus the full list.
func namesAcrossGroups(t *testing.T, s *fleet.Scheduler, perGroup int) []string {
	t.Helper()
	byGroup := make(map[int][]string)
	var out []string
	for i := 0; len(out) < s.Groups()*perGroup && i < 100000; i++ {
		name := fmt.Sprintf("vm-%04d", i)
		g := s.Owner(name)
		if len(byGroup[g]) < perGroup {
			byGroup[g] = append(byGroup[g], name)
			out = append(out, name)
		}
	}
	if len(out) < s.Groups()*perGroup {
		t.Fatalf("could not find %d names per group across %d groups", perGroup, s.Groups())
	}
	return out
}

// TestShardingRoutesConsistently: the ring must give every name
// exactly one owner, stable across calls, and the routed surface must
// agree with the merged one.
func TestShardingRoutesConsistently(t *testing.T) {
	s, _, _ := sched(t, 4, "xxkk")
	names := namesAcrossGroups(t, s, 2)
	for _, n := range names {
		if _, err := s.Protect(spec(n)); err != nil {
			t.Fatalf("protect %s: %v", n, err)
		}
	}
	if got := s.ProtectionCount(); got != len(names) {
		t.Fatalf("ProtectionCount = %d, want %d", got, len(names))
	}
	if got := len(s.StatusAll()); got != len(names) {
		t.Fatalf("StatusAll rows = %d, want %d", got, len(names))
	}
	all := s.StatusAll()
	for i := 1; i < len(all); i++ {
		if all[i-1].Name >= all[i].Name {
			t.Fatalf("StatusAll not sorted: %q before %q", all[i-1].Name, all[i].Name)
		}
	}
	for _, n := range names {
		owner := s.Owner(n)
		if owner < 0 || owner >= s.Groups() {
			t.Fatalf("Owner(%s) = %d out of range", n, owner)
		}
		// The owning group sees it; the others must not.
		for g := 0; g < s.Groups(); g++ {
			_, err := s.Group(g).Status(n)
			if g == owner && err != nil {
				t.Fatalf("group %d should own %s: %v", g, n, err)
			}
			if g != owner && err == nil {
				t.Fatalf("group %d sees %s owned by group %d", g, n, owner)
			}
		}
		st, err := s.Status(n)
		if err != nil || st.Name != n {
			t.Fatalf("Status(%s) = %+v, %v", n, st, err)
		}
	}
	// A foreign name must be refused by a non-owning group.
	foreign := names[0]
	wrong := (s.Owner(foreign) + 1) % s.Groups()
	if err := s.Unprotect(foreign); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Group(wrong).Protect(spec(foreign)); err == nil {
		t.Fatal("non-owning group accepted a foreign protection")
	}
	if _, err := s.Protect(spec(foreign)); err != nil {
		t.Fatalf("re-protect via scheduler: %v", err)
	}
}

// TestRingSpreadsSequentialNames: sequential names are what operators
// actually create (svc-1, svc-2, ...). The ring hash must avalanche
// them across groups — raw FNV-1a left tail-byte neighbors on one
// group's arc.
func TestRingSpreadsSequentialNames(t *testing.T) {
	s, _, _ := sched(t, 4, "xk")
	for _, prefix := range []string{"svc-%d", "vm-%d", "web%04d"} {
		counts := make(map[int]int)
		const n = 400
		for i := 0; i < n; i++ {
			counts[s.Owner(fmt.Sprintf(prefix, i))]++
		}
		for g := 0; g < s.Groups(); g++ {
			// Uniform share is n/4 = 100; demand at least a third of it.
			if counts[g] < n/12 {
				t.Fatalf("prefix %q: group %d owns %d of %d names (counts %v)",
					prefix, g, counts[g], n, counts)
			}
		}
	}
}

// TestTickAndGroupStatus: rounds run every group and the rollup
// reflects per-group protection counts in stable id order.
func TestTickAndGroupStatus(t *testing.T) {
	s, _, _ := sched(t, 3, "xxkk")
	names := namesAcrossGroups(t, s, 2)
	for _, n := range names {
		if _, err := s.Protect(spec(n)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := s.Tick(); err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
	}
	if got := s.Ticks(); got != 3 {
		t.Fatalf("Ticks = %d, want 3", got)
	}
	rows := s.GroupStatus()
	if len(rows) != 3 {
		t.Fatalf("GroupStatus rows = %d, want 3", len(rows))
	}
	total := 0
	for i, row := range rows {
		if row.Group != i {
			t.Fatalf("row %d has group id %d (want stable id order)", i, row.Group)
		}
		if row.Protections != 2 {
			t.Fatalf("group %d protections = %d, want 2", row.Group, row.Protections)
		}
		if row.Ticks != 3 {
			t.Fatalf("group %d ticks = %d, want 3", row.Group, row.Ticks)
		}
		if row.LastTick <= 0 {
			t.Fatalf("group %d last tick = %v, want > 0", row.Group, row.LastTick)
		}
		total += row.Protections
	}
	if total != s.ProtectionCount() {
		t.Fatalf("rollup total %d != ProtectionCount %d", total, s.ProtectionCount())
	}
	// Every protection made checkpoint progress.
	for _, st := range s.StatusAll() {
		if st.Epoch == 0 {
			t.Fatalf("%s made no progress after 3 rounds", st.Name)
		}
	}
}

// BenchmarkTick is one Scheduler.Tick over a settled fleet: n idle
// protections in 4 placement groups on three Xen and three KVM hosts,
// simnet links, no journal. Every group runs its round in parallel,
// so ns/op is the slowest group's round: the protection loop's fixed
// cost per guest, with nothing dirty to ship.
func BenchmarkTick(b *testing.B) {
	for _, n := range []int{192, 10000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			clk := vclock.NewSim()
			s, err := fleet.New(fleet.Config{Groups: 4, Orchestrator: orchestrator.Config{Clock: clk}})
			if err != nil {
				b.Fatal(err)
			}
			for _, h := range newHosts(b, clk, "xxxkkk") {
				if err := s.AddHost(h); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < n; i++ {
				if _, err := s.Protect(spec(fmt.Sprintf("vm-%05d", i))); err != nil {
					b.Fatal(err)
				}
			}
			settleFleet(b, s)
			b.ReportAllocs()
			for b.Loop() {
				if err := s.Tick(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
