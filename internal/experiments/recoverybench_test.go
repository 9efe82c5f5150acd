package experiments

import (
	"testing"
)

// TestRecoveryBenchClaims runs the seeded incident at quick scale and
// checks the tentpole contrast end to end: the in-place row recovers
// faster, ships fewer pages, loses no epochs, and keeps its fencing
// generation, while the failover row pays for a full re-seed and a
// generation bump.
func TestRecoveryBenchClaims(t *testing.T) {
	rows, err := RecoveryBench(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	byStrategy := map[string]RecoveryBenchRow{}
	for _, r := range rows {
		byStrategy[r.Strategy] = r
	}
	ip, ok := byStrategy["in-place"]
	if !ok {
		t.Fatal("missing in-place row")
	}
	fo, ok := byStrategy["failover"]
	if !ok {
		t.Fatal("missing failover row")
	}
	if ip.RecoveryMS >= fo.RecoveryMS {
		t.Errorf("in-place recovery %v ms not faster than failover %v ms", ip.RecoveryMS, fo.RecoveryMS)
	}
	if ip.PagesResent >= fo.PagesResent {
		t.Errorf("in-place resent %d pages, failover %d — no delta-resync win", ip.PagesResent, fo.PagesResent)
	}
	if ip.Generation != 0 {
		t.Errorf("in-place bumped generation to %d", ip.Generation)
	}
	if fo.Generation == 0 {
		t.Error("failover did not bump the generation")
	}
	if ip.InPlace < 1 || ip.Escalations != 0 {
		t.Errorf("in-place counters: inplace=%d escalations=%d", ip.InPlace, ip.Escalations)
	}
	if fo.Attempts != 0 || fo.InPlace != 0 {
		t.Errorf("failover row ran the ladder: attempts=%d inplace=%d", fo.Attempts, fo.InPlace)
	}
	if ip.EpochsRolledBack > fo.EpochsRolledBack {
		t.Errorf("in-place rolled back %d epochs, failover %d", ip.EpochsRolledBack, fo.EpochsRolledBack)
	}
}
