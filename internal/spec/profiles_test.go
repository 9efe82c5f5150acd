package spec

import (
	"testing"
	"time"
)

// TestDirtyRatesPreserveCharacter: the profiles keep each benchmark's
// memory character — cactuBSSN and lbm stream memory, namd is
// cache-resident.
func TestDirtyRatesPreserveCharacter(t *testing.T) {
	dirty := map[Name]float64{}
	for n, p := range profiles {
		dirty[n] = float64(p.dirtyPages) * float64(time.Second) / float64(p.opCost)
	}
	if dirty[NAMD] > dirty[GCC] || dirty[NAMD] > dirty[LBM] {
		t.Fatalf("namd should dirty the least: %v", dirty)
	}
	if dirty[CactuBSSN] < dirty[GCC] {
		t.Fatalf("cactuBSSN should out-dirty gcc: %v", dirty)
	}
}
