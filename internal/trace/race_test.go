//go:build race

package trace

// raceBuild: the race runtime allocates on its own inside the
// functions whose allocations are counted, so allocation counts are
// not held under -race.
const raceBuild = true
