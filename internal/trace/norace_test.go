//go:build !race

package trace

// raceBuild: without the race runtime the fewest allocations of a few
// runs (leastAlloc) are the code's own.
const raceBuild = false
