package harness

import (
	"encoding/binary"
	"math/rand"
)

// PageBytes is the guest page size the generator produces.
const PageBytes = 4096

// PoolPages is the number of pre-generated page images. It is prime so
// that the pool never falls into step with the page walks: a guest's
// walk returns to a page after a whole number of rounds, and a round
// draws a fixed number of images, so with a pool size sharing a factor
// with that product (256 did, on every workload) a page would be
// overwritten with the very bytes it already holds — a store that
// changes nothing, which no replica check can see go missing and every
// content-aware codec encodes for free.
const PoolPages = 251

// PageGen is the benchmark's guest: a seeded source of page contents.
// Everything is generated up front, so drawing in the steady state
// allocates nothing and the same seed yields the same sequence of
// stores. Each store drawn carries its sequence number in its first 8
// bytes, so no two stores are byte-identical and a store always changes
// the memory it lands on.
type PageGen struct {
	pool  [][]byte // pre-generated page images
	small [][]byte // pre-generated 64-byte stores
	next  int      // stores drawn so far; the cursor into pool / small
}

// NewPageGen pre-generates the page images (and as many 64-byte
// stores) from seed.
func NewPageGen(seed int64) *PageGen {
	rng := rand.New(rand.NewSource(seed))
	g := &PageGen{pool: make([][]byte, PoolPages), small: make([][]byte, PoolPages)}
	for i := range g.pool {
		g.pool[i] = make([]byte, PageBytes)
		rng.Read(g.pool[i])
		g.small[i] = make([]byte, 64)
		rng.Read(g.small[i])
	}
	return g
}

func (g *PageGen) draw(from [][]byte) []byte {
	g.next++
	b := from[g.next%len(from)]
	binary.LittleEndian.PutUint64(b, uint64(g.next))
	return b
}

// Page returns the next page image. The slice is the pool's own: it is
// valid until the image is drawn again, PoolPages draws later.
func (g *PageGen) Page() []byte { return g.draw(g.pool) }

// Small returns the next 64-byte store, on the same terms.
func (g *PageGen) Small() []byte { return g.draw(g.small) }

// PageWalk hands out page numbers of the range [lo, hi) in a seeded
// random order, cycling through the whole range before repeating one:
// any window of up to hi-lo consecutive draws holds distinct pages, so
// a round dirties exactly the number of pages it asks for.
type PageWalk struct {
	perm []uint64
	pos  int
}

// NewPageWalk shuffles [lo, hi) with seed.
func NewPageWalk(seed int64, lo, hi uint64) *PageWalk {
	rng := rand.New(rand.NewSource(seed))
	w := &PageWalk{perm: make([]uint64, hi-lo)}
	for i := range w.perm {
		w.perm[i] = lo + uint64(i)
	}
	rng.Shuffle(len(w.perm), func(i, j int) { w.perm[i], w.perm[j] = w.perm[j], w.perm[i] })
	return w
}

// Next returns the next page number of the walk.
func (w *PageWalk) Next() uint64 {
	p := w.perm[w.pos]
	w.pos++
	if w.pos == len(w.perm) {
		w.pos = 0
	}
	return p
}
