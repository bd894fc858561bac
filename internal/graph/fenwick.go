package graph

// fanout is the counted tree's branching factor. Sixteen int64 sums are
// two adjacent cache lines, so a descent reads one short forward run per
// level; fanouts 8, 32 and 64 measured slower (BenchmarkSelection).
const fanout = 16

// Fenwick is a 16-ary counted tree over int64 weights, used to sample a
// vertex with probability proportional to its current reduced degree and
// to update a degree, each in O(log16 n) adjacent words. The edge-switch
// engines keep one tree per partition: entry i is the reduced degree of
// the i-th local vertex, so the total is the number of edges owned by the
// partition and a uniform edge pick is (weighted vertex pick, uniform
// neighbour pick).
type Fenwick struct {
	// levels[0] holds the slot weights; levels[l][j] is the sum of
	// levels[l-1][j*fanout : (j+1)*fanout], up to a top level of at most
	// fanout entries.
	levels [][]int64
	total  int64
}

// NewFenwick returns a tree over n zero weights.
func NewFenwick(n int) *Fenwick {
	f := &Fenwick{levels: [][]int64{make([]int64, n)}}
	for s := n; s > fanout; {
		s = (s + fanout - 1) / fanout
		f.levels = append(f.levels, make([]int64, s))
	}
	return f
}

// NewFenwickFrom bulk-builds a tree over the given initial weights in
// O(n), against n individual Adds. Used by Graph.Reindex after a sharded
// bulk load.
func NewFenwickFrom(vals []int64) *Fenwick {
	f := NewFenwick(len(vals))
	copy(f.levels[0], vals)
	for _, v := range vals {
		f.total += v
	}
	for l := 1; l < len(f.levels); l++ {
		up := f.levels[l]
		for j, v := range f.levels[l-1] {
			up[j/fanout] += v
		}
	}
	return f
}

// Len reports the number of slots.
func (f *Fenwick) Len() int { return len(f.levels[0]) }

// Total reports the sum of all weights.
func (f *Fenwick) Total() int64 { return f.total }

// Add adds delta (which may be negative) to slot i: one word per level.
func (f *Fenwick) Add(i int, delta int64) {
	f.total += delta
	for _, lv := range f.levels {
		lv[i] += delta
		i /= fanout
	}
}

// Get returns the weight of slot i.
func (f *Fenwick) Get(i int) int64 { return f.levels[0][i] }

// FindByPrefix returns the smallest slot i whose weights [0, i] sum past
// target, i.e. the slot selected by a uniform draw target in [0, Total()).
// It also returns the offset of target within that slot, which the caller
// uses as the neighbour rank to select. Each level scans at most fanout
// adjacent sums of the block the level above chose. It panics if target
// is out of range.
func (f *Fenwick) FindByPrefix(target int64) (slot int, offset int64) {
	if target < 0 || target >= f.total {
		panic("graph: Fenwick.FindByPrefix target out of range")
	}
	for l := len(f.levels) - 1; l >= 0; l-- {
		lv := f.levels[l]
		for slot *= fanout; target >= lv[slot]; slot++ {
			target -= lv[slot]
		}
	}
	return slot, target
}
