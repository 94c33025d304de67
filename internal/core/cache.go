package core

import "math"

// marginCache caches the marginal utility of every (sensor, slot) pair
// against the current per-slot oracle states: gains (U(S∪{v})−U(S)) for
// the placement greedy, losses (U(S)−U(S∖{v})) for the removal greedy.
//
// Dirty-slot invariant: a greedy step mutates exactly one slot's oracle
// (the slot that received the Add or Remove). Oracles of every other
// slot are untouched, so their cached marginals remain *exactly* equal
// to what a fresh query would return — no submodular upper/lower-bound
// argument is needed, the values simply cannot have changed. Refreshing
// the single dirty column costs O(n) oracle calls, dropping the greedy
// hill-climb from O(n·T) oracle calls per step (the seed's
// ReferenceGreedy) to O(n) — and to O(rewritten) with the sparse
// refreshers, which report the entries they rewrote so the per-slot
// selection trees repair just those leaves (see runGreedyLoop).
//
// The cache is also the unit of sharding for the parallel engine:
// workers own disjoint sensor ranges [lo, hi) of each column, so
// fillSlot and the pending-list scans below are data-race-free by
// construction.
type marginCache struct {
	n, T int
	// vals[t*n+v] is the cached marginal of sensor v at slot t.
	vals []float64

	// Selection trees of the sequential greedy loop, one implicit
	// binary max-tree of keys per slot over the positions of the loop's
	// pending list: column t's tree is tree[t*2*size:(t+1)*2*size], node
	// 1 its root, node size+p the leaf of pending position p (−Inf when
	// dead: assigned, or padding past the list) and node i's children 2i
	// and 2i+1; every inner node holds the larger of its children's
	// keys. posOf[v] is v's pending position while v is a live leaf and
	// −1 otherwise; written receives the sensors a sparse refresh
	// rewrote. All three are reused across loops.
	size    int
	tree    []float64
	posOf   []int32
	written []int32
	up      []int32
}

func newMarginCache(n, T int) *marginCache {
	return &marginCache{n: n, T: T, vals: make([]float64, n*T)}
}

// at returns the cached marginal of (v, t).
func (c *marginCache) at(v, t int) float64 { return c.vals[t*c.n+v] }

// column returns slot t's whole cache column as a mutable slice — the
// buffer the bulk marginal fast path (submodular.BulkGainer /
// BulkLosser) writes into directly. Bulk fills overwrite the entries of
// assigned sensors too; that is harmless because every scan skips them.
func (c *marginCache) column(t int) []float64 { return c.vals[t*c.n : (t+1)*c.n] }

// buildTrees lays one selection tree per slot over pending (ascending,
// all unassigned), keying each leaf by sign times its cached marginal:
// the gain in placement mode (sign +1) and the negated loss in removal
// mode (sign −1), so both modes select the largest key.
func (c *marginCache) buildTrees(pending []int, sign float64) {
	c.size = 1
	for c.size < len(pending) {
		c.size <<= 1
	}
	if need := 2 * c.size * c.T; cap(c.tree) < need {
		c.tree = make([]float64, need)
	} else {
		c.tree = c.tree[:need]
	}
	if len(c.posOf) < c.n {
		c.posOf = make([]int32, c.n)
		for v := range c.posOf {
			c.posOf[v] = -1
		}
	}
	for p, v := range pending {
		c.posOf[v] = int32(p)
	}
	for t := 0; t < c.T; t++ {
		c.rebuildTree(t, pending, sign)
	}
}

// treeOf returns slot t's selection tree.
func (c *marginCache) treeOf(t int) []float64 {
	return c.tree[2*t*c.size : 2*(t+1)*c.size]
}

// rebuildTree recomputes slot t's whole tree from its cache column,
// bottom up: the fallback after a full-column refresh.
func (c *marginCache) rebuildTree(t int, pending []int, sign float64) {
	tr, col := c.treeOf(t), c.column(t)
	leaves := tr[c.size:]
	for p := range leaves {
		leaves[p] = math.Inf(-1)
	}
	for p, v := range pending {
		if c.posOf[v] >= 0 {
			leaves[p] = sign * col[v]
		}
	}
	for i := c.size - 1; i > 0; i-- {
		tr[i] = max(tr[2*i], tr[2*i+1])
	}
}

// relax recomputes the maxima above re-keyed leaves of tree tr, one
// level at a time: up lists the parents of the re-keyed leaves
// (duplicates allowed), and a node whose key changed lists its own
// parent for the next level, so the walk stops at the first unchanged
// node of every path — the nodes above it see the same children as
// before and already hold the right maxima. The loop body is
// branch-free and its iterations independent, so the loads of
// different paths overlap. Node 0 is scratch.
func relax(tr []float64, up []int32) {
	for len(up) > 0 {
		m := 0
		for _, i := range up {
			key := max(tr[2*i], tr[2*i+1])
			old := tr[i]
			tr[i] = key
			up[m] = i >> 1
			d := 0
			if math.Float64bits(key) != math.Float64bits(old) {
				d = 1
			}
			if i <= 1 {
				d = 0
			}
			m += d
		}
		up = up[:m]
	}
}

// kill retires pending position p, whose sensor v was just assigned,
// from every slot's tree.
func (c *marginCache) kill(p int32, v int) {
	c.posOf[v] = -1
	for t := 0; t < c.T; t++ {
		tr := c.treeOf(t)
		i := c.size + int(p)
		tr[i] = math.Inf(-1)
		c.up = append(c.up[:0], int32(i>>1))
		relax(tr, c.up)
	}
}

// repairTree re-keys, in slot t's tree, the live sensors of c.written
// — the entries a sparse refresh just rewrote.
func (c *marginCache) repairTree(t int, sign float64) {
	tr, col := c.treeOf(t), c.column(t)
	if cap(c.up) < len(c.written) {
		c.up = make([]int32, len(c.written))
	}
	up := c.up[:len(c.written)]
	k := 0
	for _, u := range c.written {
		p := int(c.posOf[u])
		i := c.size + p
		d := 1
		if p < 0 {
			i, d = 0, 0
		}
		tr[i] = sign * col[u]
		up[k] = int32(i >> 1)
		k += d
	}
	relax(tr, up[:k])
}

// winner returns the lowest pending position holding slot t's root key:
// the descent takes the left child whenever it carries its parent's
// maximum, and the right one only when the left is strictly smaller.
func (c *marginCache) winner(t int) int32 {
	tr := c.treeOf(t)
	i := 1
	for i < c.size {
		i <<= 1
		d := 0
		if tr[i] < tr[i>>1] {
			d = 1
		}
		i += d
	}
	return int32(i - c.size)
}

// best returns the pending position and slot of the best live pair
// over all trees, or slot −1 when none is live: the largest root key,
// ties to the lowest position (the lowest sensor), then to the lowest
// slot — the lowest-(v, t) rule of a single sensor-major scan.
func (c *marginCache) best() (p int32, t int) {
	t = -1
	key := math.Inf(-1)
	for s := 0; s < c.T; s++ {
		r := c.tree[2*s*c.size+1]
		switch {
		case r > key:
			p, t, key = -1, s, r
		case r == key && t >= 0:
			if p < 0 {
				p = c.winner(t)
			}
			if q := c.winner(s); q < p {
				p, t = q, s
			}
		}
	}
	if t >= 0 && p < 0 {
		p = c.winner(t)
	}
	return p, t
}

// fillSlot recomputes slot t's column for the still-unassigned sensors
// in [lo, hi) using eval (an oracle's Gain or Loss method). Entries of
// assigned sensors are left stale; every scan skips them.
func (c *marginCache) fillSlot(t, lo, hi int, assign []int, eval func(v int) float64) {
	base := t * c.n
	for v := lo; v < hi; v++ {
		if assign[v] < 0 {
			c.vals[base+v] = eval(v)
		}
	}
}

// candidate is one (sensor, slot, marginal) selection result. v < 0
// means "no candidate in range".
type candidate struct {
	v, t  int
	value float64
}

// fillSlotPending recomputes slot t's column entries for exactly the
// sensors in pending — a worker's compacted ascending sublist of
// still-unassigned sensors — using eval (an oracle's Gain or Loss
// method). It is the pending-list counterpart of fillSlot: same
// entries written in the same ascending order, minus the dead
// assigned-sensor iterations and their skip branch.
func (c *marginCache) fillSlotPending(t int, pending []int, eval func(v int) float64) {
	base := t * c.n
	for _, v := range pending {
		c.vals[base+v] = eval(v)
	}
}

// argmaxPending returns the maximum-gain candidate over pending × all
// slots, scanning sensors then slots in ascending order with a strict
// > comparison, so ties resolve to the lowest (v, t) pair exactly like
// the seed's eager scan over all sensors: pending preserves ascending
// sensor order and holds exactly the unassigned sensors of its owner's
// range, so the scan visits the same live pairs in the same order, and
// every engine (sequential, lazy, parallel) stays bit-identical.
func (c *marginCache) argmaxPending(pending []int) candidate {
	best := candidate{v: -1, t: -1, value: -1}
	for _, v := range pending {
		for t := 0; t < c.T; t++ {
			if g := c.vals[t*c.n+v]; g > best.value {
				best = candidate{v: v, t: t, value: g}
			}
		}
	}
	return best
}

// argminPending is the removal-mode dual of argmaxPending.
func (c *marginCache) argminPending(pending []int) candidate {
	best := candidate{v: -1, t: -1}
	found := false
	for _, v := range pending {
		for t := 0; t < c.T; t++ {
			if l := c.vals[t*c.n+v]; !found || l < best.value {
				best = candidate{v: v, t: t, value: l}
				found = true
			}
		}
	}
	return best
}

// dropPending removes sensor v from the ascending pending list in
// place, returning the shortened slice. Order is preserved, so later
// scans keep the exact tie-break order of the full loop.
func dropPending(pending []int, v int) []int {
	for i, p := range pending {
		if p == v {
			return append(pending[:i], pending[i+1:]...)
		}
	}
	return pending
}

// mergeMax combines per-worker argmax candidates into the global best.
// locals must be ordered by ascending sensor range so that the strict >
// comparison reproduces the lowest-(v, t) tie-break of a single global
// scan.
func mergeMax(locals []candidate) candidate {
	best := candidate{v: -1, t: -1, value: -1}
	for _, c := range locals {
		if c.v >= 0 && c.value > best.value {
			best = c
		}
	}
	return best
}

// mergeMin is the removal-mode dual of mergeMax.
func mergeMin(locals []candidate) candidate {
	best := candidate{v: -1, t: -1}
	found := false
	for _, c := range locals {
		if c.v >= 0 && (!found || c.value < best.value) {
			best = c
			found = true
		}
	}
	return best
}

// chunkBounds splits [0, n) into k near-equal contiguous ranges,
// returning k+1 boundaries (bounds[w] .. bounds[w+1] is worker w's
// range). k is clamped to n so no range is empty.
func chunkBounds(n, k int) []int {
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	bounds := make([]int, k+1)
	base, rem := n/k, n%k
	for w := 0; w < k; w++ {
		size := base
		if w < rem {
			size++
		}
		bounds[w+1] = bounds[w] + size
	}
	return bounds
}
