package core

import (
	"math/rand"
	"testing"
)

// These tests pin the compacted pending-list scans to the dense range
// scans they replaced: identical results (including every tie-break)
// on random caches, and zero allocations in the steady-state selection
// the engines run every step.

// randomCacheState builds a cache with random marginals, a random
// assignment, and the matching compacted ascending pending list for
// [lo, hi).
func randomCacheState(rng *rand.Rand, n, T, lo, hi int) (*marginCache, []int, []int) {
	cache := newMarginCache(n, T)
	for i := range cache.vals {
		// Coarse quantization forces frequent exact ties, stressing the
		// lowest-(v, t) rule.
		cache.vals[i] = float64(rng.Intn(8))
	}
	assign := make([]int, n)
	for v := range assign {
		if rng.Intn(3) == 0 {
			assign[v] = rng.Intn(T)
		} else {
			assign[v] = -1
		}
	}
	var pending []int
	for v := lo; v < hi; v++ {
		if assign[v] < 0 {
			pending = append(pending, v)
		}
	}
	return cache, assign, pending
}

// argmaxRange is the dense reference scan the pending-list scans and
// the selection trees are checked against: the maximum-gain candidate
// among unassigned sensors in [lo, hi), scanning sensors then slots in
// ascending order with a strict > comparison, so ties resolve to the
// lowest (v, t) pair exactly like the seed's eager scan.
func (c *marginCache) argmaxRange(lo, hi int, assign []int) candidate {
	best := candidate{v: -1, t: -1, value: -1}
	for v := lo; v < hi; v++ {
		if assign[v] >= 0 {
			continue
		}
		for t := 0; t < c.T; t++ {
			if g := c.vals[t*c.n+v]; g > best.value {
				best = candidate{v: v, t: t, value: g}
			}
		}
	}
	return best
}

// argminRange is the removal-mode dual of argmaxRange: the minimum-loss
// candidate among unassigned sensors in [lo, hi), ties to the lowest
// (v, t).
func (c *marginCache) argminRange(lo, hi int, assign []int) candidate {
	best := candidate{v: -1, t: -1}
	found := false
	for v := lo; v < hi; v++ {
		if assign[v] >= 0 {
			continue
		}
		for t := 0; t < c.T; t++ {
			if l := c.vals[t*c.n+v]; !found || l < best.value {
				best = candidate{v: v, t: t, value: l}
				found = true
			}
		}
	}
	return best
}

func TestPendingScansMatchRangeScans(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		T := 1 + rng.Intn(6)
		lo := rng.Intn(n)
		hi := lo + rng.Intn(n-lo+1)
		cache, assign, pending := randomCacheState(rng, n, T, lo, hi)

		gotMax := cache.argmaxPending(pending)
		wantMax := cache.argmaxRange(lo, hi, assign)
		if gotMax != wantMax {
			t.Fatalf("trial %d: argmaxPending %+v != argmaxRange %+v", trial, gotMax, wantMax)
		}
		gotMin := cache.argminPending(pending)
		wantMin := cache.argminRange(lo, hi, assign)
		if gotMin != wantMin {
			t.Fatalf("trial %d: argminPending %+v != argminRange %+v", trial, gotMin, wantMin)
		}
	}
}

func TestFillSlotPendingMatchesFillSlot(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(30)
		T := 1 + rng.Intn(4)
		lo := rng.Intn(n)
		hi := lo + rng.Intn(n-lo+1)
		cache, assign, pending := randomCacheState(rng, n, T, lo, hi)
		ref := newMarginCache(n, T)
		copy(ref.vals, cache.vals)

		eval := func(v int) float64 { return float64(v*31%17) * 0.5 }
		slot := rng.Intn(T)
		cache.fillSlotPending(slot, pending, eval)
		ref.fillSlot(slot, lo, hi, assign, eval)
		for i := range cache.vals {
			if cache.vals[i] != ref.vals[i] {
				t.Fatalf("trial %d: vals[%d] = %v, dense reference %v", trial, i, cache.vals[i], ref.vals[i])
			}
		}
	}
}

func TestDropPendingPreservesOrder(t *testing.T) {
	pending := []int{2, 5, 7, 11, 13}
	pending = dropPending(pending, 7)
	want := []int{2, 5, 11, 13}
	if len(pending) != len(want) {
		t.Fatalf("got %v, want %v", pending, want)
	}
	for i := range want {
		if pending[i] != want[i] {
			t.Fatalf("got %v, want %v", pending, want)
		}
	}
	// Dropping an absent sensor is a no-op.
	if got := dropPending(pending, 99); len(got) != len(want) {
		t.Fatalf("dropPending of absent sensor changed the list: %v", got)
	}
}

// TestPendingScanZeroAlloc gates the engines' steady-state selection
// at zero allocations: the parallel worker's column refresh over the
// compacted sublist and both pending scans, and the sequential loop's
// selection-tree repair and root merge, must reuse existing buffers.
func TestPendingScanZeroAlloc(t *testing.T) {
	const n, T = 512, 6
	rng := rand.New(rand.NewSource(5))
	cache, _, pending := randomCacheState(rng, n, T, 0, n)
	cache.buildTrees(pending, 1)
	eval := func(v int) float64 { return float64(v) }
	if a := testing.AllocsPerRun(100, func() {
		cache.fillSlotPending(2, pending, eval)
		_ = cache.argmaxPending(pending)
		_ = cache.argminPending(pending)
		cache.written = append(cache.written[:0], int32(pending[0]), int32(pending[len(pending)/2]))
		cache.repairTree(1, 1)
		cache.rebuildTree(1, pending, -1)
		_, _ = cache.best()
	}); a != 0 {
		t.Fatalf("pending-list scan allocated %v times per run, want 0", a)
	}
}
