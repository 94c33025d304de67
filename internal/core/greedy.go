package core

import (
	"container/heap"
	"fmt"

	"cool/internal/submodular"
)

// Greedy computes the paper's greedy hill-climbing schedule for the
// instance, dispatching to the placement form (Algorithm 1) when the
// period grants one active slot (ρ ≥ 1) and to the passive-slot removal
// form (Section IV-B) otherwise. Both forms carry the 1/2-approximation
// guarantee (Lemma 4.1, Theorems 4.3 and 4.4).
func Greedy(in Instance) (*Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return greedyOver(in, nil)
}

// greedyOver runs the cached greedy over the sensors with present[v]
// (every sensor when present is nil); the others get the Absent
// assignment and never enter an oracle. Placement (Algorithm 1)
// repeatedly assigns the (sensor, slot) pair with the maximum
// incremental utility; removal (ρ ≤ 1) starts from "every sensor active
// in every slot" and gives each sensor the passive slot whose removal
// loses the least. Both run runGreedyLoop over a dirty-slot marginal
// cache (see marginCache).
func greedyOver(in Instance, present []bool) (*Schedule, error) {
	T := in.Period.Slots()
	mode := ModeFor(in.Period)
	removal := mode == ModeRemoval
	assign := newAssignment(in.N)
	pending := make([]int, 0, in.N)
	for v := 0; v < in.N; v++ {
		if present == nil || present[v] {
			pending = append(pending, v)
		} else {
			assign[v] = Absent
		}
	}
	oracles := make([]submodular.RemovalOracle, T)
	cache := newMarginCache(in.N, T)
	for t := range oracles {
		o := in.Factory()
		if removal {
			for _, v := range pending {
				o.Add(v)
			}
		}
		oracles[t] = o
		fillColumn(cache, t, o, assign, removal)
	}
	err := runGreedyLoop(oracles, cache, assign, pending, removal, func(t, changed int) bool {
		return refreshColumnAfter(cache, t, oracles[t], assign, removal, changed)
	})
	if err != nil {
		return nil, err
	}
	return NewSchedule(mode, T, assign)
}

// runGreedyLoop is the one body of both greedy forms: it gives every
// sensor of pending (ascending, all unassigned) its slot — the maximum
// gain slot in placement mode, the minimum loss passive slot in removal
// mode — in greedy order. The cache must hold exact marginals for every
// pending sensor on entry; after each Add (placement) or Remove
// (removal) the loop calls refresh(t, changed), which must restore the
// exactness of the mutated column and report whether it rewrote the
// whole column (full) or only the sensors it listed in cache.written.
// Sharing the loop lets the incremental Repairer insert perturbation
// batches through the *same* code path as the full plan, so a repairer
// insertion is bit-identical to the greedy having scheduled those
// sensors last.
//
// Selection keeps one tournament tree per slot over the positions of
// pending, keyed by the gain or by the negated loss, so both modes pick
// the largest key. Ties go to the left child — the lower position and,
// pending being ascending, the lower sensor — and best merges the roots
// with ties to the lower sensor, then the lower slot, which is exactly
// the lowest-(v, t) rule of the seed's eager O(n·T) scan: the schedule
// is bit-identical to it. A step kills the chosen sensor's leaf in
// every tree and re-keys only the leaves the refresh rewrote, each in
// O(log n) with an early exit, instead of rescanning whole columns.
func runGreedyLoop(oracles []submodular.RemovalOracle, cache *marginCache, assign, pending []int, removal bool, refresh func(t, changed int) (full bool)) error {
	sign := 1.0
	if removal {
		sign = -1
	}
	cache.buildTrees(pending, sign)
	for step := range pending {
		p, t := cache.best()
		if t < 0 {
			for _, v := range pending {
				cache.posOf[v] = -1
			}
			return fmt.Errorf("core: greedy found no candidate at step %d", step)
		}
		v := pending[p]
		if removal {
			oracles[t].Remove(v)
		} else {
			oracles[t].Add(v)
		}
		assign[v] = t
		cache.kill(p, v)
		// Dirty-slot refresh: only t's oracle changed — and within it,
		// only the sensors v's mutation may have moved.
		if refresh(t, v) {
			cache.rebuildTree(t, pending, sign)
		} else {
			cache.repairTree(t, sign)
		}
	}
	return nil
}

// fillColumn refreshes slot t's cache column from its oracle. When the
// oracle provides the one-pass bulk marginal (submodular.BulkGainer /
// BulkLosser) the whole column is written by a single target-major CSR
// sweep; otherwise it falls back to per-sensor Gain/Loss queries. The
// bulk contract guarantees bit-identical columns on both paths, so
// engine determinism — including parallel-vs-sequential equality, where
// the sharded workers use the per-sensor path — is unaffected.
func fillColumn(cache *marginCache, t int, o submodular.RemovalOracle, assign []int, removal bool) {
	if removal {
		if b, ok := o.(submodular.BulkLosser); ok {
			b.BulkLoss(cache.column(t))
			return
		}
		cache.fillSlot(t, 0, cache.n, assign, o.Loss)
		return
	}
	if b, ok := o.(submodular.BulkGainer); ok {
		b.BulkGain(cache.column(t))
		return
	}
	cache.fillSlot(t, 0, cache.n, assign, o.Gain)
}

// refreshColumnAfter refreshes slot t's cache column after its oracle
// absorbed the Add (placement) or Remove (removal) of sensor changed,
// reporting whether it rewrote the full column. With the column-sparse
// refresh contract (submodular.SparseGainRefresher /
// SparseLossRefresher; see sparseRefresh) only the sensors whose
// marginals the mutation may have moved are recomputed and listed in
// cache.written; oracles without it fall back to the full-column
// fillColumn path.
func refreshColumnAfter(cache *marginCache, t int, o submodular.RemovalOracle, assign []int, removal bool, changed int) (full bool) {
	if sparseRefresh(cache, t, o, removal, changed) {
		return false
	}
	fillColumn(cache, t, o, assign, removal)
	return true
}

// sparseRefresh applies the oracle's single-mutation sparse refresher
// to slot t's column, recording the rewritten sensors in cache.written,
// and reports whether the oracle has one. The refresher recomputes
// changed and the sensors sharing a target with it (detection), or
// sharing an item whose coverage status may have flipped (coverage),
// instead of a full O(n + edges) column rebuild, and its contract
// guarantees the column ends bit-identical to a full refresh: skipped
// sensors' marginals sum the same terms as before the mutation, and
// recomputed ones go through the same Gain/Loss arithmetic the bulk
// sweep is contractually identical to.
func sparseRefresh(cache *marginCache, t int, o submodular.RemovalOracle, removal bool, changed int) bool {
	if removal {
		if sr, ok := o.(submodular.SparseLossRefresher); ok {
			cache.written = sr.SparseLossRefresh(changed, cache.column(t), cache.written[:0])
			return true
		}
	} else if sr, ok := o.(submodular.SparseGainRefresher); ok {
		cache.written = sr.SparseGainRefresh(changed, cache.column(t), cache.written[:0])
		return true
	}
	return false
}

// newAssignment returns an all-unassigned (-1) slot-assignment vector.
func newAssignment(n int) []int {
	assign := make([]int, n)
	for v := range assign {
		assign[v] = -1
	}
	return assign
}

// newPending returns the ascending list of all n sensors — the
// greedy loop's work list.
func newPending(n int) []int {
	pending := make([]int, n)
	for v := range pending {
		pending[v] = v
	}
	return pending
}

// rangePending returns the ascending list of the sensors in [lo, hi) —
// one parallel worker's compacted sublist of its static sensor range,
// shrunk by dropPending as sensors are scheduled.
func rangePending(lo, hi int) []int {
	pending := make([]int, hi-lo)
	for i := range pending {
		pending[i] = lo + i
	}
	return pending
}

// GreedySubset computes the greedy schedule over a sub-population:
// sensors with present[v] == false receive the Absent assignment and
// never enter any oracle, and the greedy runs over the survivors
// exactly as Greedy would on a compacted instance (same floats, same
// lowest-(v, t) tie-breaks — the pending list simply skips the absent
// IDs). A nil present schedules everyone, making GreedySubset(in, nil)
// bit-identical to Greedy(in). This is the incremental Repairer's
// ground truth: the from-scratch plan for the current fleet, with
// stable sensor IDs.
func GreedySubset(in Instance, present []bool) (*Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if present != nil && len(present) != in.N {
		return nil, fmt.Errorf("core: present covers %d sensors, instance has %d", len(present), in.N)
	}
	return greedyOver(in, present)
}

// ReferenceGreedySubset is the uncached eager-scan counterpart of
// GreedySubset — the seed-style reference the incremental edge-case
// tests cross-check perturbed fleets against.
func ReferenceGreedySubset(in Instance, present []bool) (*Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if present == nil {
		return ReferenceGreedy(in)
	}
	if len(present) != in.N {
		return nil, fmt.Errorf("core: present covers %d sensors, instance has %d", len(present), in.N)
	}
	T := in.Period.Slots()
	removal := ModeFor(in.Period) == ModeRemoval
	assign := newAssignment(in.N)
	live := 0
	for v := 0; v < in.N; v++ {
		if present[v] {
			live++
		} else {
			assign[v] = Absent
		}
	}
	oracles := make([]submodular.RemovalOracle, T)
	for t := range oracles {
		o := in.Factory()
		if removal {
			for v := 0; v < in.N; v++ {
				if present[v] {
					o.Add(v)
				}
			}
		}
		oracles[t] = o
	}
	for step := 0; step < live; step++ {
		bestV, bestT := -1, -1
		bestM := 0.0
		first := true
		for v := 0; v < in.N; v++ {
			if assign[v] != -1 {
				continue
			}
			for t := 0; t < T; t++ {
				if removal {
					if l := oracles[t].Loss(v); first || l < bestM {
						bestV, bestT, bestM = v, t, l
						first = false
					}
				} else {
					if g := oracles[t].Gain(v); first || g > bestM {
						bestV, bestT, bestM = v, t, g
						first = false
					}
				}
			}
		}
		if bestV < 0 {
			return nil, fmt.Errorf("core: subset greedy found no candidate at step %d", step)
		}
		if removal {
			oracles[bestT].Remove(bestV)
		} else {
			oracles[bestT].Add(bestV)
		}
		assign[bestV] = bestT
	}
	if removal {
		return NewSchedule(ModeRemoval, T, assign)
	}
	return NewSchedule(ModePlacement, T, assign)
}

// ReferenceGreedy computes the same schedule as Greedy with the seed's
// uncached eager scan: every step re-evaluates Gain/Loss for all
// unassigned (sensor, slot) pairs, O(n²·T·deg) total. It is retained as
// the correctness and performance yardstick for the cached and parallel
// engines — determinism tests assert bit-identical schedules against
// it, and BENCH_parallel.json reports speedups relative to it.
func ReferenceGreedy(in Instance) (*Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if ModeFor(in.Period) == ModePlacement {
		return referencePlacement(in)
	}
	return referenceRemoval(in)
}

func referencePlacement(in Instance) (*Schedule, error) {
	T := in.Period.Slots()
	oracles := make([]submodular.RemovalOracle, T)
	for t := range oracles {
		oracles[t] = in.Factory()
	}
	assign := newAssignment(in.N)
	for step := 0; step < in.N; step++ {
		bestV, bestT, bestGain := -1, -1, -1.0
		for v := 0; v < in.N; v++ {
			if assign[v] >= 0 {
				continue
			}
			for t := 0; t < T; t++ {
				if g := oracles[t].Gain(v); g > bestGain {
					bestV, bestT, bestGain = v, t, g
				}
			}
		}
		if bestV < 0 {
			return nil, fmt.Errorf("core: greedy found no candidate at step %d", step)
		}
		oracles[bestT].Add(bestV)
		assign[bestV] = bestT
	}
	return NewSchedule(ModePlacement, T, assign)
}

func referenceRemoval(in Instance) (*Schedule, error) {
	T := in.Period.Slots()
	oracles := make([]submodular.RemovalOracle, T)
	for t := range oracles {
		o := in.Factory()
		for v := 0; v < in.N; v++ {
			o.Add(v)
		}
		oracles[t] = o
	}
	assign := newAssignment(in.N)
	for step := 0; step < in.N; step++ {
		bestV, bestT := -1, -1
		bestLoss := 0.0
		first := true
		for v := 0; v < in.N; v++ {
			if assign[v] >= 0 {
				continue
			}
			for t := 0; t < T; t++ {
				l := oracles[t].Loss(v)
				if first || l < bestLoss {
					bestV, bestT, bestLoss = v, t, l
					first = false
				}
			}
		}
		if bestV < 0 {
			return nil, fmt.Errorf("core: removal greedy found no candidate at step %d", step)
		}
		oracles[bestT].Remove(bestV)
		assign[bestV] = bestT
	}
	return NewSchedule(ModeRemoval, T, assign)
}

// gainEntry is a lazy-greedy priority-queue element: a cached upper
// bound on the gain of scheduling sensor v at slot t.
type gainEntry struct {
	v, t int
	gain float64
	// stamp is the global step at which gain was computed; stale
	// entries are recomputed before use (CELF lazy evaluation).
	stamp int
}

type gainHeap []gainEntry

func (h gainHeap) Len() int { return len(h) }

// Less orders by gain descending, breaking ties on (sensor, slot)
// ascending so that the lazy greedy resolves ties exactly like the
// eager scan (and the cached greedy's lowest-(v, t) rule), so both
// produce identical schedules.
func (h gainHeap) Less(i, j int) bool {
	if h[i].gain != h[j].gain {
		return h[i].gain > h[j].gain
	}
	if h[i].v != h[j].v {
		return h[i].v < h[j].v
	}
	return h[i].t < h[j].t
}

func (h gainHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *gainHeap) Push(x any) { *h = append(*h, x.(gainEntry)) }

func (h *gainHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// LazyGreedyRemoval computes the same passive-slot schedule as Greedy
// for ρ ≤ 1 instances using lazy loss evaluation. The dual of the CELF
// argument applies: as sensors are removed, the loss of removing any
// remaining sensor can only grow (submodularity), so cached losses are
// lower bounds; when a freshly recomputed loss still sits at the heap
// minimum it is the true minimizer.
func LazyGreedyRemoval(in Instance) (*Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if ModeFor(in.Period) != ModeRemoval {
		return nil, fmt.Errorf("core: LazyGreedyRemoval requires a removal-mode period (ρ ≤ 1)")
	}
	T := in.Period.Slots()
	oracles := make([]submodular.RemovalOracle, T)
	for t := range oracles {
		o := in.Factory()
		for v := 0; v < in.N; v++ {
			o.Add(v)
		}
		oracles[t] = o
	}
	assign := newAssignment(in.N)
	return runLazyRemoval(oracles, lossHeap(lazyFill(oracles, in.N, T, true)), assign, in.N, T)
}

// lazyFill evaluates the initial (sensor, slot) marginals for the lazy
// engines, laid out v-major (index v*T + t) like the sequential loop it
// replaces. Slots whose oracles provide bulk marginals are filled by a
// single sweep into a scratch column; the floats are bit-identical to
// per-element queries (the Bulk contract), and since every entry's
// (gain, v, t) key is unique the CELF heap pops in the same order
// regardless of how the initial slice was produced.
func lazyFill(oracles []submodular.RemovalOracle, n, T int, removal bool) []gainEntry {
	entries := make([]gainEntry, n*T)
	var col []float64
	for t := 0; t < T; t++ {
		var bulk func([]float64)
		if removal {
			if b, ok := oracles[t].(submodular.BulkLosser); ok {
				bulk = b.BulkLoss
			}
		} else {
			if b, ok := oracles[t].(submodular.BulkGainer); ok {
				bulk = b.BulkGain
			}
		}
		if bulk != nil {
			if col == nil {
				col = make([]float64, n)
			}
			bulk(col)
			for v := 0; v < n; v++ {
				entries[v*T+t] = gainEntry{v: v, t: t, gain: col[v], stamp: 0}
			}
			continue
		}
		for v := 0; v < n; v++ {
			var m float64
			if removal {
				m = oracles[t].Loss(v)
			} else {
				m = oracles[t].Gain(v)
			}
			entries[v*T+t] = gainEntry{v: v, t: t, gain: m, stamp: 0}
		}
	}
	return entries
}

// runLazyRemoval executes the loss-side CELF loop over a pre-filled
// (unheapified) entry slice. Shared by the sequential and parallel lazy
// engines, which differ only in how the initial losses are evaluated.
func runLazyRemoval(oracles []submodular.RemovalOracle, h lossHeap, assign []int, n, T int) (*Schedule, error) {
	heap.Init(&h)
	step := 0
	for scheduled := 0; scheduled < n; {
		if h.Len() == 0 {
			return nil, fmt.Errorf("core: lazy removal exhausted heap with %d unscheduled", n-scheduled)
		}
		e := heap.Pop(&h).(gainEntry)
		if assign[e.v] >= 0 {
			continue
		}
		if e.stamp != step {
			e.gain = oracles[e.t].Loss(e.v)
			e.stamp = step
			heap.Push(&h, e)
			continue
		}
		oracles[e.t].Remove(e.v)
		assign[e.v] = e.t
		scheduled++
		step++
	}
	return NewSchedule(ModeRemoval, T, assign)
}

// lossHeap is a min-heap over gainEntry (interpreting gain as loss),
// with the same lexicographic tie-breaking as the eager removal scan.
type lossHeap []gainEntry

func (h lossHeap) Len() int { return len(h) }

func (h lossHeap) Less(i, j int) bool {
	if h[i].gain != h[j].gain {
		return h[i].gain < h[j].gain
	}
	if h[i].v != h[j].v {
		return h[i].v < h[j].v
	}
	return h[i].t < h[j].t
}

func (h lossHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *lossHeap) Push(x any) { *h = append(*h, x.(gainEntry)) }

func (h *lossHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// LazyGreedy computes the same placement schedule as Greedy for ρ ≥ 1
// instances, using CELF-style lazy evaluation of marginal gains:
// because gains only shrink as the schedule grows (submodularity),
// a cached gain that still tops the heap after recomputation is the
// true maximizer. With ties broken identically it returns a schedule
// with the same utility as the eager greedy at a fraction of the gain
// evaluations. It returns an error for removal-mode instances.
func LazyGreedy(in Instance) (*Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if ModeFor(in.Period) != ModePlacement {
		return nil, fmt.Errorf("core: LazyGreedy requires a placement-mode period (ρ ≥ 1)")
	}
	T := in.Period.Slots()
	oracles := make([]submodular.RemovalOracle, T)
	for t := range oracles {
		oracles[t] = in.Factory()
	}
	assign := newAssignment(in.N)
	return runLazyPlacement(oracles, gainHeap(lazyFill(oracles, in.N, T, false)), assign, in.N, T)
}

// runLazyPlacement executes the CELF loop over a pre-filled
// (unheapified) entry slice. Shared by the sequential and parallel lazy
// engines, which differ only in how the initial gains are evaluated.
func runLazyPlacement(oracles []submodular.RemovalOracle, h gainHeap, assign []int, n, T int) (*Schedule, error) {
	heap.Init(&h)
	step := 0
	for scheduled := 0; scheduled < n; {
		if h.Len() == 0 {
			return nil, fmt.Errorf("core: lazy greedy exhausted heap with %d unscheduled", n-scheduled)
		}
		e := heap.Pop(&h).(gainEntry)
		if assign[e.v] >= 0 {
			continue // sensor already placed; drop stale entry
		}
		if e.stamp != step {
			e.gain = oracles[e.t].Gain(e.v)
			e.stamp = step
			heap.Push(&h, e)
			continue
		}
		oracles[e.t].Add(e.v)
		assign[e.v] = e.t
		scheduled++
		step++
	}
	return NewSchedule(ModePlacement, T, assign)
}
