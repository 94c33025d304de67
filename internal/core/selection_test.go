package core

import (
	"math/rand"
	"testing"

	"cool/internal/energy"
	"cool/internal/stats"
	"cool/internal/submodular"
)

// TestSelectionTreeMatchesScan is the differential test of the
// per-slot selection trees against the dense reference scans
// (argmaxRange for placement, argminRange for removal): after building
// the trees and after every random kill, sparse rewrite and full
// rebuild, best must name the scan's (v, t) pair exactly, tie-breaks
// included. Marginals are quantized to {0..7} to force ties; some
// trials start on the all-equal plateau; pending sizes cover 1 and
// non-powers of two.
func TestSelectionTreeMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(40)
		if trial%5 == 0 {
			n = []int{1, 2, 3, 5, 6, 7, 9, 13}[trial/5%8]
		}
		T := 1 + rng.Intn(5)
		removal := trial%2 == 1
		sign := 1.0
		if removal {
			sign = -1
		}
		plateau := trial%3 == 0
		quant := func() float64 {
			if plateau {
				return 3
			}
			return float64(rng.Intn(8))
		}
		cache := newMarginCache(n, T)
		for i := range cache.vals {
			cache.vals[i] = quant()
		}
		assign := make([]int, n)
		var pending []int
		for v := range assign {
			assign[v] = -1
			if n > 1 && rng.Intn(4) == 0 {
				assign[v] = rng.Intn(T)
			} else {
				pending = append(pending, v)
			}
		}
		cache.buildTrees(pending, sign)
		check := func(op string) {
			t.Helper()
			want := cache.argmaxRange(0, n, assign)
			if removal {
				want = cache.argminRange(0, n, assign)
			}
			p, slot := cache.best()
			got := candidate{v: -1, t: slot}
			if slot >= 0 {
				got.v = pending[p]
			}
			if got.v != want.v || got.t != want.t {
				t.Fatalf("trial %d (n=%d T=%d removal=%v plateau=%v) after %s: tree picks (%d, %d), scan (%d, %d)",
					trial, n, T, removal, plateau, op, got.v, got.t, want.v, want.t)
			}
		}
		check("build")
		for live := len(pending); live > 0; {
			switch op := rng.Intn(4); {
			case op == 0:
				// Kill a random live sensor, as a greedy step does.
				p := int32(rng.Intn(len(pending)))
				v := pending[p]
				if assign[v] >= 0 {
					continue
				}
				assign[v] = rng.Intn(T)
				cache.kill(p, v)
				live--
				check("kill")
			case op <= 2:
				// Rewrite a random set of entries of one column — live,
				// dead and absent sensors alike, duplicates allowed —
				// and repair just those leaves.
				col := rng.Intn(T)
				cache.written = cache.written[:0]
				for k := rng.Intn(n + 1); k > 0; k-- {
					u := rng.Intn(n)
					cache.vals[col*n+u] = quant()
					cache.written = append(cache.written, int32(u))
				}
				cache.repairTree(col, sign)
				check("rewrite")
			default:
				col := rng.Intn(T)
				for u := 0; u < n; u++ {
					cache.vals[col*n+u] = quant()
				}
				cache.rebuildTree(col, pending, sign)
				check("rebuild")
			}
		}
		if _, slot := cache.best(); slot != -1 {
			t.Fatalf("trial %d: best found slot %d with no live sensor", trial, slot)
		}
	}
}

// TestGreedyLoopZeroAlloc gates the selection loop: once a cache's
// trees, position map and written-list buffer exist, rerunning the
// placement and the removal loop over the same cache allocates
// nothing.
func TestGreedyLoopZeroAlloc(t *testing.T) {
	const n, T = 300, 4
	u := coverageUtility(t, stats.NewRNG(13), n, 30, []float64{0.05})
	for _, removal := range []bool{false, true} {
		start := u.Oracle()
		if removal {
			start = u.FullOracle()
		}
		oracles := make([]submodular.RemovalOracle, T)
		for s := range oracles {
			oracles[s] = u.Oracle()
		}
		cache := newMarginCache(n, T)
		assign := make([]int, n)
		pending := newPending(n)
		refresh := func(s, changed int) bool {
			return refreshColumnAfter(cache, s, oracles[s], assign, removal, changed)
		}
		run := func() {
			for v := range assign {
				assign[v] = -1
			}
			for s, o := range oracles {
				o.(submodular.StateCopier).CopyStateFrom(start)
				fillColumn(cache, s, o, assign, removal)
			}
			if err := runGreedyLoop(oracles, cache, assign, pending, removal, refresh); err != nil {
				t.Fatal(err)
			}
		}
		run()
		if a := testing.AllocsPerRun(20, run); a != 0 {
			t.Errorf("removal=%v: greedy loop allocated %v times per run, want 0", removal, a)
		}
	}
}

// benchGreedy times the whole sequential placement greedy — oracle set
// up, the initial column fill and the selection loop — on in.
func benchGreedy(b *testing.B, in Instance) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Greedy(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlacementLoopSparseCoverage runs the placement greedy at
// coold's sparse serving shape: n = 2000 sensors, m = 200 items, ≈10
// sensors per item, ρ = 3 (T = 4). Every item is covered in every slot
// early in the run, so most steps sit on the all-zero-gain plateau.
func BenchmarkPlacementLoopSparseCoverage(b *testing.B) {
	const n = 2000
	u := coverageUtility(b, stats.NewRNG(11), n, 200, []float64{10.0 / n})
	p, err := energy.PeriodFromRho(3)
	if err != nil {
		b.Fatal(err)
	}
	benchGreedy(b, Instance{N: n, Period: p, Factory: func() submodular.RemovalOracle { return u.Oracle() }})
}

// BenchmarkPlacementLoopDetection runs the placement greedy at the
// in-process planning shape: n = 1000 sensors, m = 100 targets, ≈28
// sensors per target with detection probability 0.4, ρ = 3 (T = 4).
// Each step rewrites the gains of ≈85 neighbours, a large share of the
// still-pending sensors.
func BenchmarkPlacementLoopDetection(b *testing.B) {
	const n, m = 1000, 100
	rng := stats.NewRNG(12)
	targets := make([]submodular.DetectionTarget, m)
	for i := range targets {
		probs := make(map[int]float64)
		for v := 0; v < n; v++ {
			if rng.Bernoulli(28.0 / n) {
				probs[v] = 0.4
			}
		}
		if len(probs) == 0 {
			probs[rng.Intn(n)] = 0.4
		}
		targets[i] = submodular.DetectionTarget{Weight: 1, Probs: probs}
	}
	u, err := submodular.NewDetectionUtility(n, targets)
	if err != nil {
		b.Fatal(err)
	}
	p, err := energy.PeriodFromRho(3)
	if err != nil {
		b.Fatal(err)
	}
	benchGreedy(b, Instance{N: n, Period: p, Factory: func() submodular.RemovalOracle { return u.Oracle() }})
}
