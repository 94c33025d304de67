package grid

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// mustCover reports whether the index is *obliged* to return item it
// for query p: finite items whose reach-box contains p (the Item
// contract), and every non-finite item (whose extent is unknowable).
func mustCover(it Item, p Point) bool {
	if math.IsNaN(it.Pos.X) || math.IsInf(it.Pos.X, 0) ||
		math.IsNaN(it.Pos.Y) || math.IsInf(it.Pos.Y, 0) ||
		math.IsNaN(it.Reach) || math.IsInf(it.Reach, 0) {
		return true
	}
	return math.Abs(it.Pos.X-p.X) <= it.Reach && math.Abs(it.Pos.Y-p.Y) <= it.Reach
}

// checkQuery validates every structural invariant of one candidate
// query: ascending IDs, no duplicates, all in range, and a superset of
// the items obliged to appear.
func checkQuery(t *testing.T, items []Item, ix *Index, p Point) {
	t.Helper()
	cand := ix.Candidates(p)
	seen := make(map[int32]bool, len(cand))
	prev := int32(-1)
	for _, id := range cand {
		if id < 0 || int(id) >= len(items) {
			t.Fatalf("query %v: candidate %d outside [0,%d)", p, id, len(items))
		}
		if id <= prev {
			t.Fatalf("query %v: candidates not strictly ascending at %d (prev %d)", p, id, prev)
		}
		prev = id
		seen[id] = true
	}
	for i, it := range items {
		if mustCover(it, p) && !seen[int32(i)] {
			t.Fatalf("query %v: item %d (%+v) covers the point but is not a candidate (cand=%v)",
				p, i, it, cand)
		}
	}
}

// TestCandidatesDifferentialSeeded cross-checks the index against the
// brute-force reach test on seeded random populations, probing random
// points, every anchor, and points on exact cell boundaries.
func TestCandidatesDifferentialSeeded(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(120)
		span := []float64{1, 10, 100, 1000}[rng.Intn(4)]
		maxReach := span * []float64{0, 0.01, 0.1, 0.5, 2}[rng.Intn(5)]
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{
				Pos:   Point{rng.Float64() * span, rng.Float64() * span},
				Reach: rng.Float64() * maxReach,
			}
			if rng.Intn(10) == 0 { // anchors on exact lattice positions
				items[i].Pos = Point{math.Round(items[i].Pos.X), math.Round(items[i].Pos.Y)}
			}
		}
		ix := Build(items)
		if ix.Len() != n {
			t.Fatalf("Len = %d, want %d", ix.Len(), n)
		}
		for q := 0; q < 40; q++ {
			checkQuery(t, items, ix, Point{
				(rng.Float64()*3 - 1) * span, (rng.Float64()*3 - 1) * span,
			})
		}
		for _, it := range items {
			checkQuery(t, items, ix, it.Pos)
			checkQuery(t, items, ix, Point{it.Pos.X + it.Reach, it.Pos.Y - it.Reach})
		}
	}
}

// TestCandidatesQuick drives the superset invariant through
// testing/quick's adversarial float64 generator (huge magnitudes, both
// signs), which exercises the overflow bucket and the degenerate
// single-cell axes.
func TestCandidatesQuick(t *testing.T) {
	f := func(xs, ys, reaches []float64, qx, qy float64) bool {
		n := len(xs)
		if len(ys) < n {
			n = len(ys)
		}
		if len(reaches) < n {
			n = len(reaches)
		}
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{Pos: Point{xs[i], ys[i]}, Reach: math.Abs(reaches[i])}
		}
		ix := Build(items)
		queries := []Point{{qx, qy}}
		for _, it := range items {
			queries = append(queries, it.Pos)
		}
		for _, p := range queries {
			cand := ix.Candidates(p)
			seen := make(map[int32]bool, len(cand))
			prev := int32(-1)
			for _, id := range cand {
				if id < 0 || int(id) >= n || id <= prev {
					return false
				}
				prev = id
				seen[id] = true
			}
			for i, it := range items {
				if mustCover(it, p) && !seen[int32(i)] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestCandidatesTableCases pins the degenerate inputs named in the
// differential-harness issue: zero reach, coincident anchors, anchors
// exactly on cell boundaries, and queries outside the indexed
// bounding box.
func TestCandidatesTableCases(t *testing.T) {
	t.Run("zero-reach", func(t *testing.T) {
		items := []Item{
			{Pos: Point{0, 0}},
			{Pos: Point{5, 5}},
			{Pos: Point{10, 10}},
		}
		ix := Build(items)
		checkQuery(t, items, ix, Point{5, 5})     // exactly at an anchor
		checkQuery(t, items, ix, Point{5.1, 5})   // just off: nothing obliged
		checkQuery(t, items, ix, Point{10, 10})   // far boundary anchor
		checkQuery(t, items, ix, Point{-3, -3})   // outside the box
		checkQuery(t, items, ix, Point{100, 100}) // far outside
	})
	t.Run("coincident", func(t *testing.T) {
		items := make([]Item, 50)
		for i := range items {
			items[i] = Item{Pos: Point{7, -7}, Reach: 1}
		}
		ix := Build(items)
		if cols, rows := ix.Dims(); cols != 1 || rows != 1 {
			t.Errorf("coincident anchors produced %dx%d grid, want 1x1", cols, rows)
		}
		checkQuery(t, items, ix, Point{7, -7})
		checkQuery(t, items, ix, Point{8, -6}) // on the reach corner
		checkQuery(t, items, ix, Point{9, -7}) // outside reach
		if got := len(ix.Candidates(Point{7, -7})); got != 50 {
			t.Errorf("coincident query returned %d candidates, want 50", got)
		}
	})
	t.Run("cell-boundary-anchors", func(t *testing.T) {
		// Reach 10 over a [0,100] box: anchors and queries at exact
		// multiples of the cell side.
		var items []Item
		for x := 0.0; x <= 100; x += 10 {
			for y := 0.0; y <= 100; y += 10 {
				items = append(items, Item{Pos: Point{x, y}, Reach: 10})
			}
		}
		ix := Build(items)
		for x := 0.0; x <= 100; x += 5 {
			for y := 0.0; y <= 100; y += 5 {
				checkQuery(t, items, ix, Point{x, y})
			}
		}
	})
	t.Run("query-outside-bbox", func(t *testing.T) {
		items := []Item{{Pos: Point{0, 0}, Reach: 4}, {Pos: Point{50, 50}, Reach: 4}}
		ix := Build(items)
		checkQuery(t, items, ix, Point{-3.5, -3.5}) // covered from outside the box
		checkQuery(t, items, ix, Point{53, 53})
		if got := ix.Candidates(Point{-100, -100}); len(got) != 0 {
			t.Errorf("distant query returned %v, want none", got)
		}
	})
	t.Run("empty-and-single", func(t *testing.T) {
		if got := Build(nil).Candidates(Point{1, 2}); len(got) != 0 {
			t.Errorf("empty index returned %v", got)
		}
		items := []Item{{Pos: Point{3, 4}, Reach: 2}}
		ix := Build(items)
		checkQuery(t, items, ix, Point{3, 4})
		checkQuery(t, items, ix, Point{5, 6})
		checkQuery(t, items, ix, Point{6, 4})
	})
	t.Run("non-finite-items", func(t *testing.T) {
		items := []Item{
			{Pos: Point{1, 1}, Reach: 1},
			{Pos: Point{math.NaN(), 0}, Reach: 1},   // overflow: NaN anchor
			{Pos: Point{2, 2}, Reach: math.Inf(1)},  // overflow: infinite reach
			{Pos: Point{math.Inf(-1), math.Inf(1)}}, // overflow: infinite anchor
			{Pos: Point{4, 4}, Reach: math.NaN()},   // overflow: NaN reach
			{Pos: Point{5, 5}, Reach: 1},
		}
		ix := Build(items)
		if ix.Overflow() != 4 {
			t.Fatalf("Overflow = %d, want 4", ix.Overflow())
		}
		// Overflow items appear in every query, even far away ones.
		for _, p := range []Point{{1, 1}, {5, 5}, {1e9, -1e9}, {math.Inf(1), 0}} {
			checkQuery(t, items, ix, p)
		}
	})
	t.Run("negative-reach", func(t *testing.T) {
		items := []Item{{Pos: Point{0, 0}, Reach: -5}, {Pos: Point{1, 1}, Reach: 2}}
		ix := Build(items)
		checkQuery(t, items, ix, Point{0, 0})
		checkQuery(t, items, ix, Point{1, 1})
	})
	t.Run("denormal-extent", func(t *testing.T) {
		// Anchor spread so small that 1/cellSide would overflow: the
		// axis must degrade to a single cell, not emit NaN cells.
		items := []Item{
			{Pos: Point{0, 0}},
			{Pos: Point{5e-324, 5e-324}},
		}
		ix := Build(items)
		checkQuery(t, items, ix, Point{0, 0})
		checkQuery(t, items, ix, Point{5e-324, 5e-324})
	})
}

func TestCandidatesIntoReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	items := make([]Item, 400)
	for i := range items {
		items[i] = Item{Pos: Point{rng.Float64() * 100, rng.Float64() * 100}, Reach: 5}
	}
	ix := Build(items)
	buf := make([]int32, 0, 512)
	for q := 0; q < 200; q++ {
		p := Point{rng.Float64() * 100, rng.Float64() * 100}
		buf = ix.CandidatesInto(buf, p)
		want := ix.Candidates(p)
		if len(buf) != len(want) {
			t.Fatalf("CandidatesInto len %d != Candidates len %d", len(buf), len(want))
		}
		for i := range buf {
			if buf[i] != want[i] {
				t.Fatalf("CandidatesInto[%d] = %d, Candidates[%d] = %d", i, buf[i], i, want[i])
			}
		}
	}
}

// TestCandidatesAdversarialDensity is the dense-deployment
// differential: 6,000 items whose reach is a third of the field give a
// 3×3 grid, so every in-field query window spans every cell and the
// candidate buffer concatenates nine interleaved ID runs plus the
// overflow and overlay runs. The brute-force answer for such a query is
// every ID, ascending, and the superset check must hold too.
func TestCandidatesAdversarialDensity(t *testing.T) {
	const n, span = 6000, 90.0
	rng := rand.New(rand.NewSource(29))
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Pos: Point{rng.Float64() * span, rng.Float64() * span}, Reach: span / 3}
	}
	// Pin the bounding box to [0, span]², and feed the overflow run.
	items[0].Pos, items[1].Pos = Point{0, 0}, Point{span, span}
	for i := 2; i < n; i += 997 {
		items[i].Reach = math.Inf(1)
	}
	ix := Build(items)
	if c, r := ix.Dims(); c != 3 || r != 3 {
		t.Fatalf("Dims = %d×%d, want 3×3", c, r)
	}
	ix.Grow(100)
	for k := 0; k < 100; k++ {
		it := Item{Pos: Point{rng.Float64() * span, rng.Float64() * span}, Reach: 10}
		ix.Insert(it)
		items = append(items, it)
	}
	buf := make([]int32, 0, len(items))
	for q := 0; q < 20; q++ {
		p := Point{rng.Float64() * span, rng.Float64() * span}
		buf = ix.CandidatesInto(buf, p)
		if len(buf) != len(items) {
			t.Fatalf("query %v: %d candidates, want all %d", p, len(buf), len(items))
		}
		for i, id := range buf {
			if int(id) != i {
				t.Fatalf("query %v: candidate[%d] = %d, want %d", p, i, id, i)
			}
		}
		checkQuery(t, items, ix, p)
	}
}

func benchmarkIndex(n int) ([]Item, *Index) {
	rng := rand.New(rand.NewSource(42))
	items := make([]Item, n)
	reach := 500 / math.Sqrt(float64(n)) * 2
	for i := range items {
		items[i] = Item{Pos: Point{rng.Float64() * 500, rng.Float64() * 500}, Reach: reach}
	}
	return items, Build(items)
}

func BenchmarkGridBuild(b *testing.B) {
	items, _ := benchmarkIndex(10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(items)
	}
}

func BenchmarkGridCandidatesInto(b *testing.B) {
	_, ix := benchmarkIndex(10000)
	buf := make([]int32, 0, 1024)
	rng := rand.New(rand.NewSource(1))
	points := make([]Point, 1024)
	for i := range points {
		points[i] = Point{rng.Float64() * 500, rng.Float64() * 500}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = ix.CandidatesInto(buf, points[i%len(points)])
	}
}
