package submodular

import (
	"math"
	"testing"
	"testing/quick"

	"cool/internal/stats"
)

// This file locks down the column-sparse refresh contract
// (SparseGainRefresher / SparseLossRefresher): starting from a
// pre-mutation bulk snapshot, a sparse refresh after any single
// Add/Remove must leave the buffer bit-identical to a from-scratch
// BulkGain/BulkLoss sweep — on every entry, member or not. The greedy
// engines' determinism rests on exactly this equality.

// sparseDetectionUtility derives a detection utility from an RNG: n in
// [4, 36], m in [1, 8], random incidence (possibly leaving some sensors
// covering nothing — the zero-marginal edge case).
func sparseDetectionUtility(t testing.TB, rng *stats.RNG) *DetectionUtility {
	t.Helper()
	n := 4 + rng.Intn(33)
	m := 1 + rng.Intn(8)
	targets := make([]DetectionTarget, m)
	for i := range targets {
		probs := make(map[int]float64)
		cover := rng.UniformRange(0.1, 0.9)
		for v := 0; v < n; v++ {
			if rng.Bernoulli(cover) {
				probs[v] = rng.UniformRange(0, 1) // includes the p∈{0,1} ends
			}
		}
		if len(probs) == 0 {
			probs[rng.Intn(n)] = 0.5
		}
		targets[i] = DetectionTarget{Weight: rng.UniformRange(0.1, 3), Probs: probs}
	}
	u, err := NewDetectionUtility(n, targets)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// sparseCoverageUtility is the coverage-model counterpart.
func sparseCoverageUtility(t testing.TB, rng *stats.RNG) *CoverageUtility {
	t.Helper()
	n := 4 + rng.Intn(33)
	m := 1 + rng.Intn(10)
	items := make([]CoverageItem, m)
	for i := range items {
		var covered []int
		cover := rng.UniformRange(0.1, 0.9)
		for v := 0; v < n; v++ {
			if rng.Bernoulli(cover) {
				covered = append(covered, v)
			}
		}
		if len(covered) == 0 {
			covered = []int{rng.Intn(n)}
		}
		items[i] = CoverageItem{Value: rng.UniformRange(0.1, 3), CoveredBy: covered}
	}
	u, err := NewCoverageUtility(n, items)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// sparseOracle is the intersection of capabilities the property needs.
type sparseOracle interface {
	RemovalOracle
	BulkGainer
	BulkLosser
	SparseGainRefresher
	SparseLossRefresher
}

// checkSparseAgainstBulk drives o through a random Add/Remove walk. At
// every step it keeps gainBuf/lossBuf maintained purely by sparse
// refreshes and compares them, entry for entry and bit for bit, against
// fresh bulk sweeps. n is the ground-set size, steps the walk length.
func checkSparseAgainstBulk(t testing.TB, o sparseOracle, n int, rng *stats.RNG, steps int) bool {
	t.Helper()
	gainBuf := make([]float64, n)
	lossBuf := make([]float64, n)
	fresh := make([]float64, n)
	o.BulkGain(gainBuf)
	o.BulkLoss(lossBuf)
	member := make([]bool, n)
	for step := 0; step < steps; step++ {
		v := rng.Intn(n)
		if member[v] {
			o.Remove(v)
		} else {
			o.Add(v)
		}
		member[v] = !member[v]
		o.SparseGainRefresh(v, gainBuf, nil)
		o.SparseLossRefresh(v, lossBuf, nil)

		o.BulkGain(fresh)
		for i := range fresh {
			if math.Float64bits(gainBuf[i]) != math.Float64bits(fresh[i]) {
				t.Logf("step %d (sensor %d): sparse gain[%d]=%v (bits %#x) != bulk %v (bits %#x)",
					step, v, i, gainBuf[i], math.Float64bits(gainBuf[i]),
					fresh[i], math.Float64bits(fresh[i]))
				return false
			}
		}
		o.BulkLoss(fresh)
		for i := range fresh {
			if math.Float64bits(lossBuf[i]) != math.Float64bits(fresh[i]) {
				t.Logf("step %d (sensor %d): sparse loss[%d]=%v != bulk %v",
					step, v, i, lossBuf[i], fresh[i])
				return false
			}
		}
	}
	return true
}

func TestSparseRefreshMatchesBulkDetectionQuick(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		u := sparseDetectionUtility(t, rng)
		o := sparseOracle(u.Oracle())
		return checkSparseAgainstBulk(t, o, u.GroundSize(), rng, 3*u.GroundSize())
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSparseRefreshMatchesBulkCoverageQuick(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		u := sparseCoverageUtility(t, rng)
		o := sparseOracle(u.Oracle())
		return checkSparseAgainstBulk(t, o, u.GroundSize(), rng, 3*u.GroundSize())
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSparseRefreshOnClone guards the scratch state (mark/epoch) across
// Clone: a clone must refresh independently of its parent, including
// after enough refreshes to exercise the epoch counter repeatedly.
func TestSparseRefreshOnClone(t *testing.T) {
	rng := stats.NewRNG(99)
	u := sparseDetectionUtility(t, rng)
	parent := sparseOracle(u.Oracle())
	n := u.GroundSize()
	buf := make([]float64, n)
	parent.BulkGain(buf)
	parent.Add(0)
	parent.SparseGainRefresh(0, buf, nil)
	clone := parent.Clone().(sparseOracle)
	if !checkSparseAgainstBulk(t, clone, n, rng, 4*n) {
		t.Fatal("clone sparse refresh diverged from bulk")
	}
	// The parent must be unaffected by the clone's walk.
	fresh := make([]float64, n)
	parent.BulkGain(fresh)
	for i := range fresh {
		if math.Float64bits(buf[i]) != math.Float64bits(fresh[i]) {
			t.Fatalf("parent gain[%d] drifted after clone walk: %v != %v", i, buf[i], fresh[i])
		}
	}
}

// denseCoverageOracle builds a dense coverage instance with non-dyadic
// item values — every item is covered by most sensors — and activates
// every even sensor, so each item's count is far above the refreshers'
// status-flip thresholds.
func denseCoverageOracle(t testing.TB) *CoverageOracle {
	t.Helper()
	const n, m = 40, 12
	rng := stats.NewRNG(77)
	items := make([]CoverageItem, m)
	for i := range items {
		var covered []int
		for v := 0; v < n; v++ {
			if rng.Bernoulli(0.9) {
				covered = append(covered, v)
			}
		}
		items[i] = CoverageItem{Value: 0.1*float64(i+1) + 1.0/3, CoveredBy: covered}
	}
	u, err := NewCoverageUtility(n, items)
	if err != nil {
		t.Fatal(err)
	}
	o := u.Oracle()
	for v := 0; v < n; v += 2 {
		o.Add(v)
	}
	for item, c := range o.counts {
		if c < 8 {
			t.Fatalf("item %d has count %d; the instance is not dense enough", item, c)
		}
	}
	return o
}

// TestCoverageSparseRefreshSkipsUnflipped proves the refreshers'
// skip: after mutations that flip no item's coverage status, every
// entry other than the changed sensors' is exact without recomputation,
// so single and batch, gain and loss refreshes write nothing but
// out[changed]. Entries are pre-filled with a NaN sentinel to catch any
// other write; the exactness of the skipped entries is checked against
// bulk sweeps before and after the mutation.
func TestCoverageSparseRefreshSkipsUnflipped(t *testing.T) {
	cases := []struct {
		name    string
		changed []int
		mutate  func(o *CoverageOracle)
	}{
		{"single-add", []int{5}, func(o *CoverageOracle) { o.Add(5) }},
		{"single-remove", []int{6}, func(o *CoverageOracle) { o.Remove(6) }},
		{"batch", []int{3, 8, 11, 14}, func(o *CoverageOracle) {
			o.Add(3)
			o.Remove(8)
			o.Add(11)
			o.Remove(11)
			o.Remove(14)
		}},
	}
	for _, loss := range []bool{false, true} {
		for _, tc := range cases {
			o := denseCoverageOracle(t)
			bulk, single, batch := o.BulkGain, o.SparseGainRefresh, o.SparseGainRefreshAll
			if loss {
				bulk, single, batch = o.BulkLoss, o.SparseLossRefresh, o.SparseLossRefreshAll
			}
			n := o.u.n
			before, after, out := make([]float64, n), make([]float64, n), make([]float64, n)
			bulk(before)
			tc.mutate(o)
			bulk(after)
			for i := range out {
				out[i] = math.NaN()
			}
			if len(tc.changed) == 1 {
				if w := single(tc.changed[0], out, nil); len(w) != 1 || int(w[0]) != tc.changed[0] {
					t.Fatalf("loss=%v %s: written list %v, want exactly %v", loss, tc.name, w, tc.changed)
				}
			} else {
				batch(tc.changed, out)
			}
			isChanged := make([]bool, n)
			for _, c := range tc.changed {
				isChanged[c] = true
			}
			for v := range out {
				switch {
				case isChanged[v] && math.Float64bits(out[v]) != math.Float64bits(after[v]):
					t.Fatalf("loss=%v %s: out[%d] = %v for a changed sensor, want %v", loss, tc.name, v, out[v], after[v])
				case !isChanged[v] && !math.IsNaN(out[v]):
					t.Fatalf("loss=%v %s: refresh wrote out[%d] = %v; only %v may be written", loss, tc.name, v, out[v], tc.changed)
				case !isChanged[v] && math.Float64bits(before[v]) != math.Float64bits(after[v]):
					t.Fatalf("loss=%v %s: skipped entry %d moved: %v -> %v", loss, tc.name, v, before[v], after[v])
				}
			}
		}
	}
}

// TestCoverageSparseRefreshThresholdBoundary pins the refreshers'
// status-flip thresholds at their boundary: k additions that leave an
// item's count at exactly k (gain: the item was uncovered) or k+1
// (loss: it was critically covered) must still refresh the item's
// unchanged sensors, whose marginals moved. A threshold one lower
// leaves those entries stale.
func TestCoverageSparseRefreshThresholdBoundary(t *testing.T) {
	for k := 1; k <= 4; k++ {
		n := k + 2
		covered := make([]int, n)
		changed := make([]int, k)
		for v := range covered {
			covered[v] = v
		}
		for v := range changed {
			changed[v] = v
		}
		u, err := NewCoverageUtility(n, []CoverageItem{{Value: 0.7, CoveredBy: covered}})
		if err != nil {
			t.Fatal(err)
		}
		for _, loss := range []bool{false, true} {
			for _, single := range []bool{false, true} {
				if single && k != 1 {
					continue
				}
				o := u.Oracle()
				if loss {
					o.Add(n - 1) // the item is critically covered
				}
				out, want := make([]float64, n), make([]float64, n)
				bulk := o.BulkGain
				if loss {
					bulk = o.BulkLoss
				}
				bulk(out)
				for _, v := range changed {
					o.Add(v)
				}
				switch {
				case single && loss:
					o.SparseLossRefresh(0, out, nil)
				case single:
					o.SparseGainRefresh(0, out, nil)
				case loss:
					o.SparseLossRefreshAll(changed, out)
				default:
					o.SparseGainRefreshAll(changed, out)
				}
				bulk(want)
				for v := range want {
					if math.Float64bits(out[v]) != math.Float64bits(want[v]) {
						t.Fatalf("k=%d loss=%v single=%v: out[%d] = %v, bulk %v",
							k, loss, single, v, out[v], want[v])
					}
				}
			}
		}
	}
}

// TestSparseRefreshWrittenList pins the written-list half of the
// single-mutation contract on both oracles: refreshing a NaN-filled
// buffer after a random Add/Remove, the listed sensors are exactly the
// entries written (no other entry leaves NaN), each is listed once,
// changed is among them, and every listed entry equals a fresh bulk
// sweep bit for bit. Appending to a non-empty buffer keeps its prefix.
func TestSparseRefreshWrittenList(t *testing.T) {
	rng := stats.NewRNG(77)
	for trial := 0; trial < 60; trial++ {
		var o sparseOracle
		var size int
		if trial%2 == 0 {
			u := sparseDetectionUtility(t, rng)
			o, size = u.Oracle(), u.GroundSize()
		} else {
			u := sparseCoverageUtility(t, rng)
			o, size = u.Oracle(), u.GroundSize()
		}
		for v := 0; v < size; v++ {
			if rng.Bernoulli(0.5) {
				o.Add(v)
			}
		}
		changed := rng.Intn(size)
		if o.Contains(changed) {
			o.Remove(changed)
		} else {
			o.Add(changed)
		}
		for _, loss := range []bool{false, true} {
			out, want := make([]float64, size), make([]float64, size)
			for i := range out {
				out[i] = math.NaN()
			}
			prefix := []int32{-7}
			var written []int32
			if loss {
				written = o.SparseLossRefresh(changed, out, prefix)
				o.BulkLoss(want)
			} else {
				written = o.SparseGainRefresh(changed, out, prefix)
				o.BulkGain(want)
			}
			if written[0] != -7 {
				t.Fatalf("trial %d loss=%v: prefix overwritten: %v", trial, loss, written)
			}
			listed := make([]bool, size)
			for _, u := range written[1:] {
				if listed[u] {
					t.Fatalf("trial %d loss=%v: sensor %d listed twice", trial, loss, u)
				}
				listed[u] = true
			}
			if !listed[changed] {
				t.Fatalf("trial %d loss=%v: changed sensor %d not listed", trial, loss, changed)
			}
			for v := range out {
				switch {
				case listed[v] && math.Float64bits(out[v]) != math.Float64bits(want[v]):
					t.Fatalf("trial %d loss=%v: listed out[%d] = %v, bulk %v", trial, loss, v, out[v], want[v])
				case !listed[v] && !math.IsNaN(out[v]):
					t.Fatalf("trial %d loss=%v: out[%d] written but not listed", trial, loss, v)
				}
			}
		}
	}
}
