package submodular

import (
	"math/rand"
	"testing"
)

// Microbenchmarks for the oracle hot path. `make bench-mem` runs these
// with -benchmem as the allocation smoke pass; the headline old-vs-new
// engine comparison lives in internal/experiments (coolbench -fig
// memlayout). The MapOracle benchmarks keep the retired map layout
// measurable so regressions of the flat layout are visible as a shrunk
// gap rather than an absolute mystery.

const benchN = 1024

func benchDetection(b *testing.B) *DetectionUtility {
	b.Helper()
	rng := rand.New(rand.NewSource(11))
	u := randomDetection(rng, benchN, benchN/2)
	return u
}

func seedOracle(o RemovalOracle, n int) {
	for v := 0; v < n; v += 3 {
		o.Add(v)
	}
}

func BenchmarkDetectionOracleGain(b *testing.B) {
	o := benchDetection(b).Oracle()
	seedOracle(o, benchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = o.Gain(i % benchN)
	}
}

func BenchmarkDetectionOracleLoss(b *testing.B) {
	o := benchDetection(b).Oracle()
	seedOracle(o, benchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = o.Loss(i % benchN)
	}
}

func BenchmarkDetectionOracleBulkGain(b *testing.B) {
	o := benchDetection(b).Oracle()
	seedOracle(o, benchN)
	out := make([]float64, benchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.BulkGain(out)
	}
}

func BenchmarkDetectionOracleAddRemove(b *testing.B) {
	o := benchDetection(b).Oracle()
	seedOracle(o, benchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := i % benchN
		o.Add(v)
		o.Remove(v)
	}
}

func BenchmarkCoverageOracleGain(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	o := randomCoverage(rng, benchN, benchN/2).Oracle()
	seedOracle(o, benchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = o.Gain(i % benchN)
	}
}

func BenchmarkCoverageOracleBulkGain(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	o := randomCoverage(rng, benchN, benchN/2).Oracle()
	seedOracle(o, benchN)
	out := make([]float64, benchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.BulkGain(out)
	}
}

// BenchmarkCoverageSparseGainRefreshDense measures one Add/Remove plus
// the column refresh at coold's dense serving shape (n = 1500, m = 150,
// ≈250 sensors per item) with a third of the sensors active: the
// steady state of a repair sweep, where a toggle flips no item's
// coverage status and the refresh recomputes only the toggled sensor.
func BenchmarkCoverageSparseGainRefreshDense(b *testing.B) {
	const n, m = 1500, 150
	rng := rand.New(rand.NewSource(13))
	items := make([]CoverageItem, m)
	for i := range items {
		var covered []int
		for v := 0; v < n; v++ {
			if rng.Intn(6) == 0 {
				covered = append(covered, v)
			}
		}
		items[i] = CoverageItem{Value: 1, CoveredBy: covered}
	}
	u, err := NewCoverageUtility(n, items)
	if err != nil {
		b.Fatal(err)
	}
	o := u.Oracle()
	seedOracle(o, n)
	out := make([]float64, n)
	written := make([]int32, 0, n)
	o.BulkGain(out)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := i % n
		if o.Contains(v) {
			o.Remove(v)
		} else {
			o.Add(v)
		}
		written = o.SparseGainRefresh(v, out, written[:0])
	}
}

// BenchmarkEvalOracleGain measures the generic bitset-backed fallback
// oracle; its cost is dominated by the wrapped Eval.
func BenchmarkEvalOracleGain(b *testing.B) {
	o := NewEvalOracle(benchDetection(b))
	seedOracle(o, benchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = o.Gain(i % benchN)
	}
}

// BenchmarkMapOracleGain is the pre-rewrite map-based reference under
// the same load — the yardstick for the flat layout's win.
func BenchmarkMapOracleGain(b *testing.B) {
	o := NewMapOracle(benchDetection(b))
	seedOracle(o, benchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = o.Gain(i % benchN)
	}
}
