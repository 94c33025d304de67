package main

import (
	"testing"
)

// replayCounts replays two timed lifecycles of the workload and, for
// serve workloads, measures the same two lifecycles over the wire.
func replayCounts(t *testing.T, name string, seed uint64) (exactCounts, int64) {
	t.Helper()
	w := *workloads[name]
	w.replay = 2
	// A zero duration ends the timed phase right after minLifecycles.
	cfg := phaseConfig{seed: seed, dir: t.TempDir(), minLifecycles: w.replay}
	var wire int64
	if w.serve {
		env, _, err := setUp(&w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := timedPhase(&w, env, cfg)
		if cerr := env.close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		if res.rec.failed != 0 || res.lifecycles != w.replay {
			t.Fatalf("%s seed %d: %d failed ops, %d lifecycles", name, seed, res.rec.failed, res.lifecycles)
		}
		wire = res.bytes
	}
	got, err := replay(&w, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if w.serve && got.counts.wireBytes != wire {
		t.Errorf("%s seed %d: replay encodes %d wire bytes, the connections carried %d", name, seed, got.counts.wireBytes, wire)
	}
	return got.counts, wire
}

// TestExactCountsDeterministic holds the traced run's exact counts
// (wire and WAL bytes, incidence, repair work, pushes, simulation
// counts) identical across two runs on one seed, and requires a
// different seed to change the seed-dependent ones.
func TestExactCountsDeterministic(t *testing.T) {
	for _, name := range []string{"serve-sparse", "serve-dense", "plan-simulate"} {
		t.Run(name, func(t *testing.T) {
			a, wireA := replayCounts(t, name, 1)
			b, wireB := replayCounts(t, name, 1)
			if a != b || wireA != wireB {
				t.Fatalf("seed 1 twice: %+v (wire %d) vs %+v (wire %d)", a, wireA, b, wireB)
			}
			c, _ := replayCounts(t, name, 2)
			if a.incidence == c.incidence || a.repairDirty == c.repairDirty {
				t.Errorf("seed 2 left seed-dependent counts unchanged: %+v vs %+v", a, c)
			}
			serve := workloads[name].serve
			if serve && (a.wireBytes == c.wireBytes || a.walBytes == c.walBytes) {
				t.Errorf("seed 2 left wire/WAL bytes unchanged: %+v vs %+v", a, c)
			}
			if a.simDenied != 0 || a.pushes != int64(2*workloads[name].pushes()) {
				t.Errorf("denied %d, pushes %d", a.simDenied, a.pushes)
			}
		})
	}
}
