package main

import (
	"encoding/json"
	"sort"
	"time"
)

// The build host's speed changes by up to 3× over minutes (a dense
// serve run completed 1073 ops in one 30 s phase and 3219 in another,
// half an hour apart, with no steal time). Raw wall times of one
// program therefore cannot repeat across runs. Each lifecycle's timings
// are scaled to a reference host speed instead: just before the
// lifecycle, off the clock, the benchmark times a fixed kernel and
// multiplies the lifecycle's times by refKernel ÷ the kernel's median.
//
// The kernel is benchmark-owned code over the standard library only
// (JSON encode and decode, sort, map and slice allocation), so no change
// to the repository's code changes it, and like the measured paths it
// allocates heavily. Across one such speed change, JSON encoding sped
// up 2.7× and the repository's network build and incremental plan 2.4×,
// while a pure hashing loop sped up only 1.5×.

// refKernel is the kernel's median time at the reference host speed.
const refKernel = time.Millisecond

// calRecord is one element of the kernel's fixed input.
type calRecord struct {
	ID    int     `json:"id"`
	X     float64 `json:"x"`
	Y     float64 `json:"y"`
	Range float64 `json:"range"`
	Tag   string  `json:"tag"`
}

var calInput = func() []calRecord {
	recs := make([]calRecord, 500)
	x := uint64(88172645463325252)
	next := func() float64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return float64(x>>11) / (1 << 53)
	}
	for i := range recs {
		recs[i] = calRecord{ID: i, X: 500 * next(), Y: 500 * next(), Range: 22, Tag: "sensor"}
	}
	return recs
}()

// kernel encodes and decodes the fixed input, sorts it and indexes it.
func kernel() error {
	data, err := json.Marshal(calInput)
	if err != nil {
		return err
	}
	var out []calRecord
	if err := json.Unmarshal(data, &out); err != nil {
		return err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].X < out[j].X })
	index := make(map[int]*calRecord, len(out))
	for i := range out {
		index[out[i].ID] = &out[i]
	}
	calSink = len(index)
	return nil
}

var calSink int

// speedFactor times the kernel five times and returns refKernel over
// the median: above 1 when the host runs slower than the reference.
func speedFactor() (float64, error) {
	var ds [5]time.Duration
	for i := range ds {
		start := time.Now()
		if err := kernel(); err != nil {
			return 0, err
		}
		ds[i] = time.Since(start)
	}
	sort.Slice(ds[:], func(i, j int) bool { return ds[i] < ds[j] })
	return float64(refKernel) / float64(ds[2]), nil
}
