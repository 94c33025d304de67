package netsim

import (
	"fmt"
	"testing"
	"testing/quick"

	"cool/internal/geometry"
	"cool/internal/stats"
)

// This file is the differential harness behind the flat-core rewrite:
// the flat batched Network and the retained map-based ReferenceNetwork
// are driven in lockstep through identical operation scripts and held
// to tick-for-tick identical delivery traces (every field of every
// received message), identical counters, identical Connected results,
// and identical RNG consumption (proven by drawing from both
// generators after the run).

// diffPair couples the two implementations under one op script.
type diffPair struct {
	flat *Network
	ref  *ReferenceNetwork
	ids  []NodeID // registered IDs, ascending
	fbuf []Message
	rbuf []Message
}

func newDiffPair(t testing.TB, cfg Config) *diffPair {
	t.Helper()
	flat, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewReference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &diffPair{flat: flat, ref: ref}
}

func (d *diffPair) addNode(t testing.TB, id NodeID, pos geometry.Point, radio float64) {
	t.Helper()
	errF := d.flat.AddNode(id, pos, radio)
	errR := d.ref.AddNode(id, pos, radio)
	if (errF == nil) != (errR == nil) {
		t.Fatalf("AddNode(%d) diverged: flat=%v ref=%v", id, errF, errR)
	}
	if errF == nil {
		d.ids = append(d.ids, 0)
		at := len(d.ids) - 1
		for at > 0 && d.ids[at-1] > id {
			d.ids[at] = d.ids[at-1]
			at--
		}
		d.ids[at] = id
	}
}

func (d *diffPair) addNodes(t testing.TB, specs []NodeSpec) {
	t.Helper()
	errF := d.flat.AddNodes(specs)
	errR := d.ref.AddNodes(specs)
	if (errF == nil) != (errR == nil) {
		t.Fatalf("AddNodes diverged: flat=%v ref=%v", errF, errR)
	}
	if errF == nil {
		for _, s := range specs {
			d.ids = append(d.ids, s.ID)
		}
		for i := 1; i < len(d.ids); i++ {
			for j := i; j > 0 && d.ids[j-1] > d.ids[j]; j-- {
				d.ids[j-1], d.ids[j] = d.ids[j], d.ids[j-1]
			}
		}
	}
}

func (d *diffPair) batch(t testing.TB, from NodeID, payload any) {
	t.Helper()
	nF, errF := d.flat.Batch(from, payload)
	nR, errR := d.ref.Batch(from, payload)
	if (errF == nil) != (errR == nil) || nF != nR {
		t.Fatalf("Batch(%d) diverged: flat=(%d,%v) ref=(%d,%v)", from, nF, errF, nR, errR)
	}
}

func (d *diffPair) send(t testing.TB, from, to NodeID, payload any) {
	t.Helper()
	errF := d.flat.Send(from, to, payload)
	errR := d.ref.Send(from, to, payload)
	if (errF == nil) != (errR == nil) {
		t.Fatalf("Send(%d→%d) diverged: flat=%v ref=%v", from, to, errF, errR)
	}
}

func (d *diffPair) setDown(t testing.TB, id NodeID, down bool) {
	t.Helper()
	errF := d.flat.SetDown(id, down)
	errR := d.ref.SetDown(id, down)
	if (errF == nil) != (errR == nil) {
		t.Fatalf("SetDown(%d,%v) diverged: flat=%v ref=%v", id, down, errF, errR)
	}
}

// step advances both networks one tick and compares every node's
// drained inbox message for message, field for field.
func (d *diffPair) step(t testing.TB) {
	t.Helper()
	d.flat.Step()
	d.ref.Step()
	if d.flat.Now() != d.ref.Now() {
		t.Fatalf("clocks diverged: flat=%d ref=%d", d.flat.Now(), d.ref.Now())
	}
	for _, id := range d.ids {
		var errF, errR error
		d.fbuf, errF = d.flat.ReceiveInto(id, d.fbuf)
		d.rbuf, errR = d.ref.ReceiveInto(id, d.rbuf)
		if (errF == nil) != (errR == nil) {
			t.Fatalf("Receive(%d) diverged: flat=%v ref=%v", id, errF, errR)
		}
		if len(d.fbuf) != len(d.rbuf) {
			t.Fatalf("tick %d node %d: flat delivered %d, ref %d",
				d.flat.Now(), id, len(d.fbuf), len(d.rbuf))
		}
		for i := range d.fbuf {
			if d.fbuf[i] != d.rbuf[i] {
				t.Fatalf("tick %d node %d message %d: flat=%+v ref=%+v",
					d.flat.Now(), id, i, d.fbuf[i], d.rbuf[i])
			}
		}
	}
}

// audit compares the cumulative counters, the neighborhoods of every
// node, and connectivity.
func (d *diffPair) audit(t testing.TB) {
	t.Helper()
	sF, dF, pF := d.flat.Stats()
	sR, dR, pR := d.ref.Stats()
	if sF != sR || dF != dR || pF != pR {
		t.Fatalf("stats diverged: flat=(%d,%d,%d) ref=(%d,%d,%d)", sF, dF, pF, sR, dR, pR)
	}
	if cF, cR := d.flat.Connected(), d.ref.Connected(); cF != cR {
		t.Fatalf("Connected diverged: flat=%v ref=%v", cF, cR)
	}
	for _, id := range d.ids {
		nF, errF := d.flat.Neighbors(id)
		nR, errR := d.ref.Neighbors(id)
		if (errF == nil) != (errR == nil) || len(nF) != len(nR) {
			t.Fatalf("Neighbors(%d) diverged: flat=%v(%v) ref=%v(%v)", id, nF, errF, nR, errR)
		}
		for i := range nF {
			if nF[i] != nR[i] {
				t.Fatalf("Neighbors(%d) diverged at %d: flat=%v ref=%v", id, i, nF, nR)
			}
		}
	}
}

// auditRNG proves both cores consumed their generators identically: the
// streams are seeded the same, so the next draws agree iff the same
// number of draws happened in the same order. Destructive — call last.
func (d *diffPair) auditRNG(t testing.TB) {
	t.Helper()
	if f, r := d.flat.rng.Uint64(), d.ref.rng.Uint64(); f != r {
		t.Fatalf("RNG streams diverged: flat next=%#x ref next=%#x", f, r)
	}
}

// runScript exercises a seeded random workload against both cores.
func runScript(t testing.TB, seed uint64, nodes, ticks int, cfg Config) {
	t.Helper()
	rng := stats.NewRNG(seed)
	d := newDiffPair(t, cfg)

	// Bulk fleet with mixed radio ranges; a degenerate spec every now
	// and then exercises validation parity.
	specs := make([]NodeSpec, 0, nodes)
	for i := 0; i < nodes; i++ {
		specs = append(specs, NodeSpec{
			ID:    NodeID(i),
			Pos:   geometry.Point{X: rng.Float64() * 200, Y: rng.Float64() * 200},
			Radio: 20 + rng.Float64()*40,
		})
	}
	d.addNodes(t, specs)
	d.audit(t)

	payload := 0
	for tick := 0; tick < ticks; tick++ {
		for k := rng.Intn(4); k > 0; k-- {
			d.batch(t, NodeID(rng.Intn(nodes)), payload)
			payload++
		}
		for k := rng.Intn(3); k > 0; k-- {
			d.send(t, NodeID(rng.Intn(nodes)), NodeID(rng.Intn(nodes)), payload)
			payload++
		}
		if rng.Intn(5) == 0 {
			id := NodeID(rng.Intn(nodes))
			d.setDown(t, id, !d.flat.IsDown(id))
		}
		if rng.Intn(7) == 0 {
			// Mid-run registration invalidates the flat spatial index.
			id := NodeID(1000 + len(d.ids))
			d.addNode(t, id, geometry.Point{X: rng.Float64() * 200, Y: rng.Float64() * 200}, 25)
		}
		d.step(t)
		if tick%8 == 0 {
			d.audit(t)
		}
	}
	// Drain any jittered tail before the final audit.
	for i := 0; i < cfg.MaxDelay+1; i++ {
		d.step(t)
	}
	d.audit(t)
	d.auditRNG(t)
}

func TestDifferentialSeeded(t *testing.T) {
	cfgs := []Config{
		{},                                     // lossless next-tick
		{Loss: 0.3, Seed: 11},                  // lossy
		{Loss: 0.15, MinDelay: 1, MaxDelay: 4}, // jitter
		{Loss: 0.5, MinDelay: 2, MaxDelay: 6, Seed: 5}, // lossy + wide jitter
	}
	for ci, cfg := range cfgs {
		for seed := uint64(1); seed <= 4; seed++ {
			cfg := cfg
			t.Run(fmt.Sprintf("cfg%d/seed%d", ci, seed), func(t *testing.T) {
				runScript(t, seed, 40, 60, cfg)
			})
		}
	}
}

// TestDifferentialProperty lets testing/quick choose the seed, fleet
// size, and medium parameters.
func TestDifferentialProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep skipped in -short mode")
	}
	f := func(seed uint64, nRaw, lossRaw, jitterRaw uint8) bool {
		nodes := 5 + int(nRaw)%60
		cfg := Config{
			Loss:     float64(lossRaw%90) / 100,
			MinDelay: 1,
			MaxDelay: 1 + int(jitterRaw)%5,
			Seed:     seed * 7,
		}
		runScript(t, seed, nodes, 30, cfg)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestDifferentialDenseCluster packs every node into grid-cell-sized
// quarters so the spatial index degenerates toward a single bucket —
// the regime where candidate pruning does nothing and ordering bugs
// would surface.
func TestDifferentialDenseCluster(t *testing.T) {
	d := newDiffPair(t, Config{Loss: 0.2, Seed: 3})
	specs := make([]NodeSpec, 30)
	for i := range specs {
		specs[i] = NodeSpec{
			ID:    NodeID(i * 3), // sparse, unordered-friendly IDs
			Pos:   geometry.Point{X: float64(i % 2), Y: float64(i % 3)},
			Radio: 50, // everyone hears everyone
		}
	}
	d.addNodes(t, specs)
	for tick := 0; tick < 20; tick++ {
		d.batch(t, specs[tick%len(specs)].ID, tick)
		d.step(t)
	}
	d.audit(t)
	d.auditRNG(t)
}

// TestDifferentialCoincidentNodes stacks nodes on the same point
// (distance 0 edges) and includes a far-away island.
func TestDifferentialCoincidentNodes(t *testing.T) {
	d := newDiffPair(t, Config{Seed: 9})
	d.addNodes(t, []NodeSpec{
		{ID: 2, Pos: geometry.Point{X: 5, Y: 5}, Radio: 10},
		{ID: 0, Pos: geometry.Point{X: 5, Y: 5}, Radio: 10},
		{ID: 1, Pos: geometry.Point{X: 5, Y: 5}, Radio: 10},
		{ID: 3, Pos: geometry.Point{X: 1e6, Y: 1e6}, Radio: 10}, // island
	})
	for tick := 0; tick < 6; tick++ {
		d.batch(t, NodeID(tick%4), tick)
		d.send(t, 0, 1, tick)
		d.send(t, 0, 3, tick) // unreachable: error parity
		d.step(t)
	}
	d.audit(t)
	d.auditRNG(t)
}
