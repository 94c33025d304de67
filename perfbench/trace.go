package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one traced call: a layer's public function, or an op (the
// root span, named "op.<type>") that the layer calls ran under.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
}

// tracer keeps spans in memory. A disabled tracer records nothing, so
// the same replay code runs traced and plain.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	stack []int32
	op    int32
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now(), op: -1} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// beginOp opens the root span of one op.
func (t *tracer) beginOp(op string) int32 { return t.beginRoot("op." + op) }

// beginRoot opens a root span, whatever is open; the spans under it
// carry its index as their op.
func (t *tracer) beginRoot(name string) int32 {
	if !t.on {
		return -1
	}
	t.op = int32(len(t.spans))
	return t.push(name, -1)
}

func (t *tracer) begin(name string) int32 {
	if !t.on {
		return -1
	}
	parent := int32(-1)
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	return t.push(name, parent)
}

func (t *tracer) push(name string, parent int32) int32 {
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: parent, Op: t.op})
	t.stack = append(t.stack, i)
	return i
}

func (t *tracer) end(i int32) {
	if !t.on {
		return
	}
	t.spans[i].End = t.now()
	t.stack = t.stack[:len(t.stack)-1]
}

// span runs fn inside a span named after a layer call.
func (t *tracer) span(name string, fn func() error) error {
	i := t.begin(name)
	err := fn()
	t.end(i)
	return err
}

// layerMetrics maps each traced layer call to its per-layer metric.
var layerMetrics = []struct{ span, metric string }{
	{"wire.encode", "wire.encode_ms"},
	{"wire.decode", "wire.decode_ms"},
	{"admission.normalize", "admission.normalize_ms"},
	{"admission.fingerprint", "admission.fingerprint_ms"},
	{"wal.append", "wal.append_ms"},
	{"wal.checkpoint", "wal.checkpoint_ms"},
	{"wsn.network", "wsn.network_ms"},
	{"submodular.oracle", "submodular.oracle_ms"},
	{"submodular.eval", "submodular.eval_ms"},
	{"core.plan", "core.plan_ms"},
	{"core.repair", "core.repair_ms"},
	{"core.drift", "core.drift_ms"},
	{"watch.push", "watch.push_lag_ms"},
	{"watch.receive", "watch.push_lag_ms"},
	{"sim.run", "sim.run_ms"},
}

// residualOps are the op types whose transport residual is reported.
var residualOps = []string{opSubmit, opPlan, opReplan, opDrift, opQuery, opSim}

// exactCounts are the replay's work counts; each must repeat exactly
// on a seed.
type exactCounts struct {
	wireBytes      int64
	walAppends     int64
	walCheckpoints int64
	walBytes       int64
	incidence      int64
	repairDirty    int64
	repairMoves    int64
	repairRounds   int64
	pushes         int64
	simSlots       int64
	simActivations int64
	simDenied      int64
}

// replayResult is one replay of lifecycles 0..n (0 untraced, as the
// set-up's warm-up).
type replayResult struct {
	tr     *tracer
	wall   time.Duration
	logs   []*resultLog
	counts exactCounts
}

// replayer replays a workload's lifecycles by calling each layer's
// public function directly, in the order the serving path calls them.
type replayer interface {
	lifecycle(lc *lifecycle, log *resultLog) error
	close() error
}

// replay runs lifecycles 0..w.replay through the workload's replayer.
// Only lifecycles 1..w.replay are traced and timed.
func replay(w *workload, cfg phaseConfig, traced bool) (*replayResult, error) {
	res := &replayResult{tr: newTracer(false)}
	var (
		r   replayer
		err error
	)
	if w.serve {
		r, err = newServeReplay(w, cfg.dir, res)
	} else {
		r = &simReplay{w: w, res: res}
	}
	if err != nil {
		return nil, err
	}
	defer r.close()
	if err := r.lifecycle(w.lifecycle(cfg.seed, 0), &resultLog{}); err != nil {
		return nil, fmt.Errorf("replay warm-up: %w", err)
	}
	res.counts = exactCounts{}
	res.tr = newTracer(traced)
	start := time.Now()
	for i := 1; i <= w.replay; i++ {
		log := &resultLog{}
		if err := r.lifecycle(w.lifecycle(cfg.seed, i), log); err != nil {
			return nil, fmt.Errorf("replay lifecycle %d: %w", i, err)
		}
		res.logs = append(res.logs, log)
	}
	res.wall = time.Since(start)
	return res, r.close()
}

// runTraced measures one timed phase after a single set-up, then
// replays its first w.replay lifecycles plain and traced, checks the
// replays against what the measured run answered, and prints the
// per-layer metrics.
func runTraced(w *workload, cfg phaseConfig, scratch string) error {
	cfg.minLifecycles = w.replay
	env, _, err := setUp(w, cfg)
	if err != nil {
		return err
	}
	res, err := timedPhase(w, env, cfg)
	if cerr := env.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	res.print(os.Stdout)

	plain, err := replay(w, cfg, false)
	if err != nil {
		return err
	}
	traced, err := replay(w, cfg, true)
	if err != nil {
		return err
	}
	attempted, failed := res.rec.attempted, res.rec.failed
	for i, got := range traced.logs {
		attempted++
		if i >= len(res.logs) {
			failed++
			continue
		}
		if err := sameLog(res.logs[i], got); err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: lifecycle %d: replay differs from the measured run: %v\n", i+1, err)
		}
	}
	attempted++
	if plain.counts != traced.counts {
		failed++
		fmt.Fprintf(os.Stderr, "perfbench: exact counts differ between replays: %+v vs %+v\n", plain.counts, traced.counts)
	}
	if w.serve {
		attempted++
		if traced.counts.wireBytes != res.bytes {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: wire bytes %d on the connections, %d in the replay\n", res.bytes, traced.counts.wireBytes)
		}
	}

	metrics := perLayer(w, res, plain, traced)
	if err := dumpSpans(filepath.Join(scratch, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, cfg.seed)), traced.tr.spans); err != nil {
		return err
	}
	return emit(attempted, failed, metrics)
}

// sameLog holds the replay's values bit-identical to the measured run's.
func sameLog(want, got *resultLog) error {
	if want.fingerprint != got.fingerprint {
		return fmt.Errorf("fingerprint %s, replay %s", want.fingerprint, got.fingerprint)
	}
	if len(want.utilities) != len(got.utilities) {
		return fmt.Errorf("%d utilities, replay %d", len(want.utilities), len(got.utilities))
	}
	for k := range want.utilities {
		if !sameBits(want.utilities[k], got.utilities[k]) {
			return fmt.Errorf("utility %d: %v, replay %v", k, want.utilities[k], got.utilities[k])
		}
	}
	return nil
}

// selfTimes returns each span's duration minus the time its child
// spans cover (children of one span never overlap).
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// perLayer computes the per-layer metrics and prints the reconcile
// line of every op type.
func perLayer(w *workload, res *phaseResult, plain, traced *replayResult) map[string]metric {
	spans := traced.tr.spans
	self := selfTimes(spans)
	perLC := float64(w.replay)
	m := make(map[string]metric)
	layerOf := make(map[string]string)
	for _, l := range layerMetrics {
		layerOf[l.span] = l.metric
		m[l.metric] = metric{0, "ms"}
	}
	// Per op: the self time of each named layer inside it.
	type opLayers struct {
		op     string
		layers map[string]float64
	}
	var ops []opLayers
	opIndex := make(map[int32]int)
	for i, s := range spans {
		ms := float64(self[i]) / float64(time.Millisecond)
		if metricName, ok := layerOf[s.Name]; ok {
			v := m[metricName]
			v.Value += ms / perLC
			m[metricName] = v
		}
		if s.Parent < 0 && strings.HasPrefix(s.Name, "op.") {
			opIndex[int32(i)] = len(ops)
			ops = append(ops, opLayers{op: strings.TrimPrefix(s.Name, "op."), layers: map[string]float64{}})
		}
		if k, ok := opIndex[s.Op]; ok && s.Parent >= 0 {
			if _, ok := layerOf[s.Name]; ok {
				ops[k].layers[s.Name] += ms
			}
		}
	}

	byOp := make(map[string][]opLayers)
	for _, o := range ops {
		byOp[o.op] = append(byOp[o.op], o)
	}
	names := make([]string, 0, len(byOp))
	for op := range byOp {
		names = append(names, op)
	}
	sort.Strings(names)
	fmt.Println("reconcile, as measured (traced replay medians per op type against the measured e2e median):")
	residual := make(map[string]float64)
	for _, op := range names {
		group := byOp[op]
		var totals []float64
		perLayer := make(map[string][]float64)
		for _, o := range group {
			sum := 0.0
			for _, l := range layerMetrics {
				perLayer[l.span] = append(perLayer[l.span], o.layers[l.span])
				sum += o.layers[l.span]
			}
			totals = append(totals, sum)
		}
		var parts []string
		for _, l := range layerMetrics {
			if v := median(perLayer[l.span]); v > 0 {
				parts = append(parts, fmt.Sprintf("%s %.4f", l.span, v))
			}
		}
		layers := median(totals)
		e2e := median(res.rec.raw[op])
		if len(res.rec.raw[op]) == 0 {
			fmt.Printf("  %-15s layers %.4f ms [%s] (no e2e samples)\n", op, layers, strings.Join(parts, " + "))
			continue
		}
		residual[op] = e2e - layers
		verdict := "ok"
		// The replay runs after the measured phase; host speed drifts by
		// up to ±15% over minutes, so only a larger excess is flagged.
		if layers > 1.25*e2e {
			verdict = "layers-exceed-e2e"
		}
		fmt.Printf("  %-15s e2e p50 %.4f ms = layers %.4f [%s] + transport.residual %.4f (%.1f%%) -> %s\n",
			op, e2e, layers, strings.Join(parts, " + "), e2e-layers, 100*(e2e-layers)/e2e, verdict)
	}
	for _, op := range residualOps {
		m["transport.residual."+op+"_ms"] = metric{residual[op], "ms"}
	}
	m["trace.overhead_pct"] = metric{100 * (traced.wall.Seconds() - plain.wall.Seconds()) / plain.wall.Seconds(), "%"}

	c := traced.counts
	wireBytes := float64(c.wireBytes)
	if w.serve {
		wireBytes = float64(res.bytes)
	}
	useful := 0.0
	if c.repairDirty > 0 {
		useful = float64(c.repairMoves) / float64(c.repairDirty)
	}
	for name, v := range map[string]float64{
		"wire.bytes":         wireBytes,
		"wal.appends":        float64(c.walAppends),
		"wal.checkpoints":    float64(c.walCheckpoints),
		"wal.bytes":          float64(c.walBytes),
		"wsn.incidence":      float64(c.incidence),
		"core.repair_dirty":  float64(c.repairDirty),
		"core.repair_moves":  float64(c.repairMoves),
		"core.repair_rounds": float64(c.repairRounds),
		"core.repair_useful": useful,
		"watch.pushes":       float64(c.pushes),
		"sim.slots":          float64(c.simSlots),
		"sim.activations":    float64(c.simActivations),
		"sim.denied":         float64(c.simDenied),
	} {
		unit := "count"
		if name == "wire.bytes" || name == "wal.bytes" {
			unit = "B"
		}
		if name == "core.repair_useful" {
			unit = "1"
		}
		m[name] = metric{v, unit}
	}
	fmt.Printf("traced replay: %d lifecycles, %.3f s traced vs %.3f s plain; per-layer times are ms per lifecycle\n",
		w.replay, traced.wall.Seconds(), plain.wall.Seconds())
	return m
}

// dumpSpans writes the traced replay's spans, one JSON object a line.
func dumpSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
