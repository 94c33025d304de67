// Command perfbench is the repository benchmark: closed-loop workloads
// over the coold serving path (controlplane server + clients on
// loopback TCP) and the in-process coolsim path (Deploy → Plan →
// Simulate), reporting per-op-type medians end to end and, with
// --trace 1, per-layer self times from a traced replay of the same
// seed-generated operations.
//
// Run it from the repository root through perfbench/run.sh, which
// builds it:
//
//	bash perfbench/run.sh --workload serve-sparse --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See perfbench/README.md for
// the workloads, the metrics and why they were chosen.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// setupRepeats is how many times a run sets its workload up; setup_s
// is the median.
const setupRepeats = 5

// scratchDir, relative to the repository root the benchmark runs in,
// holds the WAL data directories while a run lasts and the span dumps
// of traced runs; run.sh keeps its build cache there too.
const scratchDir = ".bench_build"

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload: serve-sparse | serve-dense | plan-simulate")
		seed    = fs.Uint64("seed", 1, "workload seed; every input is generated from it")
		seconds = fs.Int("seconds", 20, "length of the timed phase in seconds")
		traced  = fs.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want %s)", *name, workloadNames())
	}
	if *seconds <= 0 {
		return fmt.Errorf("non-positive --seconds %d", *seconds)
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *traced)
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(scratchDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	cfg := phaseConfig{seed: *seed, duration: time.Duration(*seconds) * time.Second, dir: dir}
	if *traced == 1 {
		return runTraced(w, cfg, scratchDir)
	}
	return runUntraced(w, cfg)
}

// phaseConfig parameterizes one timed phase.
type phaseConfig struct {
	seed     uint64
	duration time.Duration
	dir      string
	// minLifecycles extends the phase until this many timed lifecycles
	// completed (the traced run compares them with its replay).
	minLifecycles int
}

// runUntraced sets the workload up setupRepeats times, measures one
// timed phase on the last set-up and prints the end-to-end metrics.
func runUntraced(w *workload, cfg phaseConfig) error {
	var setups []float64
	var env driver
	for i := 0; i < setupRepeats; i++ {
		if env != nil {
			if err := env.close(); err != nil {
				return err
			}
		}
		var (
			d   time.Duration
			err error
		)
		env, d, err = setUp(w, cfg)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	res, err := timedPhase(w, env, cfg)
	if cerr := env.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	res.print(os.Stdout)
	fmt.Printf("setup_s samples %v\n", setups)
	metrics := res.endToEnd(median(setups))
	return emit(res.rec.attempted, res.rec.failed, metrics)
}

// setUp builds the workload's environment and runs one untimed warm-up
// lifecycle, then collects garbage; the returned duration, scaled to
// the reference host speed measured just before, is setup_s.
func setUp(w *workload, cfg phaseConfig) (driver, time.Duration, error) {
	speed, err := speedFactor()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	var env driver
	if w.serve {
		env, err = startServe(w, cfg.dir)
	} else {
		env = &simDriver{w: w}
	}
	if err != nil {
		return nil, 0, err
	}
	warm := newRecorder()
	if err := env.lifecycle(w.lifecycle(cfg.seed, 0), warm, nil); err != nil {
		env.close()
		return nil, 0, fmt.Errorf("warm-up lifecycle: %w", err)
	}
	runtime.GC()
	return env, time.Duration(speed * float64(time.Since(start))), nil
}

// driver runs lifecycles against one set-up environment.
type driver interface {
	// lifecycle runs one deployment's script, recording every op into
	// rec and, when log is non-nil, the wire results the traced replay
	// is compared with.
	lifecycle(lc *lifecycle, rec *recorder, log *resultLog) error
	// wireBytes returns the bytes moved on the client connections so
	// far (0 for in-process workloads).
	wireBytes() int64
	close() error
}

// phaseResult is what one timed phase measured.
type phaseResult struct {
	rec        *recorder
	lifecycles int
	wall       time.Duration
	liveHeapMB float64
	// logs[i-1] holds lifecycle i's wire results, for i ≤ minLifecycles.
	logs []*resultLog
	// bytes is the wire byte count over lifecycles 1..len(logs).
	bytes int64
}

// timedPhase runs lifecycles 1, 2, ... until cfg.duration of measured
// wall time has passed. Kept off the clock (rec.paused) are the
// client's own input generation and output checks, the host speed
// measurement that scales the lifecycle's timings (calibrate.go), and a
// garbage collection before each lifecycle, so that every lifecycle
// starts from a collected heap instead of inheriting a GC cycle in an
// arbitrary phase from the one before. The live heap is sampled, off the clock,
// once w.heapAt lifecycles completed, so it does not scale with how
// many lifecycles a run happens to reach.
func timedPhase(w *workload, env driver, cfg phaseConfig) (*phaseResult, error) {
	rec := newRecorder()
	res := &phaseResult{rec: rec, liveHeapMB: -1}
	bytes0 := env.wireBytes()
	start := time.Now()
	elapsed := func() time.Duration { return time.Since(start) - rec.paused }
	for i := 1; ; i++ {
		if elapsed() >= cfg.duration && i > cfg.minLifecycles {
			break
		}
		var (
			lc  *lifecycle
			err error
		)
		rec.offClock(func() {
			lc = w.lifecycle(cfg.seed, i)
			runtime.GC()
			rec.speed, err = speedFactor()
		})
		if err != nil {
			return nil, err
		}
		onClock := elapsed()
		var log *resultLog
		if i <= cfg.minLifecycles {
			log = &resultLog{}
			res.logs = append(res.logs, log)
		}
		if err := env.lifecycle(lc, rec, log); err != nil {
			// The environment is in an unknown state after a failure;
			// the phase ends and the failure is reported.
			fmt.Fprintf(os.Stderr, "perfbench: lifecycle %d: %v\n", i, err)
			break
		}
		rec.refWall += time.Duration(rec.speed * float64(elapsed()-onClock))
		res.lifecycles = i
		if i == cfg.minLifecycles {
			res.bytes = env.wireBytes() - bytes0
		}
		if i == w.heapAt {
			rec.offClock(func() { res.liveHeapMB = liveHeapMB() })
		}
	}
	res.wall = elapsed()
	if res.liveHeapMB < 0 {
		res.liveHeapMB = liveHeapMB()
	}
	if res.lifecycles == 0 && rec.failed == 0 {
		return nil, errors.New("timed phase completed no lifecycle")
	}
	return res, nil
}

// liveHeapMB collects garbage twice, so sync.Pool victim caches (the
// JSON encoder's buffers after a checkpoint) are gone too, and returns
// the heap still live.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// endToEnd maps the phase onto the end-to-end metrics.
func (r *phaseResult) endToEnd(setupS float64) map[string]metric {
	m := map[string]metric{
		"setup_s":      {setupS, "s"},
		"ops_per_s":    {float64(r.rec.done) / r.rec.refWall.Seconds(), "1/s"},
		"live_heap_mb": {r.liveHeapMB, "MB"},
	}
	for name, op := range gatedOps {
		m[name] = metric{median(r.rec.samples[op]), "ms"}
	}
	return m
}

// gatedOps maps each end-to-end latency metric to the op type whose
// median it reports. Every workload runs every one of these op types.
var gatedOps = map[string]string{
	"submit_p50_ms":   opSubmit,
	"plan_p50_ms":     opPlan,
	"replan_p50_ms":   opReplan,
	"drift_p50_ms":    opDrift,
	"query_p50_ms":    opQuery,
	"push_lag_p50_ms": opPushLag,
	"sim_p50_ms":      opSim,
}

func (r *phaseResult) print(out *os.File) {
	fmt.Fprintf(out, "timed phase: %d lifecycles, %d ops in %.3f s measured, %.3f s at reference speed (off-clock %.3f s), live heap %.2f MB\n",
		r.lifecycles, r.rec.done, r.wall.Seconds(), r.rec.refWall.Seconds(), r.rec.paused.Seconds(), r.liveHeapMB)
	fmt.Fprintln(out, "  latencies at reference speed; the measured p50 is in brackets")
	ops := make([]string, 0, len(r.rec.samples))
	for op := range r.rec.samples {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		s := r.rec.samples[op]
		fmt.Fprintf(out, "  %-15s n=%-6d p50=%9.4f ms [%9.4f]  p90=%9.4f ms  p99=%9.4f ms\n",
			op, len(s), median(s), median(r.rec.raw[op]), quantile(s, 0.90), quantile(s, 0.99))
	}
	fmt.Fprintf(out, "  fail_ratio %.6f (%d of %d ops)\n", r.failRatio(), r.rec.failed, r.rec.attempted)
}

func (r *phaseResult) failRatio() float64 {
	if r.rec.attempted == 0 {
		return 0
	}
	return float64(r.rec.failed) / float64(r.rec.attempted)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints the result line: the last line of standard output.
func emit(attempted, failed int, metrics map[string]metric) error {
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0 && attempted > 0, attempted, failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// recorder collects per-op-type latency samples and op outcomes.
type recorder struct {
	// samples maps op types to latencies in ms at the reference host
	// speed, raw to the latencies as measured.
	samples map[string][]float64
	raw     map[string][]float64
	// speed scales the current lifecycle's timings (speedFactor);
	// refWall is the on-clock wall time at the reference speed.
	speed     float64
	refWall   time.Duration
	attempted int
	failed    int
	done      int
	// paused is wall time spent off the clock: input generation and
	// the client's output checks.
	paused time.Duration
}

func newRecorder() *recorder {
	return &recorder{samples: make(map[string][]float64), raw: make(map[string][]float64), speed: 1}
}

// do times one op. A failing op counts as failed and its error is
// returned with the op type attached.
func (r *recorder) do(op string, fn func() error) error {
	start := time.Now()
	err := fn()
	d := time.Since(start)
	r.attempted++
	if err != nil {
		r.failed++
		return fmt.Errorf("%s: %w", op, err)
	}
	r.done++
	r.add(op, d)
	return nil
}

func (r *recorder) add(op string, d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	r.samples[op] = append(r.samples[op], r.speed*ms)
	r.raw[op] = append(r.raw[op], ms)
}

// copyLast records op's latest sample under another op type too.
func (r *recorder) copyLast(op, as string) {
	s, raw := r.samples[op], r.raw[op]
	r.samples[as] = append(r.samples[as], s[len(s)-1])
	r.raw[as] = append(r.raw[as], raw[len(raw)-1])
}

// check runs an output check off the clock; a wrong answer turns the
// op it checks into a failed one.
func (r *recorder) check(op string, fn func() error) error {
	var err error
	r.offClock(func() { err = fn() })
	if err != nil {
		r.failed++
		r.done--
		return fmt.Errorf("%s: wrong output: %w", op, err)
	}
	return nil
}

func (r *recorder) offClock(fn func()) {
	start := time.Now()
	fn()
	r.paused += time.Since(start)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}
