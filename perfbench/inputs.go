package main

import (
	"math"
	"sort"
	"strings"

	"cool/internal/controlplane"
	"cool/internal/stats"
)

// Op types. Each end-to-end latency metric is the median of one op
// type (gatedOps); the others are printed with their percentiles.
const (
	opSubmit       = "submit"
	opWatch        = "watch"
	opPlan         = "plan"
	opReplan       = "replan"
	opDrift        = "drift"
	opQuery        = "query"
	opQueryUtility = "query_utility"
	opPush         = "push"
	opPushLag      = "push_lag"
	opSim          = "sim"
	opSession      = "session"
	opUnwatch      = "unwatch"
	opReset        = "reset"
)

// Charging ratios of the lifecycle script: deployments start at ρ = 3
// (the paper's sunny pattern) and drift to 2 and back.
const (
	baseRho  = 3
	driftRho = 2
)

// tenant is the coold tenant every serve lifecycle uses.
const tenant = "bench"

// workload is one fixed set of input shapes and the lifecycle script
// run over them.
type workload struct {
	name string
	// serve selects the coold path; otherwise the in-process coolsim
	// path runs.
	serve bool
	// n sensors and m targets with sensing radius radius, uniform on a
	// side × side field.
	n, m   int
	radius float64
	side   float64
	// utility and detectProb select the utility model.
	utility    string
	detectProb float64
	// kills is the number of kill (+ query) rounds per lifecycle; each
	// kills 1..maxKill sensors.
	kills, maxKill int
	// simSlots is the length of each simulation.
	simSlots int
	// heapAt is the lifecycle count at which live_heap_mb is sampled.
	heapAt int
	// replay is the number of timed lifecycles the traced run replays.
	replay int
}

// fieldSide sizes a square field so that n uniform sensors of the
// given radius give about degree sensors per target away from the
// edges.
func fieldSide(n int, radius, degree float64) float64 {
	return math.Sqrt(float64(n) * math.Pi * radius * radius / degree)
}

var workloads = map[string]*workload{
	// The paper's Fig. 9 regime: sparse random deployments at about 10
	// sensors per target, the degree of BENCH_replan.
	"serve-sparse": {
		name: "serve-sparse", serve: true,
		n: 2000, m: 200, radius: 22, side: fieldSide(2000, 22, 10),
		utility: controlplane.UtilityTargets,
		kills:   15, maxKill: 3,
		simSlots: 48,
		heapAt:   64, replay: 66,
	},
	// Dense deployments (Fig. 8's all-cover end): about 250 sensors
	// per target by CoverageDegreeStats' mean.
	"serve-dense": {
		name: "serve-dense", serve: true,
		n: 1500, m: 150, radius: 22, side: 85,
		utility: controlplane.UtilityTargets,
		kills:   5, maxKill: 3,
		simSlots: 48,
		heapAt:   16, replay: 10,
	},
	// The coolsim default path: detection utility FixedProb(0.4) at
	// about 30 sensors per target, simulated for 30 days × 48 slots.
	"plan-simulate": {
		name: "plan-simulate",
		n:    1000, m: 100, radius: 100, side: fieldSide(1000, 100, 30),
		utility: controlplane.UtilityDetection, detectProb: 0.4,
		kills: 3, maxKill: 3,
		simSlots: 30 * 48,
		heapAt:   64, replay: 30,
	},
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, " | ")
}

// lifecycle is the generated input of one deployment's script.
type lifecycle struct {
	index int
	// spec is the deployment (serve workloads; plan-simulate places
	// the same shape with cool.Deploy from deploySeed).
	spec       controlplane.DeploymentSpec
	deploySeed uint64
	// kills lists the sensors killed by each kill round; they are
	// distinct and all deployed back afterwards.
	kills [][]int
	// simSeed seeds the simulation.
	simSeed uint64
}

// killed returns every sensor the kill rounds remove.
func (lc *lifecycle) killed() []int {
	var all []int
	for _, k := range lc.kills {
		all = append(all, k...)
	}
	return all
}

// events is the number of plan/replan events of a lifecycle: one plan,
// the kills, one deploy and two drifts.
func (w *workload) events() int { return 1 + w.kills + 1 + 2 }

// lifecycle generates lifecycle i's inputs from the workload seed.
// Lifecycle 0 is the warm-up run during set-up; the timed phase runs
// 1, 2, .... The inputs depend only on (seed, i).
func (w *workload) lifecycle(seed uint64, i int) *lifecycle {
	rng := stats.NewStream(seed, uint64(i))
	lc := &lifecycle{index: i}
	if w.serve {
		spec := controlplane.DeploymentSpec{Rho: baseRho, Utility: w.utility, DetectProb: w.detectProb}
		spec.Sensors = make([]controlplane.SensorSpec, w.n)
		for k := range spec.Sensors {
			spec.Sensors[k] = controlplane.SensorSpec{X: rng.Float64() * w.side, Y: rng.Float64() * w.side, Range: w.radius}
		}
		spec.Targets = make([]controlplane.TargetSpec, w.m)
		for k := range spec.Targets {
			spec.Targets[k] = controlplane.TargetSpec{X: rng.Float64() * w.side, Y: rng.Float64() * w.side, Weight: 1}
		}
		lc.spec = spec
	} else {
		lc.deploySeed = rng.Uint64()
	}
	perm := rng.Perm(w.n)
	for k := 0; k < w.kills; k++ {
		size := 1 + rng.Intn(w.maxKill)
		lc.kills = append(lc.kills, append([]int(nil), perm[:size]...))
		perm = perm[size:]
	}
	lc.simSeed = rng.Uint64()
	return lc
}

// resultLog records the values a lifecycle's ops returned, in op order,
// so the traced replay can be held bit-identical to them.
type resultLog struct {
	fingerprint string
	// utilities are the plan/replan (serve) or plan, simulate and
	// repair (plan-simulate) utilities in op order.
	utilities []float64
}

// pushes is the number of schedule deliveries of a lifecycle: every
// plan/replan event on the serve path, the one hand-off in-process.
func (w *workload) pushes() int {
	if w.serve {
		return w.events()
	}
	return 1
}
