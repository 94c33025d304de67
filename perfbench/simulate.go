package main

import (
	"encoding/json"
	"fmt"
	"slices"

	"cool"
)

// simDriver runs the in-process coolsim path: no daemon, no wire.
type simDriver struct {
	w *workload
	// last keeps the latest lifecycle's planning and simulation state
	// live, as a coolsim process holds it, so live_heap_mb measures it.
	last []any
}

func (d *simDriver) wireBytes() int64 { return 0 }
func (d *simDriver) close() error     { return nil }

// deployConfig is the coolsim deployment of a plan-simulate lifecycle.
func (w *workload) deployConfig() cool.DeployConfig {
	return cool.DeployConfig{Field: cool.NewField(w.side), Sensors: w.n, Targets: w.m, Range: w.radius}
}

// lifecycle runs the coolsim script for one deployment, naming each
// step after the coold op it corresponds to: submit (cool.Deploy +
// detection utility + planner), plan (Planner.Plan greedy), push (the
// schedule's JSON hand-off from planner to simulator, as coolsched
// -save → coolsim -schedule), sim (cool.Simulate), then the coolsim
// perturbation script on an incremental session: kills × (kill, query
// the schedule's utility) → deploy back → drift ρ 3→2→3.
func (d *simDriver) lifecycle(lc *lifecycle, rec *recorder, log *resultLog) error {
	w := d.w
	var planner *cool.Planner
	if err := rec.do(opSubmit, func() error {
		net, err := cool.Deploy(w.deployConfig(), lc.deploySeed)
		if err != nil {
			return err
		}
		util, err := cool.NewDetectionUtility(net, cool.FixedProb(w.detectProb))
		if err != nil {
			return err
		}
		period, err := cool.PeriodFromRho(baseRho)
		if err != nil {
			return err
		}
		planner, err = cool.NewPlanner(util, period)
		return err
	}); err != nil {
		return err
	}

	var sched *cool.Schedule
	if err := rec.do(opPlan, func() error {
		res, err := planner.Plan(cool.PlanRequest{Algorithm: cool.AlgorithmGreedy})
		if err != nil {
			return err
		}
		sched = res.Schedule
		return nil
	}); err != nil {
		return err
	}

	var handed *cool.Schedule
	if err := rec.do(opPush, func() error {
		var err error
		handed, err = handOff(sched)
		return err
	}); err != nil {
		return err
	}
	// In-process, the hand-off is the whole delivery: it is the lag.
	rec.copyLast(opPush, opPushLag)
	if err := rec.check(opPush, func() error {
		if !slices.Equal(handed.Assignment(), sched.Assignment()) || handed.Mode() != sched.Mode() {
			return fmt.Errorf("handed-off schedule differs from the planned one")
		}
		return nil
	}); err != nil {
		return err
	}
	simRes, err := simulate(rec, planner, handed, w, lc, log)
	if err != nil {
		return err
	}

	var inc *cool.Incremental
	if err := rec.do(opSession, func() (err error) {
		inc, err = planner.Incremental()
		return err
	}); err != nil {
		return err
	}
	if err := rec.check(opSession, func() error {
		s, err := inc.Schedule()
		if err != nil {
			return err
		}
		if !slices.Equal(s.Assignment(), sched.Assignment()) {
			return fmt.Errorf("incremental session does not start from the greedy schedule")
		}
		return nil
	}); err != nil {
		return err
	}

	repair := func(op string, fn func() (cool.RepairStats, error)) (cool.RepairStats, error) {
		var st cool.RepairStats
		err := rec.do(op, func() (err error) {
			st, err = fn()
			return err
		})
		if err == nil && log != nil {
			log.utilities = append(log.utilities, st.Utility)
		}
		return st, err
	}
	for _, ids := range lc.kills {
		st, err := repair(opReplan, func() (cool.RepairStats, error) { return inc.KillSensors(ids) })
		if err != nil {
			return err
		}
		var u float64
		if err := rec.do(opQuery, func() error {
			s, err := inc.Schedule()
			if err != nil {
				return err
			}
			u = planner.PeriodUtility(s)
			return nil
		}); err != nil {
			return err
		}
		if err := rec.check(opQuery, func() error { return sameUtility(u, st.Utility) }); err != nil {
			return err
		}
	}
	if _, err := repair(opReplan, func() (cool.RepairStats, error) { return inc.DeploySensors(lc.killed()) }); err != nil {
		return err
	}
	for _, rho := range []float64{driftRho, baseRho} {
		if _, err := repair(opDrift, func() (cool.RepairStats, error) { return inc.UpdateRho(rho) }); err != nil {
			return err
		}
	}
	d.last = []any{planner, sched, simRes, inc}
	return nil
}

// handOff is the planner-to-simulator delivery of a schedule: its JSON
// encoding, decoded again.
func handOff(s *cool.Schedule) (*cool.Schedule, error) {
	data, err := json.Marshal(s)
	if err != nil {
		return nil, err
	}
	var out cool.Schedule
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
