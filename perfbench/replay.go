package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"cool"
	"cool/internal/controlplane"
)

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// serveReplay replays the coold path without a server: every request,
// response and push is encoded and decoded exactly as on the wire, and
// every handler step calls the public function the server calls, in
// its order. BuildPlanner is split into its three public calls so the
// grid (cool.NewNetwork) and the oracle (the utility constructor) are
// timed apart; the bit-identity check against the measured run proves
// the split builds the same planner.
type serveReplay struct {
	w     *workload
	res   *replayResult
	dir   string
	store *controlplane.Store
	snaps []controlplane.SubmitRecord
	seq   uint64
}

// replayDep is the replay's live state of one deployment, mirroring
// the server's deployment handle.
type replayDep struct {
	fp      string
	planner *cool.Planner
	inc     *cool.Incremental
	events  uint64
}

func newServeReplay(w *workload, scratch string, res *replayResult) (*serveReplay, error) {
	dir, err := os.MkdirTemp(scratch, "replay-wal-")
	if err != nil {
		return nil, err
	}
	st, _, err := controlplane.OpenStore(dir, controlplane.StoreOptions{})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &serveReplay{w: w, res: res, dir: dir, store: st}, nil
}

func (r *serveReplay) close() error {
	if r.store == nil {
		return nil
	}
	err := r.store.Close()
	r.store = nil
	if rerr := os.RemoveAll(r.dir); err == nil {
		err = rerr
	}
	return err
}

func (r *serveReplay) tr() *tracer { return r.res.tr }

// frame encodes one frame as a peer writes it (json.Marshal +
// AppendFrame) and counts its bytes.
func (r *serveReplay) frame(t controlplane.FrameType, v any) ([]byte, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	f := controlplane.AppendFrame(nil, controlplane.Frame{Version: controlplane.Version1, Type: t, Payload: payload})
	r.res.counts.wireBytes += int64(len(f))
	return f, nil
}

// op replays one request/response exchange: client encode, server
// decode, the handler, server encode, client decode.
func (r *serveReplay) op(op string, req *controlplane.Request, handle func(*controlplane.Request) (*controlplane.Response, error)) (*controlplane.Response, error) {
	tr := r.tr()
	root := tr.beginOp(op)
	defer tr.end(root)
	var wire []byte
	if err := tr.span("wire.encode", func() (err error) {
		wire, err = r.frame(controlplane.FrameRequest, req)
		return err
	}); err != nil {
		return nil, err
	}
	var got *controlplane.Request
	if err := tr.span("wire.decode", func() error {
		f, err := controlplane.ReadFrame(bytes.NewReader(wire))
		if err != nil {
			return err
		}
		got, err = controlplane.DecodeRequest(f.Payload)
		return err
	}); err != nil {
		return nil, err
	}
	resp, err := handle(got)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", op, err)
	}
	if err := tr.span("wire.encode", func() (err error) {
		wire, err = r.frame(controlplane.FrameResponse, resp)
		return err
	}); err != nil {
		return nil, err
	}
	var answer *controlplane.Response
	err = tr.span("wire.decode", func() error {
		f, err := controlplane.ReadFrame(bytes.NewReader(wire))
		if err != nil {
			return err
		}
		answer, err = controlplane.DecodeResponse(f.Payload)
		return err
	})
	return answer, err
}

// push replays the server's push of one plan/replan event, on the
// acting request's path (the schedule and the frame encoding), then
// the watcher's decode, which runs concurrently with the request and
// is therefore traced under its own root span.
func (r *serveReplay) push(d *replayDep, ev *controlplane.WatchEvent, schedule func() error) error {
	tr := r.tr()
	var wire []byte
	if err := tr.span("watch.push", func() (err error) {
		if schedule != nil {
			if err := schedule(); err != nil {
				return err
			}
		}
		d.events++
		ev.Seq = d.events
		wire, err = r.frame(controlplane.FramePush, ev)
		return err
	}); err != nil {
		return err
	}
	op := tr.op
	defer func() { tr.op = op }()
	root := tr.beginRoot("watcher")
	defer tr.end(root)
	return tr.span("watch.receive", func() error {
		f, err := controlplane.ReadFrame(bytes.NewReader(wire))
		if err != nil {
			return err
		}
		got, err := controlplane.DecodeWatchEvent(f.Payload)
		if err != nil {
			return err
		}
		if got.Seq != d.events {
			return fmt.Errorf("push seq %d, want %d", got.Seq, d.events)
		}
		r.res.counts.pushes++
		return nil
	})
}

func (r *serveReplay) walSize(name string) int64 {
	fi, err := os.Stat(filepath.Join(r.dir, name))
	if err != nil {
		return 0
	}
	return fi.Size()
}

// submit replays handleSubmit: Admit (Normalize, Fingerprint, the
// BuildPlanner calls), the durable WAL append and, on the store's
// cadence, the checkpoint.
func (r *serveReplay) submit(sub *controlplane.SubmitRequest, d *replayDep) (*controlplane.Response, error) {
	tr := r.tr()
	var spec controlplane.DeploymentSpec
	if err := tr.span("admission.normalize", func() (err error) {
		spec, err = controlplane.Normalize(sub.Spec)
		return err
	}); err != nil {
		return nil, err
	}
	if err := tr.span("admission.fingerprint", func() (err error) {
		d.fp, err = controlplane.Fingerprint(spec)
		return err
	}); err != nil {
		return nil, err
	}
	var net *cool.Network
	if err := tr.span("wsn.network", func() (err error) {
		sensors := make([]cool.Sensor, len(spec.Sensors))
		for i, s := range spec.Sensors {
			sensors[i] = cool.Sensor{ID: i, Pos: cool.Point{X: s.X, Y: s.Y}, Range: s.Range}
		}
		targets := make([]cool.Target, len(spec.Targets))
		for j, t := range spec.Targets {
			targets[j] = cool.Target{ID: j, Pos: cool.Point{X: t.X, Y: t.Y}, Weight: t.Weight}
		}
		net, err = cool.NewNetwork(sensors, targets)
		return err
	}); err != nil {
		return nil, err
	}
	r.res.counts.incidence += incidence(net)
	var util cool.Utility
	if err := tr.span("submodular.oracle", func() (err error) {
		if spec.Utility == controlplane.UtilityDetection {
			util, err = cool.NewDetectionUtility(net, cool.FixedProb(spec.DetectProb))
		} else {
			util, err = cool.NewTargetCountUtility(net)
		}
		return err
	}); err != nil {
		return nil, err
	}
	period, err := cool.PeriodFromRho(spec.Rho)
	if err != nil {
		return nil, err
	}
	if d.planner, err = cool.NewPlanner(util, period); err != nil {
		return nil, err
	}

	r.seq++
	rec := controlplane.SubmitRecord{Tenant: tenant, Name: sub.Name, Parent: sub.Parent, Fingerprint: d.fp, Seq: r.seq, Spec: spec}
	r.snaps = append(r.snaps, rec)
	before := r.walSize("wal.log")
	if err := tr.span("wal.append", func() error { return r.store.AppendSubmit(rec) }); err != nil {
		return nil, err
	}
	r.res.counts.walAppends++
	r.res.counts.walBytes += r.walSize("wal.log") - before
	if r.store.ShouldCheckpoint() {
		if err := tr.span("wal.checkpoint", func() error {
			return r.store.WriteCheckpoint(&controlplane.Checkpoint{
				Seq: r.seq,
				Limits: controlplane.Limits{
					MaxSensors:     controlplane.DefaultMaxSensors,
					MaxTargets:     controlplane.DefaultMaxTargets,
					MaxDeployments: controlplane.DefaultMaxDeployments,
				},
				Snapshots: append([]controlplane.SubmitRecord(nil), r.snaps...),
			})
		}); err != nil {
			return nil, err
		}
		r.res.counts.walCheckpoints++
		r.res.counts.walBytes += r.walSize("checkpoint.json")
	}
	return &controlplane.Response{Op: controlplane.OpSubmit, Submit: &controlplane.SubmitResponse{
		Fingerprint: d.fp, Seq: r.seq, Sensors: len(spec.Sensors), Targets: len(spec.Targets),
	}}, nil
}

// incidence is Σ_j |Coverers(j)|, the coverage relation's size.
func incidence(net *cool.Network) int64 {
	var n int64
	for j := 0; j < net.NumTargets(); j++ {
		n += int64(len(net.Coverers(j)))
	}
	return n
}

func (r *serveReplay) countRepair(st cool.RepairStats) {
	r.res.counts.repairDirty += int64(st.Dirty)
	r.res.counts.repairMoves += int64(st.Moves)
	r.res.counts.repairRounds += int64(st.Rounds)
}

// replan replays handleReplan with a subscribed watcher: the repair,
// then the push, which always carries the repaired schedule.
func (r *serveReplay) replan(d *replayDep, layer string, req *controlplane.ReplanRequest, log *resultLog) error {
	resp, err := r.op(opFor(req.Op), &controlplane.Request{Op: controlplane.OpReplan, Tenant: tenant, Replan: req},
		func(got *controlplane.Request) (*controlplane.Response, error) {
			rq := got.Replan
			var st cool.RepairStats
			if err := r.tr().span(layer, func() (err error) {
				switch rq.Op {
				case controlplane.ReplanKill:
					st, err = d.inc.KillSensors(rq.IDs)
				case controlplane.ReplanDeploy:
					st, err = d.inc.DeploySensors(rq.IDs)
				default:
					st, err = d.inc.UpdateRho(rq.Rho)
				}
				return err
			}); err != nil {
				return nil, err
			}
			r.countRepair(st)
			resp := &controlplane.ReplanResponse{
				Changed: st.Changed, Dirty: st.Dirty, Rounds: st.Rounds, Moves: st.Moves, Full: st.Full,
				UtilityBefore: st.UtilityBefore, Utility: st.Utility,
			}
			push := *resp
			if err := r.push(d, &controlplane.WatchEvent{Fingerprint: d.fp, Kind: controlplane.WatchEventReplan, Replan: &push},
				func() (err error) {
					push.Schedule, err = d.inc.Schedule()
					return err
				}); err != nil {
				return nil, err
			}
			return &controlplane.Response{Op: controlplane.OpReplan, Replan: resp}, nil
		})
	if err != nil {
		return err
	}
	log.utilities = append(log.utilities, resp.Replan.Utility)
	return nil
}

func opFor(replanOp string) string {
	if replanOp == controlplane.ReplanDrift {
		return opDrift
	}
	return opReplan
}

// lifecycle replays the serve script of serveEnv.lifecycle.
func (r *serveReplay) lifecycle(lc *lifecycle, log *resultLog) error {
	d := &replayDep{}
	tr := r.tr()
	if _, err := r.op(opSubmit, &controlplane.Request{Op: controlplane.OpSubmit, Tenant: tenant,
		Submit: &controlplane.SubmitRequest{Name: fmt.Sprintf("lifecycle-%d", lc.index), Spec: lc.spec}},
		func(got *controlplane.Request) (*controlplane.Response, error) { return r.submit(got.Submit, d) }); err != nil {
		return err
	}
	log.fingerprint = d.fp
	watchResp := func(subscribed bool) func(*controlplane.Request) (*controlplane.Response, error) {
		return func(*controlplane.Request) (*controlplane.Response, error) {
			ws := &controlplane.WatchResponse{Subscribed: subscribed, Events: d.events}
			if subscribed {
				ws.Watchers = 1
			}
			return &controlplane.Response{Op: controlplane.OpWatch, Watch: ws}, nil
		}
	}
	if _, err := r.op(opWatch, &controlplane.Request{Op: controlplane.OpWatch, Tenant: tenant,
		Watch: &controlplane.WatchRequest{Fingerprint: d.fp, Op: controlplane.WatchSubscribe}}, watchResp(true)); err != nil {
		return err
	}

	resp, err := r.op(opPlan, &controlplane.Request{Op: controlplane.OpPlan, Tenant: tenant,
		Plan: &controlplane.PlanRequest{Fingerprint: d.fp}},
		func(*controlplane.Request) (*controlplane.Response, error) {
			var (
				sched *cool.Schedule
				u     float64
			)
			if err := tr.span("core.plan", func() (err error) {
				if d.inc, err = d.planner.Incremental(); err != nil {
					return err
				}
				if sched, err = d.inc.Schedule(); err != nil {
					return err
				}
				u = d.inc.Utility()
				return nil
			}); err != nil {
				return nil, err
			}
			pr := &controlplane.PlanResponse{Engine: controlplane.EngineIncremental, Schedule: sched, Utility: u,
				Mode: sched.Mode().String(), Slots: sched.Period()}
			if err := r.push(d, &controlplane.WatchEvent{Fingerprint: d.fp, Kind: controlplane.WatchEventPlan, Plan: pr}, nil); err != nil {
				return nil, err
			}
			return &controlplane.Response{Op: controlplane.OpPlan, Plan: pr}, nil
		})
	if err != nil {
		return err
	}
	log.utilities = append(log.utilities, resp.Plan.Utility)
	// The client's check of the served plan, as in the measured run.
	check := tr.beginRoot("check")
	err = tr.span("submodular.eval", func() error {
		return sameUtility(d.planner.PeriodUtility(resp.Plan.Schedule), resp.Plan.Utility)
	})
	tr.end(check)
	if err != nil {
		return err
	}

	for _, ids := range lc.kills {
		if err := r.replan(d, "core.repair", &controlplane.ReplanRequest{Fingerprint: d.fp, Op: controlplane.ReplanKill, IDs: ids}, log); err != nil {
			return err
		}
		if _, err := r.op(opQueryUtility, &controlplane.Request{Op: controlplane.OpQuery, Tenant: tenant,
			Query: &controlplane.QueryRequest{Fingerprint: d.fp, What: controlplane.QueryUtility}},
			func(*controlplane.Request) (*controlplane.Response, error) {
				u := d.inc.Utility()
				return &controlplane.Response{Op: controlplane.OpQuery, Query: &controlplane.QueryResponse{Utility: &u}}, nil
			}); err != nil {
			return err
		}
	}
	if err := r.replan(d, "core.repair", &controlplane.ReplanRequest{Fingerprint: d.fp, Op: controlplane.ReplanDeploy, IDs: lc.killed()}, log); err != nil {
		return err
	}
	for _, rho := range []float64{driftRho, baseRho} {
		if err := r.replan(d, "core.drift", &controlplane.ReplanRequest{Fingerprint: d.fp, Op: controlplane.ReplanDrift, Rho: rho}, log); err != nil {
			return err
		}
	}
	resp, err = r.op(opQuery, &controlplane.Request{Op: controlplane.OpQuery, Tenant: tenant,
		Query: &controlplane.QueryRequest{Fingerprint: d.fp, What: controlplane.QuerySchedule}},
		func(*controlplane.Request) (*controlplane.Response, error) {
			sched, err := d.inc.Schedule()
			if err != nil {
				return nil, err
			}
			return &controlplane.Response{Op: controlplane.OpQuery, Query: &controlplane.QueryResponse{Schedule: sched}}, nil
		})
	if err != nil {
		return err
	}
	if err := replaySim(r.res, r.w, d.planner, resp.Query.Schedule, lc, log); err != nil {
		return err
	}
	if _, err := r.op(opUnwatch, &controlplane.Request{Op: controlplane.OpWatch, Tenant: tenant,
		Watch: &controlplane.WatchRequest{Fingerprint: d.fp, Op: controlplane.WatchUnsubscribe}}, watchResp(false)); err != nil {
		return err
	}
	_, err = r.op(opReset, &controlplane.Request{Op: controlplane.OpControl, Tenant: tenant,
		Control: &controlplane.ControlRequest{Op: controlplane.ControlReset, Fingerprint: d.fp}},
		func(*controlplane.Request) (*controlplane.Response, error) {
			d.inc = nil
			return &controlplane.Response{Op: controlplane.OpControl, Control: &controlplane.ControlResponse{}}, nil
		})
	return err
}

// replaySim replays one sim op and counts its slots, activations and
// denied activations.
func replaySim(res *replayResult, w *workload, planner *cool.Planner, sched *cool.Schedule, lc *lifecycle, log *resultLog) error {
	tr := res.tr
	root := tr.beginOp(opSim)
	defer tr.end(root)
	var out *cool.SimResult
	if err := tr.span("sim.run", func() (err error) {
		out, err = cool.Simulate(planner, sched, w.simSlots, w.m, lc.simSeed)
		return err
	}); err != nil {
		return err
	}
	res.counts.simSlots += int64(len(out.PerSlot))
	for _, s := range out.PerSlot {
		res.counts.simActivations += int64(s.Active)
	}
	res.counts.simDenied += int64(out.ActivationsDenied)
	log.utilities = append(log.utilities, out.TotalUtility)
	return nil
}

// simReplay replays the plan-simulate script of simDriver.lifecycle.
type simReplay struct {
	w   *workload
	res *replayResult
}

func (r *simReplay) close() error { return nil }

// op runs one traced op of the in-process path.
func (r *simReplay) op(op string, fn func() error) error {
	tr := r.res.tr
	root := tr.beginOp(op)
	defer tr.end(root)
	return fn()
}

func (r *simReplay) lifecycle(lc *lifecycle, log *resultLog) error {
	w, res := r.w, r.res
	tr := res.tr
	var planner *cool.Planner
	if err := r.op(opSubmit, func() error {
		var net *cool.Network
		if err := tr.span("wsn.network", func() (err error) {
			net, err = cool.Deploy(w.deployConfig(), lc.deploySeed)
			return err
		}); err != nil {
			return err
		}
		res.counts.incidence += incidence(net)
		var util cool.Utility
		if err := tr.span("submodular.oracle", func() (err error) {
			util, err = cool.NewDetectionUtility(net, cool.FixedProb(w.detectProb))
			return err
		}); err != nil {
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
	if err := r.op(opPlan, func() error {
		return tr.span("core.plan", func() error {
			out, err := planner.Plan(cool.PlanRequest{Algorithm: cool.AlgorithmGreedy})
			if err != nil {
				return err
			}
			sched = out.Schedule
			return nil
		})
	}); err != nil {
		return err
	}
	var handed *cool.Schedule
	if err := r.op(opPush, func() error {
		return tr.span("watch.push", func() (err error) {
			handed, err = handOff(sched)
			res.counts.pushes++
			return err
		})
	}); err != nil {
		return err
	}
	if err := replaySim(res, w, planner, handed, lc, log); err != nil {
		return err
	}
	var inc *cool.Incremental
	if err := r.op(opSession, func() error {
		return tr.span("core.plan", func() (err error) {
			inc, err = planner.Incremental()
			return err
		})
	}); err != nil {
		return err
	}
	repair := func(op, layer string, fn func() (cool.RepairStats, error)) error {
		return r.op(op, func() error {
			var st cool.RepairStats
			if err := tr.span(layer, func() (err error) {
				st, err = fn()
				return err
			}); err != nil {
				return err
			}
			res.counts.repairDirty += int64(st.Dirty)
			res.counts.repairMoves += int64(st.Moves)
			res.counts.repairRounds += int64(st.Rounds)
			log.utilities = append(log.utilities, st.Utility)
			return nil
		})
	}
	for _, ids := range lc.kills {
		if err := repair(opReplan, "core.repair", func() (cool.RepairStats, error) { return inc.KillSensors(ids) }); err != nil {
			return err
		}
		if err := r.op(opQuery, func() error {
			s, err := inc.Schedule()
			if err != nil {
				return err
			}
			return tr.span("submodular.eval", func() error {
				planner.PeriodUtility(s)
				return nil
			})
		}); err != nil {
			return err
		}
	}
	if err := repair(opReplan, "core.repair", func() (cool.RepairStats, error) { return inc.DeploySensors(lc.killed()) }); err != nil {
		return err
	}
	for _, rho := range []float64{driftRho, baseRho} {
		if err := repair(opDrift, "core.drift", func() (cool.RepairStats, error) { return inc.UpdateRho(rho) }); err != nil {
			return err
		}
	}
	return nil
}
