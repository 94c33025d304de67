package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"sync/atomic"
	"time"

	"cool"
	"cool/internal/controlplane"
)

// pushTimeout bounds the wait for one push frame; a push that never
// arrives is a failed op, not a hung run.
const pushTimeout = 30 * time.Second

// serveWindow is how many deployments one daemon instance admits
// before the benchmark replaces it, off the clock, with a fresh one on a
// fresh data directory. Every periodic checkpoint rewrites the whole
// registry, so without a window a run's checkpoint time and memory would
// grow with the square of the lifecycles it completes, and so with the
// host's speed; with it every instance pays the same two checkpoints,
// after 64 and 128 admissions.
const serveWindow = 128

// serveEnv is one running coold: a server with a fresh WAL data
// directory on a loopback listener, a request client and a watcher
// client, both on byte-counting connections.
type serveEnv struct {
	w       *workload
	scratch string
	dir     string
	srv     *controlplane.Server
	done    chan error
	req     *controlplane.Client
	watch   *controlplane.Client
	bytes   atomic.Int64
	// admitted counts the lifecycles run on the current instance.
	admitted int
}

// countingConn counts the bytes read and written on a connection.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	k, err := c.Conn.Read(p)
	c.n.Add(int64(k))
	return k, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	k, err := c.Conn.Write(p)
	c.n.Add(int64(k))
	return k, err
}

func startServe(w *workload, scratch string) (*serveEnv, error) {
	e := &serveEnv{w: w, scratch: scratch}
	if err := e.start(); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// start brings a daemon up on a fresh data directory and dials it.
func (e *serveEnv) start() error {
	dir, err := os.MkdirTemp(e.scratch, "wal-")
	if err != nil {
		return err
	}
	e.dir = dir
	st, recovered, err := controlplane.OpenStore(dir, controlplane.StoreOptions{})
	if err != nil {
		return err
	}
	srv := controlplane.NewServer(controlplane.Config{Name: "perfbench-coold"})
	if _, err := srv.UseStore(st, recovered); err != nil {
		st.Close()
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return err
	}
	e.srv, e.done = srv, make(chan error, 1)
	go func() { e.done <- srv.Serve(ln) }()
	if e.req, err = e.dial(ln.Addr().String()); err != nil {
		return err
	}
	e.watch, err = e.dial(ln.Addr().String())
	return err
}

func (e *serveEnv) dial(addr string) (*controlplane.Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c, err := controlplane.NewClient(&countingConn{Conn: conn, n: &e.bytes}, "perfbench")
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

func (e *serveEnv) wireBytes() int64 { return e.bytes.Load() }

// close stops the clients and the server (which writes its final
// checkpoint), waits for Serve to return and removes the data
// directory.
func (e *serveEnv) close() error {
	if e.req != nil {
		e.req.Close()
	}
	if e.watch != nil {
		e.watch.Close()
	}
	var err error
	if e.srv != nil {
		err = e.srv.Close()
		if serr := <-e.done; err == nil {
			err = serr
		}
	}
	if e.dir != "" {
		if rerr := os.RemoveAll(e.dir); err == nil {
			err = rerr
		}
	}
	e.req, e.watch, e.srv, e.done, e.dir, e.admitted = nil, nil, nil, nil, "", 0
	return err
}

// pushed is one push frame as the watcher goroutine received it.
type pushed struct {
	ev  *controlplane.WatchEvent
	at  time.Time
	err error
}

// lifecycle runs the serve script for one deployment: submit → watch
// subscribe (second connection) → plan → kills × (kill, query utility)
// → deploy the killed sensors back → drift ρ 3→2→3 → query schedule →
// simulate the served schedule → unsubscribe → control reset.
func (e *serveEnv) lifecycle(lc *lifecycle, rec *recorder, log *resultLog) error {
	w := e.w
	var (
		fp      string
		planner *cool.Planner
		err     error
	)
	if e.admitted == serveWindow {
		rec.offClock(func() {
			if err = e.close(); err == nil {
				err = e.start()
			}
		})
		if err != nil {
			return fmt.Errorf("replacing the daemon: %w", err)
		}
	}
	e.admitted++
	// The client's reference: the normalized spec's fingerprint and
	// the planner the server must be serving.
	rec.offClock(func() {
		var norm controlplane.DeploymentSpec
		if norm, err = controlplane.Normalize(lc.spec); err != nil {
			return
		}
		if fp, err = controlplane.Fingerprint(norm); err != nil {
			return
		}
		planner, err = controlplane.BuildPlanner(norm)
	})
	if err != nil {
		return fmt.Errorf("client reference: %w", err)
	}
	if log != nil {
		log.fingerprint = fp
	}

	var sub *controlplane.SubmitResponse
	if err := rec.do(opSubmit, func() (err error) {
		sub, err = e.req.Submit(tenant, controlplane.SubmitRequest{Name: fmt.Sprintf("lifecycle-%d", lc.index), Spec: lc.spec})
		return err
	}); err != nil {
		return err
	}
	if err := rec.check(opSubmit, func() error {
		if sub.Fingerprint != fp || sub.Resubmitted {
			return fmt.Errorf("fingerprint %s (resubmitted %v), want fresh %s", sub.Fingerprint, sub.Resubmitted, fp)
		}
		return nil
	}); err != nil {
		return err
	}

	var watcher *controlplane.Watcher
	if err := rec.do(opWatch, func() (err error) {
		watcher, err = e.watch.Watch(tenant, fp)
		return err
	}); err != nil {
		return err
	}
	// The watcher goroutine reads exactly the lifecycle's pushes; the
	// buffer holds all of them, so it never blocks on a send and has
	// exited once the last one is received. A failed lifecycle ends the
	// phase, and closing the watcher connection then unblocks it.
	pushes := make(chan pushed, w.events())
	go func() {
		for i := 0; i < w.events(); i++ {
			ev, err := watcher.Next()
			pushes <- pushed{ev, time.Now(), err}
			if err != nil {
				return
			}
		}
	}()
	seq := watcher.Events
	// awaitPush takes the push of the plan/replan sent at sent, records
	// its lag under lagOp (one op type per triggering op, never pooled)
	// and checks it: gap-free Seq, matching kind, and the utility the
	// acting client was answered with, bit for bit.
	awaitPush := func(lagOp string, sent time.Time, kind string, utility float64) error {
		var p pushed
		select {
		case p = <-pushes:
		case <-time.After(pushTimeout):
			rec.attempted++
			rec.failed++
			return errors.New("push: no frame within timeout")
		}
		rec.attempted++
		if p.err != nil {
			rec.failed++
			return fmt.Errorf("push: %w", p.err)
		}
		rec.done++
		rec.add(lagOp, p.at.Sub(sent))
		seq++
		return rec.check(opPushLag, func() error {
			got := math.NaN()
			switch {
			case p.ev.Kind == controlplane.WatchEventPlan && p.ev.Plan != nil:
				got = p.ev.Plan.Utility
			case p.ev.Kind == controlplane.WatchEventReplan && p.ev.Replan != nil:
				got = p.ev.Replan.Utility
			}
			if p.ev.Seq != seq || p.ev.Kind != kind || !sameBits(got, utility) {
				return fmt.Errorf("push seq %d kind %s utility %v, want seq %d kind %s utility %v",
					p.ev.Seq, p.ev.Kind, got, seq, kind, utility)
			}
			return nil
		})
	}

	var plan *controlplane.PlanResponse
	sent := time.Now()
	if err := rec.do(opPlan, func() (err error) {
		plan, err = e.req.Plan(tenant, controlplane.PlanRequest{Fingerprint: fp})
		return err
	}); err != nil {
		return err
	}
	if err := rec.check(opPlan, func() error {
		if plan.Schedule == nil {
			return errors.New("plan without schedule")
		}
		return sameUtility(planner.PeriodUtility(plan.Schedule), plan.Utility)
	}); err != nil {
		return err
	}
	if log != nil {
		log.utilities = append(log.utilities, plan.Utility)
	}
	if err := awaitPush(opPushLag+"_"+opPlan, sent, controlplane.WatchEventPlan, plan.Utility); err != nil {
		return err
	}

	replan := func(op string, req controlplane.ReplanRequest) (*controlplane.ReplanResponse, error) {
		req.Fingerprint = fp
		var resp *controlplane.ReplanResponse
		sent := time.Now()
		if err := rec.do(op, func() (err error) {
			resp, err = e.req.Replan(tenant, req)
			return err
		}); err != nil {
			return nil, err
		}
		if log != nil {
			log.utilities = append(log.utilities, resp.Utility)
		}
		lagOp := opPushLag
		if op != opReplan {
			lagOp += "_" + op
		}
		return resp, awaitPush(lagOp, sent, controlplane.WatchEventReplan, resp.Utility)
	}
	for _, ids := range lc.kills {
		resp, err := replan(opReplan, controlplane.ReplanRequest{Op: controlplane.ReplanKill, IDs: ids})
		if err != nil {
			return err
		}
		var q *controlplane.QueryResponse
		if err := rec.do(opQueryUtility, func() (err error) {
			q, err = e.req.Query(tenant, controlplane.QueryRequest{Fingerprint: fp, What: controlplane.QueryUtility})
			return err
		}); err != nil {
			return err
		}
		if err := rec.check(opQueryUtility, func() error {
			if resp.Changed != len(ids) {
				return fmt.Errorf("kill of %d sensors changed %d", len(ids), resp.Changed)
			}
			if q.Utility == nil || !sameBits(*q.Utility, resp.Utility) {
				return fmt.Errorf("query utility %v after kill answered %v", q.Utility, resp.Utility)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	if _, err := replan(opReplan, controlplane.ReplanRequest{Op: controlplane.ReplanDeploy, IDs: lc.killed()}); err != nil {
		return err
	}
	for _, rho := range []float64{driftRho, baseRho} {
		if _, err := replan(opDrift, controlplane.ReplanRequest{Op: controlplane.ReplanDrift, Rho: rho}); err != nil {
			return err
		}
	}

	var q *controlplane.QueryResponse
	if err := rec.do(opQuery, func() (err error) {
		q, err = e.req.Query(tenant, controlplane.QueryRequest{Fingerprint: fp, What: controlplane.QuerySchedule})
		return err
	}); err != nil {
		return err
	}
	if err := rec.check(opQuery, func() error {
		if q.Schedule == nil {
			return errors.New("query without schedule")
		}
		return nil
	}); err != nil {
		return err
	}
	// The operator's field check: the served schedule executed under
	// deterministic charging at the deployment's ρ.
	if _, err := simulate(rec, planner, q.Schedule, w, lc, log); err != nil {
		return err
	}

	if err := rec.do(opUnwatch, watcher.Close); err != nil {
		return err
	}
	return rec.do(opReset, func() error {
		_, err := e.req.Control(tenant, controlplane.ControlRequest{Op: controlplane.ControlReset, Fingerprint: fp})
		return err
	})
}

// simulate runs the sim op and checks it: no activation is denied (the
// schedule is energy-feasible) and the simulated total equals the
// schedule's period utility times the number of periods simulated.
func simulate(rec *recorder, planner *cool.Planner, sched *cool.Schedule, w *workload, lc *lifecycle, log *resultLog) (*cool.SimResult, error) {
	var res *cool.SimResult
	if err := rec.do(opSim, func() (err error) {
		res, err = cool.Simulate(planner, sched, w.simSlots, w.m, lc.simSeed)
		return err
	}); err != nil {
		return nil, err
	}
	if log != nil {
		log.utilities = append(log.utilities, res.TotalUtility)
	}
	return res, rec.check(opSim, func() error {
		if res.ActivationsDenied != 0 {
			return fmt.Errorf("%d activations denied", res.ActivationsDenied)
		}
		want := planner.PeriodUtility(sched) * float64(w.simSlots) / float64(sched.Period())
		return sameUtility(res.TotalUtility, want)
	})
}

// sameUtility accepts two utilities of one schedule summed in
// different orders.
func sameUtility(got, want float64) error {
	if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
		return fmt.Errorf("utility %v, want %v", got, want)
	}
	return nil
}
