package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/span"
	"repro/internal/simclock"
)

const quantum = 360 // seconds per scheduling round (the engine default)

// passOpts selects how one pass drives the program.
type passOpts struct {
	wrap    bool // hand the program the probe and transport taps; false = bare run
	traced  bool
	observe bool // attach Observer, span tracer and flight recorder
	engine  core.EngineMode
	rounds  int
	outDir  string

	setupOnly bool // stop after set-up (extra set-up timing samples)
}

// setupTimes splits a pass's set-up by layer.
type setupTimes struct {
	generate time.Duration // workload.Generate
	cluster  time.Duration // gpu.New
	build    time.Duration // core.New, or distrib.NewCentral
	register time.Duration // agents started + WaitForAgents
	cpu      time.Duration // process CPU time of the whole set-up
}

// pass is one simulated horizon of one workload.
type pass struct {
	setup  setupTimes
	digest string
	rounds int

	roundMS  []float64 // wall
	roundCPU []float64 // process CPU
	runSec   float64   // wall seconds inside Sim.Run / Central.Steps
	runCPU   float64   // process CPU seconds over the same interval
	simHours float64
	allocs   uint64 // heap objects allocated during the run

	shareErr, util, useful, jctH, rho float64
	finished                          int

	attempted, failed int
	err               error

	probe *probe
	tap   *commTap
	tr    *tracer
	keep  any // the engine or central, reachable until live heap is read
}

// runAllocs counts heap objects around whole runs; only the main
// goroutine reads it.
var runAllocs = newAllocCounter()

func heapObjectsNow() uint64 { return runAllocs.read() }

// runPass dispatches on the workload's runtime.
func (w *spec) runPass(seed int64, o passOpts) *pass {
	if o.rounds == 0 {
		o.rounds = w.rounds
	}
	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	var p *pass
	if w.distrib {
		p = w.distribPass(seed, o, tr)
	} else {
		p = w.enginePass(seed, o, tr)
	}
	p.tr = tr
	if p.probe != nil && p.err == nil && !o.setupOnly {
		p.roundMS = p.probe.roundMS()
		p.roundCPU = p.probe.roundCPUMS()
	}
	return p
}

func (w *spec) enginePass(seed int64, o passOpts, tr *tracer) *pass {
	p := &pass{}
	var clock cpuClock
	c0 := clock.now()
	t0 := wallNow()
	specs, err := w.generate(seed)
	if err != nil {
		return failed(p, err)
	}
	t1 := wallNow()
	cl, err := gpu.New(w.clusterSpecs()...)
	if err != nil {
		return failed(p, err)
	}
	t2 := wallNow()
	fp, err := core.NewFairPolicy(core.FairConfig{EnableTrading: true})
	if err != nil {
		return failed(p, err)
	}
	var policy core.Policy = fp
	if o.wrap {
		p.probe = newProbe(fp, tr, o.rounds, true)
		policy = p.probe
	}
	cfg := core.Config{
		Cluster: cl,
		Specs:   specs,
		Quantum: quantum,
		Seed:    seed,
		Audit:   core.AuditStrict,
		Engine:  o.engine,
	}
	if w.faults != nil {
		fc := *w.faults
		cfg.Faults = &fc
	}
	if o.observe {
		cfg.Obs = obs.New()
		cfg.Obs.SetTracer(span.New("gandivafair", 0))
		cfg.Flight = flight.New(0, filepath.Join(o.outDir, w.name+"-flight.json"))
	}
	sim, err := core.New(cfg, policy)
	if err != nil {
		return failed(p, err)
	}
	t3 := wallNow()
	p.setup = setupTimes{generate: t1.Sub(t0), cluster: t2.Sub(t1), build: t3.Sub(t2), cpu: clock.now() - c0}
	if tr != nil {
		root := tr.begin("setup", -1, 0, 1, t0)
		tr.add("workload.generate", root, 0, 1, t0, t1)
		tr.add("gpu.cluster", root, 0, 1, t1, t2)
		tr.add("core.new", root, 0, 1, t2, t3)
		tr.end(root, t3)
	}
	if o.setupOnly {
		return p
	}

	runtime.GC()
	a0 := heapObjectsNow()
	cpuStart := clock.now()
	start := wallNow()
	res, err := sim.Run(simclock.Time(float64(o.rounds) * quantum))
	end := wallNow()
	p.runCPU = (clock.now() - cpuStart).Seconds()
	p.allocs = heapObjectsNow() - a0
	if p.probe != nil {
		p.probe.finish(end)
	}
	if err != nil {
		return failed(p, err)
	}
	p.runSec = end.Sub(start).Seconds()
	p.keep = []any{sim, res}
	p.rounds = res.Rounds
	p.simHours = float64(res.End) / simclock.Hour
	p.digest = core.CanonicalDigest(res)
	p.attempted = res.Rounds
	if res.Audit != nil {
		for _, n := range res.Audit.Counts {
			p.failed += n
		}
	}
	p.shareErr = res.MaxShareError()
	if c := res.Utilization.CapacityGPUSeconds; c > 0 {
		p.util = res.Utilization.BusyGPUSeconds / c
	}
	if occ := res.TotalOccupied(); occ > 0 {
		p.useful = res.TotalUseful() / occ
	}
	p.jctH = res.SLO.JCT.Median / simclock.Hour
	p.rho = res.SLO.RhoMax
	p.finished = len(res.Finished)
	return p
}

func (w *spec) distribPass(seed int64, o passOpts, tr *tracer) *pass {
	p := &pass{}
	var clock cpuClock
	c0 := clock.now()
	t0 := wallNow()
	specs, err := w.generate(seed)
	if err != nil {
		return failed(p, err)
	}
	t1 := wallNow()
	fp, err := core.NewFairPolicy(core.FairConfig{EnableTrading: true})
	if err != nil {
		return failed(p, err)
	}
	hub := comm.NewHub()
	ctr, err := hub.Attach("central")
	if err != nil {
		return failed(p, err)
	}
	var policy core.Policy = fp
	var centralTr comm.Transport = ctr
	retry := comm.RetryPolicy{}
	if o.wrap {
		p.probe = newProbe(fp, tr, o.rounds, false)
		p.probe.ref = newFairRef()
		policy = p.probe
		p.tap = &commTap{tr: tr, probe: p.probe}
		centralTr = p.tap.wrap(ctr, 1)
		retry.OnRetry = p.tap.onRetry
	}
	central, err := distrib.NewCentral(centralTr, policy, distrib.CentralConfig{
		Specs: specs, Quantum: quantum, Retry: retry,
	})
	if err != nil {
		return failed(p, err)
	}
	t2 := wallNow()
	ag, err := w.startAgents(hub, p.tap, retry)
	if err != nil {
		_ = ag.stop(central) // already failing; the start error is the one to report
		return failed(p, err)
	}
	if err := central.WaitForAgents(w.numServers(), 30*time.Second); err != nil {
		_ = ag.stop(central) // already failing; the registration error is the one to report
		return failed(p, err)
	}
	t3 := wallNow()
	p.setup = setupTimes{generate: t1.Sub(t0), build: t2.Sub(t1), register: t3.Sub(t2), cpu: clock.now() - c0}
	if tr != nil {
		root := tr.begin("setup", -1, 0, 1, t0)
		tr.add("workload.generate", root, 0, 1, t0, t1)
		tr.add("distrib.new_central", root, 0, 1, t1, t2)
		tr.add("distrib.register", root, 0, 1, t2, t3)
		tr.end(root, t3)
	}
	if o.setupOnly {
		if err := ag.stop(central); err != nil {
			return failed(p, err)
		}
		return p
	}

	runtime.GC()
	a0 := heapObjectsNow()
	cpuStart := clock.now()
	start := wallNow()
	sum, err := central.Steps(o.rounds)
	end := wallNow()
	p.runCPU = (clock.now() - cpuStart).Seconds()
	p.allocs = heapObjectsNow() - a0
	if serr := ag.stop(central); err == nil {
		err = serr
	}
	if p.probe != nil {
		p.probe.finish(end)
	}
	if err != nil {
		return failed(p, err)
	}
	p.runSec = end.Sub(start).Seconds()
	p.keep = central
	p.rounds = sum.Rounds
	p.simHours = float64(sum.VirtualSeconds) / simclock.Hour
	p.digest = distrib.UsageDigest(sum)
	p.failed = sum.MissedReports
	p.finished = len(sum.Finished)
	if p.tap != nil {
		p.attempted = p.tap.planSends
		ref := p.probe.ref
		p.shareErr = maxShareError(sum.UsageByUser, ref.fair)
		if ref.capacity > 0 {
			p.util = ref.occupied / ref.capacity
		}
		if ref.occupied > 0 {
			p.useful = ref.useful / ref.occupied
		}
		slo := distribSLO(sum.Finished, w.users)
		p.jctH = slo.JCT.Median / simclock.Hour
		p.rho = slo.RhoMax
	} else {
		p.attempted = max(sum.Rounds, 1)
	}
	return p
}

// agents runs the per-server agents on their own goroutines.
type agents struct {
	wg   sync.WaitGroup
	eps  []comm.Transport
	errs []error
}

// stop shuts the agents down and waits for every goroutine. Closing
// the endpoints after the Shutdown sends releases any agent the central
// could not reach (an agent drains its inbox, Shutdown included, before
// it sees the close).
func (a *agents) stop(central *distrib.Central) error {
	central.ShutdownAgents()
	for _, ep := range a.eps {
		_ = ep.Close() // hub endpoints: Close only marks them closed
	}
	a.wg.Wait()
	for _, err := range a.errs {
		if err != nil {
			return fmt.Errorf("agent: %w", err)
		}
	}
	return nil
}

func (w *spec) startAgents(hub *comm.Hub, tap *commTap, retry comm.RetryPolicy) (*agents, error) {
	ag := &agents{errs: make([]error, w.numServers())}
	i := 0
	for _, g := range gpu.Generations() {
		for k := 0; k < w.serversPerGen; k++ {
			name := fmt.Sprintf("agent-%s-%03d", g, k)
			ep, err := hub.Attach(name)
			if err != nil {
				return ag, err
			}
			ag.eps = append(ag.eps, ep)
			var tr comm.Transport = ep
			if tap != nil {
				tr = tap.wrap(ep, 2+i)
			}
			a, err := distrib.NewAgent(tr, "central", g, w.gpusPerServer)
			if err != nil {
				return ag, err
			}
			a.SetRetry(retry)
			idx := i
			ag.wg.Add(1)
			go func() {
				defer ag.wg.Done()
				ag.errs[idx] = a.Run()
			}()
			i++
		}
	}
	return ag, nil
}

func failed(p *pass, err error) *pass {
	if p.attempted == 0 {
		p.attempted, p.failed = 1, 1
	}
	p.err = err
	return p
}

// maxShareError mirrors core.Result.MaxShareError for the distributed
// runtime: the largest gap between a user's observed usage fraction
// and its fair-reference fraction.
func maxShareError(usage, fair map[job.UserID]float64) float64 {
	got := metrics.ShareFractions(usage)
	want := metrics.ShareFractions(fair)
	worst := 0.0
	for _, u := range job.SortedUsers(want) {
		worst = math.Max(worst, math.Abs(got[u]-want[u]))
	}
	return worst
}

// distribSLO computes the Themis finish-time fairness bundle the
// engine reports, from the central's finished jobs.
func distribSLO(done []*job.Job, users int) metrics.SLO {
	runs := make([]metrics.JobRun, 0, len(done))
	for _, j := range done {
		best := math.Inf(1)
		for _, g := range gpu.Generations() {
			if j.Perf.FitsOn(g) {
				best = math.Min(best, float64(j.StandaloneTime(g)))
			}
		}
		runs = append(runs, metrics.JobRun{
			User: string(j.User), JCT: float64(j.JCT()),
			Finish: float64(j.FinishTime()), Standalone: best,
		})
	}
	return metrics.ComputeSLO(runs, users)
}

// wall is the set-up's wall time.
func (s setupTimes) wall() time.Duration { return s.generate + s.cluster + s.build + s.register }
