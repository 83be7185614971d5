package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"time"
)

// setupReps is how many set-ups a run times before its passes; each
// pass adds one more sample to setup_s.
const setupReps = 10

type metric struct {
	name  string
	unit  string
	value float64
	n     int // samples behind the value
}

// result is one workload's outcome: the metrics the final JSON line
// carries and the correctness verdict.
type result struct {
	w         *spec
	correct   bool
	attempted int
	failed    int
	metrics   []metric // e2e (untraced run) or per-layer (traced run)
	shown     []metric // printed only
	problems  []string
	digest    string
}

type runConfig struct {
	seed    int64
	seconds float64
	traced  bool
	outDir  string
}

// measure runs one workload: set-up samples, then measured passes
// (untraced) or one untraced and one traced pass (traced), and a bare
// pass without wrappers whose digest every other pass must match.
func measure(w *spec, rc runConfig, log io.Writer) *result {
	start := wallNow()
	r := &result{w: w, correct: true}
	var setups []setupTimes
	check := func(label string, p *pass) bool {
		r.attempted += p.attempted
		r.failed += p.failed
		if p.err != nil {
			r.problems = append(r.problems, fmt.Sprintf("%s pass: %v", label, p.err))
			return false
		}
		if p.failed > 0 {
			r.problems = append(r.problems, fmt.Sprintf("%s pass: %d failed operations", label, p.failed))
		}
		if r.digest == "" {
			r.digest = p.digest
		} else if p.digest != r.digest {
			r.problems = append(r.problems, fmt.Sprintf("%s pass: digest %.16s differs from %.16s", label, p.digest, r.digest))
		}
		setups = append(setups, p.setup)
		return true
	}
	base := passOpts{observe: w.observe, outDir: rc.outDir}

	for i := 0; i < setupReps; i++ {
		o := base
		o.setupOnly = true
		p := w.runPass(rc.seed, o)
		if p.err != nil {
			r.problems = append(r.problems, fmt.Sprintf("set-up: %v", p.err))
			return r.done()
		}
		setups = append(setups, p.setup)
	}
	bare := func() bool { return check("bare", w.runPass(rc.seed, base)) }
	wrapped := base
	wrapped.wrap = true

	if !rc.traced {
		var measured []*pass
		for len(measured) == 0 || wallNow().Sub(start).Seconds() < rc.seconds {
			if n := len(measured); n > 0 {
				// A retained earlier pass would enlarge the heap the next
				// one runs with, and so change how often it collects.
				measured[n-1].keep = nil
			}
			p := w.runPass(rc.seed, wrapped)
			if !check(fmt.Sprintf("measured #%d", len(measured)+1), p) {
				return r.done()
			}
			measured = append(measured, p)
		}
		r.endToEnd(setups, measured)
		// After the measured window, so the check does not shorten it.
		bare()
		return r.done()
	}

	if !bare() {
		return r.done()
	}

	untraced := w.runPass(rc.seed, wrapped)
	if !check("untraced", untraced) {
		return r.done()
	}
	untraced.keep = nil
	var noObs *pass
	if w.observe {
		o := wrapped
		o.observe = false
		noObs = w.runPass(rc.seed, o)
		if !check("observability-off", noObs) {
			return r.done()
		}
		noObs.keep = nil
	}
	tracedOpts := wrapped
	tracedOpts.traced = true
	traced := w.runPass(rc.seed, tracedOpts)
	if !check("traced", traced) {
		return r.done()
	}
	if m := traced.probe.layers.shadowMismatch; m > 0 && w.faults == nil {
		// Without faults nothing but placement decides what is unplaced,
		// so the replay must reproduce the program's own placement.
		r.problems = append(r.problems, fmt.Sprintf("shadow placement disagreed with ExecReport.Unplaced in %d rounds", m))
	}
	r.layers(setups, untraced, traced, noObs)
	path := filepath.Join(rc.outDir, fmt.Sprintf("%s-seed%d.trace.json", w.name, rc.seed))
	if err := traced.tr.writeChrome(path, "perfbench "+w.name); err != nil {
		r.problems = append(r.problems, fmt.Sprintf("span file: %v", err))
	} else {
		fmt.Fprintf(log, "spans: %d written to %s\n", len(traced.tr.spans), path)
	}
	printSelfTimes(log, traced.tr)
	return r.done()
}

func (r *result) done() *result {
	if len(r.problems) > 0 || r.attempted == 0 {
		r.correct = false
	}
	return r
}

func (r *result) add(name, unit string, v float64, n int) {
	r.metrics = append(r.metrics, metric{name, unit, v, n})
}

func setupMedian(setups []setupTimes, part func(setupTimes) time.Duration) float64 {
	xs := make([]float64, len(setups))
	for i, s := range setups {
		xs[i] = ms(part(s))
	}
	return median(xs)
}

// endToEnd derives the user-visible metrics from the measured passes.
func (r *result) endToEnd(setups []setupTimes, ps []*pass) {
	var rounds, cpuRounds []float64
	var runSec, runCPU, simH float64
	var allocs uint64
	nRounds := 0
	for _, p := range ps {
		rounds = append(rounds, p.roundMS...)
		cpuRounds = append(cpuRounds, p.roundCPU...)
		runSec += p.runSec
		runCPU += p.runCPU
		simH += p.simHours
		allocs += p.allocs
		nRounds += p.rounds
	}
	// Live heap with the last pass's engine or central still reachable.
	last := ps[len(ps)-1]
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	runtime.KeepAlive(last.keep)

	first := ps[0]
	r.add("setup_s", "s", setupMedian(setups, func(s setupTimes) time.Duration { return s.cpu })/1e3, len(setups))
	r.add("round_ms_p50", "ms", percentile(cpuRounds, 0.5), len(cpuRounds))
	r.add("round_ms_p95", "ms", percentile(cpuRounds, 0.95), len(cpuRounds))
	r.add("sim_h_per_s", "h/s", ratio(simH, runCPU), len(ps))
	r.add("allocs_per_round", "count", ratio(float64(allocs), float64(nRounds)), nRounds)
	r.add("live_heap_mb", "MB", float64(mem.HeapAlloc)/1e6, 1)
	r.add("gpu_util", "frac", first.util, first.rounds)
	r.add("useful_frac", "frac", first.useful, first.rounds)
	r.add("jct_p50_h", "h", first.jctH, first.finished)
	r.shown = append(r.shown,
		metric{"wall.setup_s", "s", setupMedian(setups, setupTimes.wall) / 1e3, len(setups)},
		metric{"wall.round_ms_p50", "ms", percentile(rounds, 0.5), len(rounds)},
		metric{"wall.round_ms_p95", "ms", percentile(rounds, 0.95), len(rounds)},
		metric{"wall.sim_h_per_s", "h/s", ratio(simH, runSec), len(ps)},
		metric{"share_err_max", "frac", first.shareErr, r.w.users},
		metric{"rho_max", "ratio", first.rho, first.finished},
		metric{"failed_frac", "frac", ratio(float64(r.failed), float64(r.attempted)), r.attempted})
}

// layers derives the per-layer metrics from the traced pass, with the
// untraced pass as the overhead baseline and, where the workload runs
// the observability stack, a pass without it for the stack's cost.
func (r *result) layers(setups []setupTimes, untraced, traced, noObs *pass) {
	w := r.w
	l := &traced.probe.layers
	engineOnly := func(v float64) float64 {
		if w.distrib {
			return 0
		}
		return v
	}
	distribOnly := func(v float64) float64 {
		if !w.distrib {
			return 0
		}
		return v
	}
	nr := len(l.roundMS)
	r.add("workload.generate_ms", "ms", setupMedian(setups, func(s setupTimes) time.Duration { return s.generate }), len(setups))
	r.add("gpu.cluster_ms", "ms", engineOnly(setupMedian(setups, func(s setupTimes) time.Duration { return s.cluster })), len(setups))
	r.add("core.new_ms", "ms", engineOnly(setupMedian(setups, func(s setupTimes) time.Duration { return s.build })), len(setups))
	r.add("distrib.register_ms", "ms", distribOnly(setupMedian(setups, func(s setupTimes) time.Duration { return s.build + s.register })), len(setups))

	r.add("core.policy.decide_ms_p50", "ms", percentile(l.decideMS, 0.5), nr)
	r.add("core.policy.decide_ms_p95", "ms", percentile(l.decideMS, 0.95), nr)
	r.add("core.policy.decide_allocs", "count/round", mean(l.decideAllocs), nr)
	r.add("core.policy.executed_ms_p50", "ms", percentile(l.executedMS, 0.5), nr)
	r.add("core.policy.jobs_in", "jobs/round", mean(l.jobsIn), nr)
	r.add("core.policy.requests", "count/round", mean(l.requests), nr)
	r.add("trade.trades", "count/round", mean(l.trades), nr)

	r.add("core.sim.self_ms_p50", "ms", engineOnly(percentile(l.selfMS, 0.5)), nr)
	r.add("core.sim.self_ms_p95", "ms", engineOnly(percentile(l.selfMS, 0.95)), nr)
	r.add("core.sim.self_allocs", "count/round", engineOnly(mean(l.selfAllocs)), nr)
	r.add("core.sim.arrivals", "count", float64(l.arrivals), nr)
	r.add("core.sim.finishes", "count", float64(l.finishes), nr)
	r.add("core.policy.job_finished_us", "us", ratio(float64(l.finishedTime.Nanoseconds())/1e3, float64(l.finishes)), l.finishes)

	r.add("placement.place_ms_p50", "ms", percentile(l.shadowMS, 0.5), nr)
	r.add("placement.unplaced_frac", "frac", ratio(float64(l.unplaced), float64(l.requested)), l.requested)
	r.add("migrate.migrations", "count", float64(l.migrations), nr)
	r.add("faults.unavail_servers", "servers", mean(l.unavail), nr)
	r.add("faults.deficit_users", "users", mean(l.deficit), nr)

	var obsTax, obsAllocs float64
	if noObs != nil {
		obsTax = ratio(median(untraced.roundCPU), median(noObs.roundCPU)) - 1
		obsAllocs = ratio(float64(untraced.allocs)/float64(untraced.rounds), float64(noObs.allocs)/float64(noObs.rounds)) - 1
	}
	r.add("obs.tax_frac", "frac", obsTax, len(untraced.roundMS))
	r.add("obs.allocs_tax", "frac", obsAllocs, untraced.rounds)

	var sendMS, reportMS []float64
	var sends, bytes, retries float64
	if t := traced.tap; t != nil {
		sendMS, reportMS = t.sendMS, t.reportMS
		sends = ratio(float64(t.sends), float64(nr))
		bytes = ratio(float64(t.wireBytes), float64(nr))
		retries = float64(t.retries)
	}
	r.add("distrib.decide_ms_p50", "ms", distribOnly(percentile(l.decideMS, 0.5)), nr)
	r.add("distrib.plan_ms_p50", "ms", percentile(l.planMS, 0.5), len(l.planMS))
	r.add("comm.send_ms", "ms", percentile(sendMS, 0.5), len(sendMS))
	r.add("comm.sends", "count/round", sends, nr)
	r.add("comm.bytes", "bytes/round", bytes, nr)
	r.add("distrib.collect_apply_ms_p50", "ms", percentile(l.collectMS, 0.5), len(l.collectMS))
	r.add("agent.report_send_ms", "ms", percentile(reportMS, 0.5), len(reportMS))
	r.add("comm.retries", "count", retries, nr)
	r.add("distrib.missed_reports", "count", distribOnly(float64(traced.failed)), traced.attempted)

	r.add("trace.overhead_frac", "frac", ratio(median(traced.roundCPU), median(untraced.roundCPU))-1, nr)
	r.add("wall.round_ms_p50", "ms", median(untraced.roundMS), len(untraced.roundMS))
	r.add("share_err_max", "frac", traced.shareErr, w.users)
	r.add("rho_max", "ratio", traced.rho, traced.finished)
	r.shown = append(r.shown,
		metric{"untraced.round_ms_p50", "ms", median(untraced.roundCPU), len(untraced.roundCPU)},
		metric{"traced.round_ms_p50", "ms", median(traced.roundCPU), len(traced.roundCPU)},
		metric{"placement.shadow_mismatch_rounds", "count", float64(l.shadowMismatch), nr},
	)
}

func printSelfTimes(w io.Writer, tr *tracer) {
	fmt.Fprintf(w, "%-28s %8s %12s %12s %10s %7s\n", "span (self time by layer)", "count", "total_ms", "self_ms", "self_us/op", "self%")
	for _, lt := range tr.selfTimes() {
		fmt.Fprintf(w, "%-28s %8d %12.3f %12.3f %10.2f %6.1f%%\n",
			lt.name, lt.count, lt.totalMS, lt.selfMS, lt.meanSelfUS, 100*lt.selfFraction)
	}
}
