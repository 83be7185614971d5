// Package profiler estimates each job's throughput on each GPU
// generation from noisy observations, the way Gandiva_fair profiles
// marginal utility: DLT jobs run the same minibatch millions of
// times, so a short run on a generation yields a low-cost, slightly
// noisy rate measurement that an EWMA quickly sharpens.
//
// The simulation knows the true rates (job.Perf); the profiler's role
// is to model the *measurement* process so that the trading mechanism
// consumes estimates, not oracle truth — estimation error is part of
// what the paper's design tolerates.
package profiler

import (
	"fmt"
	"math/rand"

	"repro/internal/gpu"
	"repro/internal/job"
)

// Profiler accumulates per-job, per-generation rate estimates. Not
// safe for concurrent use (single simulation goroutine).
type Profiler struct {
	alpha    float64 // EWMA weight of the newest sample, in (0,1]
	noiseStd float64 // relative std-dev of one measurement
	rng      *rand.Rand
	recs     map[job.ID]*record
}

type record struct {
	rate    [gpu.NumGenerations]float64 // per-GPU minibatches/sec estimates
	samples [gpu.NumGenerations]int
}

// New returns a profiler. alpha is the EWMA weight for new samples;
// noiseStd is the relative standard deviation of a single rate
// measurement (the paper's minibatch timings are stable, so a few
// percent is realistic).
func New(alpha, noiseStd float64, seed int64) (*Profiler, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("profiler: alpha %v outside (0,1]", alpha)
	}
	if noiseStd < 0 {
		return nil, fmt.Errorf("profiler: negative noiseStd %v", noiseStd)
	}
	return &Profiler{
		alpha:    alpha,
		noiseStd: noiseStd,
		rng:      rand.New(rand.NewSource(seed)),
		recs:     make(map[job.ID]*record),
	}, nil
}

// MustNew is New but panics on bad parameters; for fixtures.
func MustNew(alpha, noiseStd float64, seed int64) *Profiler {
	p, err := New(alpha, noiseStd, seed)
	if err != nil {
		panic(err)
	}
	return p
}

// Observe records one noisy measurement of j's per-GPU rate on
// generation g (the job just ran a quantum there). Observing a
// generation the job does not fit panics — the placement layer must
// never run it there.
func (p *Profiler) Observe(j *job.Job, g gpu.Generation) {
	p.observe(p.recs[j.ID], j, g)
}

// observe is Observe given j's record r (nil when j has none yet). It
// returns the record, created on first use.
func (p *Profiler) observe(r *record, j *job.Job, g gpu.Generation) *record {
	if !j.Perf.FitsOn(g) {
		panic(fmt.Sprintf("profiler: observe job %d on unusable generation %v", j.ID, g))
	}
	truth := j.Perf.RatePerGPU[g]
	measured := truth * (1 + p.noiseStd*p.rng.NormFloat64())
	if measured <= 0 {
		measured = truth * 0.01 // measurement noise cannot produce a nonpositive rate
	}
	if r == nil {
		r = &record{}
		p.recs[j.ID] = r
	}
	if r.samples[g] == 0 {
		r.rate[g] = measured
	} else {
		r.rate[g] = (1-p.alpha)*r.rate[g] + p.alpha*measured
	}
	r.samples[g]++
	return r
}

// ProbeAll takes one measurement on every generation the job fits,
// modeling the paper's initial micro-profiling pass (a few
// minibatches on each GPU type when the job first runs).
func (p *Profiler) ProbeAll(j *job.Job) {
	p.probeAll(p.recs[j.ID], j)
}

func (p *Profiler) probeAll(r *record, j *job.Job) {
	for g := gpu.Generation(0); int(g) < gpu.NumGenerations; g++ {
		if j.Perf.FitsOn(g) {
			r = p.observe(r, j, g)
		}
	}
}

// ObserveOrProbe measures a job that just ran a quantum on g: the
// first time it runs on g, ProbeAll; afterwards, Observe on g. It
// looks the job's record up once and draws noise in the same order as
// those two calls.
func (p *Profiler) ObserveOrProbe(j *job.Job, g gpu.Generation) {
	r := p.recs[j.ID]
	if r == nil || !g.Valid() || r.samples[g] == 0 {
		p.probeAll(r, j)
		return
	}
	p.observe(r, j, g)
}

// Rate returns the estimated per-GPU rate of job id on g and whether
// any observation exists.
func (p *Profiler) Rate(id job.ID, g gpu.Generation) (float64, bool) {
	r := p.recs[id]
	if r == nil || !g.Valid() || r.samples[g] == 0 {
		return 0, false
	}
	return r.rate[g], true
}

// Estimates returns job id's rate estimates and observation counts on
// every generation with one lookup; both are zero for an unknown job.
// rate[g] is meaningful only where samples[g] > 0.
func (p *Profiler) Estimates(id job.ID) (rate [gpu.NumGenerations]float64, samples [gpu.NumGenerations]int) {
	if r := p.recs[id]; r != nil {
		return r.rate, r.samples
	}
	return rate, samples
}

// Samples returns the observation count for (id, g).
func (p *Profiler) Samples(id job.ID, g gpu.Generation) int {
	r := p.recs[id]
	if r == nil || !g.Valid() {
		return 0
	}
	return r.samples[g]
}

// Speedup returns the estimated fast/slow per-GPU rate ratio for a
// job, and whether both estimates exist.
func (p *Profiler) Speedup(id job.ID, fast, slow gpu.Generation) (float64, bool) {
	rf, okf := p.Rate(id, fast)
	rs, oks := p.Rate(id, slow)
	if !okf || !oks || rs <= 0 {
		return 0, false
	}
	return rf / rs, true
}

// UserSpeedup aggregates a user's speedup of fast over slow across
// their runnable jobs, weighted by gang width (a user's marginal
// utility for a fast GPU is what their next GPU-hour would be spent
// on). Jobs lacking estimates on either generation are skipped; ok is
// false when no job contributes.
func (p *Profiler) UserSpeedup(jobs []*job.Job, fast, slow gpu.Generation) (speedup float64, ok bool) {
	var num, den float64
	for _, j := range jobs {
		s, have := p.Speedup(j.ID, fast, slow)
		if !have {
			continue
		}
		w := float64(j.Gang)
		num += w * s
		den += w
	}
	if den == 0 {
		return 0, false
	}
	return num / den, true
}

// Known reports whether the job has at least one observation on g.
func (p *Profiler) Known(id job.ID, g gpu.Generation) bool {
	return p.Samples(id, g) > 0
}

// Remove forgets a finished job.
func (p *Profiler) Remove(id job.ID) { delete(p.recs, id) }

// Len returns the number of tracked jobs.
func (p *Profiler) Len() int { return len(p.recs) }
