package main

import (
	rtmetrics "runtime/metrics"
	"time"

	"repro/internal/core"
	"repro/internal/fairshare"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/placement"
)

// probe wraps the core.Policy handed to the engine or the central and
// measures each layer from outside, by timing calls into it.
//
// Untraced it only stamps each Decide entry: a round runs from one
// Decide entry to the next. Traced, it also times every policy call,
// counts heap objects around it, replays the decision through
// placement.PlaceIndexed on a shadow index and records spans.
type probe struct {
	inner core.Policy
	tr    *tracer // nil = untraced

	entries []time.Time     // Decide entry per round
	cpu     []time.Duration // process CPU time at each Decide entry
	end     time.Time       // when the run returned: closes the last round
	cpuEnd  time.Duration
	clock   cpuClock

	// ref, when set, integrates the policy-independent fairness
	// reference and the executed GPU-seconds from outside the program
	// (the distributed runtime reports neither).
	ref *fairRef

	layers layerStats // traced only

	// Traced per-round state.
	root           int // index of this round's root span
	roundAllocs0   uint64
	shadow         *shadowPlacer
	keepUnplaced   bool // engine prev semantics: unplaced jobs keep their devices
	shadowUnplaced int
	decideEnd      time.Time
	firstPlan      time.Time
	lastPlan       time.Time
	maxID          job.ID
	allocs         allocCounter
}

// layerStats are the per-layer samples one traced pass collects.
type layerStats struct {
	roundMS, decideMS, shadowMS, executedMS, selfMS []float64
	planMS, collectMS                               []float64
	decideAllocs, selfAllocs                        []float64
	jobsIn, requests, trades, unavail, deficit      []float64
	arrivals, finishes, migrations                  int
	requested, unplaced                             int
	finishedTime                                    time.Duration
	shadowMismatch                                  int // rounds where the replay's unplaced count differed

	// per-round accumulators, folded into the slices at the boundary
	curExecuted, curFinished     time.Duration
	curExecAllocs, curFinAllocs  uint64
	curDecide, curShadow         time.Duration
	curDecAllocs, curShadowAlloc uint64
}

func newProbe(inner core.Policy, tr *tracer, rounds int, keepUnplaced bool) *probe {
	p := &probe{inner: inner, tr: tr, root: -1, keepUnplaced: keepUnplaced}
	p.entries = make([]time.Time, 0, rounds+1)
	p.cpu = make([]time.Duration, 0, rounds+1)
	p.allocs = newAllocCounter()
	return p
}

func (p *probe) heapObjects() uint64 { return p.allocs.read() }

// allocCounter reads the cumulative count of heap objects allocated
// (runtime/metrics). It owns its sample buffer so a read allocates
// nothing; use one per goroutine.
type allocCounter struct{ s [2]rtmetrics.Sample }

func newAllocCounter() allocCounter {
	var c allocCounter
	c.s[0].Name = "/gc/heap/allocs:objects"
	c.s[1].Name = "/gc/heap/tiny/allocs:objects"
	return c
}

func (c *allocCounter) read() uint64 {
	rtmetrics.Read(c.s[:])
	return c.s[0].Value.Uint64() + c.s[1].Value.Uint64()
}

func (p *probe) Name() string { return p.inner.Name() }

func (p *probe) Decide(st *core.RoundState) core.Decision {
	if p.tr != nil && p.shadow == nil {
		p.shadow = newShadowPlacer(st.Cluster, p.keepUnplaced)
	}
	now := wallNow()
	p.boundary(now)
	if p.ref != nil {
		p.ref.observe(st)
	}
	if p.tr == nil {
		return p.inner.Decide(st)
	}
	l := &p.layers
	l.jobsIn = append(l.jobsIn, float64(len(st.Jobs)))
	for i := len(st.Jobs) - 1; i >= 0 && st.Jobs[i].ID > p.maxID; i-- {
		l.arrivals++
	}
	if n := len(st.Jobs); n > 0 && st.Jobs[n-1].ID > p.maxID {
		p.maxID = st.Jobs[n-1].ID
	}
	l.unavail = append(l.unavail, float64(countUnavail(st)))
	debtors := 0
	for _, d := range st.Deficit {
		if d > 0 {
			debtors++
		}
	}
	l.deficit = append(l.deficit, float64(debtors))

	a0 := p.heapObjects()
	dec := p.inner.Decide(st)
	t1 := wallNow()
	a1 := p.heapObjects()
	res := p.shadow.place(st, dec)
	t2 := wallNow()
	a2 := p.heapObjects()
	p.tr.add("core.policy.decide", p.root, len(p.entries), 1, now, t1)
	p.tr.add("placement.shadow", p.root, len(p.entries), 1, t1, t2)
	l.curDecide, l.curShadow = t1.Sub(now), t2.Sub(t1)
	l.curDecAllocs, l.curShadowAlloc = a1-a0, a2-a1
	p.shadowUnplaced = len(res.Unplaced)
	l.requests = append(l.requests, float64(len(dec.Run)))
	l.requested += len(dec.Run)
	l.trades = append(l.trades, float64(len(dec.Trades)))
	p.decideEnd = wallNow()
	return dec
}

// boundary closes the previous round at now and opens the next.
func (p *probe) boundary(now time.Time) {
	if p.tr != nil {
		a := p.heapObjects()
		if p.root >= 0 {
			p.closeRound(now, a)
		}
		p.root = p.tr.begin("round", -1, len(p.entries)+1, 1, now)
		p.roundAllocs0 = a
		p.firstPlan, p.lastPlan = time.Time{}, time.Time{}
	}
	p.entries = append(p.entries, now)
	p.cpu = append(p.cpu, p.clock.now())
}

func (p *probe) closeRound(at time.Time, allocs uint64) {
	l := &p.layers
	p.tr.end(p.root, at)
	round := at.Sub(p.entries[len(p.entries)-1])
	self := round - l.curDecide - l.curShadow - l.curExecuted - l.curFinished
	l.roundMS = append(l.roundMS, ms(round))
	l.decideMS = append(l.decideMS, ms(l.curDecide))
	l.shadowMS = append(l.shadowMS, ms(l.curShadow))
	l.executedMS = append(l.executedMS, ms(l.curExecuted))
	l.selfMS = append(l.selfMS, ms(self))
	total := allocs - p.roundAllocs0
	policy := l.curDecAllocs + l.curShadowAlloc + l.curExecAllocs + l.curFinAllocs
	l.decideAllocs = append(l.decideAllocs, float64(l.curDecAllocs))
	l.selfAllocs = append(l.selfAllocs, float64(total)-float64(policy))
	l.curExecuted, l.curFinished, l.curDecide, l.curShadow = 0, 0, 0, 0
	l.curExecAllocs, l.curFinAllocs, l.curDecAllocs, l.curShadowAlloc = 0, 0, 0, 0
}

func (p *probe) Executed(rep *core.ExecReport) {
	start := wallNow()
	if p.ref != nil {
		p.ref.executed(rep)
	}
	if p.tr == nil {
		p.inner.Executed(rep)
		return
	}
	l := &p.layers
	if !p.lastPlan.IsZero() {
		l.collectMS = append(l.collectMS, ms(start.Sub(p.lastPlan)))
		p.tr.add("distrib.collect_apply", p.root, len(p.entries), 1, p.lastPlan, start)
	}
	l.unplaced += len(rep.Unplaced)
	if len(rep.Unplaced) != p.shadowUnplaced {
		l.shadowMismatch++
	}
	for _, info := range rep.Ran {
		if info.Migrated {
			l.migrations++
		}
	}
	a0 := p.heapObjects()
	t0 := wallNow()
	p.inner.Executed(rep)
	t1 := wallNow()
	l.curExecAllocs += p.heapObjects() - a0
	l.curExecuted += t1.Sub(t0)
	p.tr.add("core.policy.executed", p.root, len(p.entries), 1, t0, t1)
}

func (p *probe) JobFinished(id job.ID) {
	if p.tr == nil {
		p.inner.JobFinished(id)
		return
	}
	p.shadow.forget(id)
	l := &p.layers
	a0 := p.heapObjects()
	t0 := wallNow()
	p.inner.JobFinished(id)
	t1 := wallNow()
	l.curFinAllocs += p.heapObjects() - a0
	l.curFinished += t1.Sub(t0)
	l.finishedTime += t1.Sub(t0)
	l.finishes++
	p.tr.add("core.policy.job_finished", p.root, len(p.entries), 1, t0, t1)
}

// notePlanSend is called by the central's transport tap for every
// RoundPlan send, on the central's goroutine.
func (p *probe) notePlanSend(start, end time.Time) {
	if p.firstPlan.IsZero() && !p.decideEnd.IsZero() {
		p.firstPlan = start
		p.layers.planMS = append(p.layers.planMS, ms(start.Sub(p.decideEnd)))
		p.tr.add("distrib.plan", p.root, len(p.entries), 1, p.decideEnd, start)
	}
	p.lastPlan = end
}

// finish closes the last round when the run returns.
func (p *probe) finish(end time.Time) {
	p.end = end
	p.cpuEnd = p.clock.now()
	if p.tr != nil && p.root >= 0 {
		p.closeRound(end, p.heapObjects())
		p.root = -1
	}
}

// roundCPUMS returns each round's process CPU time, over the same
// intervals as roundMS.
func (p *probe) roundCPUMS() []float64 {
	out := make([]float64, len(p.cpu))
	for i, t := range p.cpu {
		next := p.cpuEnd
		if i+1 < len(p.cpu) {
			next = p.cpu[i+1]
		}
		out[i] = ms(next - t)
	}
	return out
}

// roundMS returns each round's wall time: Decide entry to the next
// Decide entry, the last round ending when the run returned.
func (p *probe) roundMS() []float64 {
	out := make([]float64, len(p.entries))
	for i, t := range p.entries {
		next := p.end
		if i+1 < len(p.entries) {
			next = p.entries[i+1]
		}
		out[i] = ms(next.Sub(t))
	}
	return out
}

func countUnavail(st *core.RoundState) int {
	n := 0
	for sid, out := range st.Down {
		if out && !st.Quarantined[sid] {
			n++
		}
	}
	for _, out := range st.Quarantined {
		if out {
			n++
		}
	}
	return n
}

// shadowPlacer replays each round's Decision.Run through
// placement.PlaceIndexed on an index the benchmark owns, mirroring
// how the program carries previous placements between rounds.
type shadowPlacer struct {
	idx          *placement.Index
	prev         placement.Assignment
	unavail      map[gpu.ServerID]bool
	keepUnplaced bool
}

func newShadowPlacer(c *gpu.Cluster, keepUnplaced bool) *shadowPlacer {
	return &shadowPlacer{
		idx:          placement.NewIndex(c),
		prev:         placement.Assignment{},
		unavail:      make(map[gpu.ServerID]bool),
		keepUnplaced: keepUnplaced,
	}
}

func (s *shadowPlacer) place(st *core.RoundState, dec core.Decision) placement.Result {
	out := func(sid gpu.ServerID) bool { return st.Down[sid] || st.Quarantined[sid] }
	for sid := range s.unavail {
		if !out(sid) {
			s.idx.SetAvail(sid, true)
			delete(s.unavail, sid)
		}
	}
	for _, m := range []map[gpu.ServerID]bool{st.Down, st.Quarantined} {
		for sid, down := range m {
			if down && !s.unavail[sid] {
				s.idx.SetAvail(sid, false)
				s.unavail[sid] = true
			}
		}
	}
	res := placement.PlaceIndexed(s.idx, s.prev, dec.Run,
		placement.Options{AllowMigration: !st.MigrationDisabled, Pinned: st.Pinned})
	if s.keepUnplaced {
		for id, devs := range res.Assignment {
			s.prev[id] = devs
		}
	} else {
		s.prev = res.Assignment
	}
	return res
}

func (s *shadowPlacer) forget(id job.ID) { delete(s.prev, id) }

// fairRef integrates, from outside the program, the fairness reference
// the engine keeps internally: each round, capacity net of down
// servers water-filled over the active users' gang demand by tickets.
type fairRef struct {
	fair        map[job.UserID]float64 // GPU-seconds
	capacity    float64                // GPU-seconds offered
	occupied    float64                // gang-seconds executed
	useful      float64
	demandByUsr map[job.UserID]float64
}

func newFairRef() *fairRef {
	return &fairRef{fair: make(map[job.UserID]float64), demandByUsr: make(map[job.UserID]float64)}
}

func (f *fairRef) observe(st *core.RoundState) {
	clear(f.demandByUsr)
	for _, j := range st.Jobs {
		f.demandByUsr[j.User] += float64(j.Gang)
	}
	total := 0
	for _, c := range st.CapacityByGen() {
		total += c
	}
	shares := fairshare.Compute(st.Tickets, f.demandByUsr, float64(total))
	for u, sh := range shares {
		f.fair[u] += sh * quantum
	}
	f.capacity += float64(total) * quantum
}

func (f *fairRef) executed(rep *core.ExecReport) {
	for _, id := range job.SortedIDs(rep.Ran) {
		info := rep.Ran[id]
		f.occupied += float64(info.Gang) * info.OccupiedSecs
		f.useful += float64(info.Gang) * info.UsefulSecs
	}
}
