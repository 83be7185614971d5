package core

import (
	"fmt"
	"sort"

	"repro/internal/fairshare"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/stride"
	"repro/internal/trade"
)

// FairConfig tunes the Gandiva_fair policy.
type FairConfig struct {
	// EnableTrading turns the automatic resource trading on (the
	// paper's full system). Off, the policy is the
	// heterogeneity-blind fair scheduler (the paper's no-trade
	// baseline).
	EnableTrading bool

	// Trade configures the trading loop when enabled.
	Trade trade.Config

	// MinSamples is how many profiler observations a job needs on a
	// generation before its estimate feeds trading. Zero means 1.
	MinSamples int

	// MigrationCooldown is the minimum number of rounds between
	// generation changes for one job, damping migration thrash when a
	// user's entitlement straddles generations. Zero means 10.
	MigrationCooldown int

	// Hierarchy, when set, replaces the flat per-user tickets with
	// two-level org → user fairness: each round the orgs' tickets are
	// flattened over the currently active users (see
	// fairshare.Hierarchy). RoundState tickets are then ignored.
	Hierarchy *fairshare.Hierarchy

	// DisableCompensation turns off failure compensation: deficits in
	// RoundState.Deficit are ignored and Decision.Repaid stays nil
	// (the compensation ablation).
	DisableCompensation bool

	// CompMaxShare caps per-round failure repayment at this fraction
	// of total capacity, so catch-up cannot crowd out live shares.
	// Zero means 0.25.
	CompMaxShare float64
}

// FairPolicy implements Gandiva_fair: ticket fair share with
// water-filling, per-user gang-aware stride scheduling realized
// through per-(user, generation) deficit credits, work-conserving
// backfill, and optional automatic trading.
//
// Fairness mechanics per round:
//
//  1. Water-filling splits cluster capacity among active users by
//     tickets, capped by demand (fairshare.ComputeAllocation), then
//     trading (optionally) exchanges entitlement between generations
//     at Pareto prices.
//  2. Each user's per-generation entitlement accrues into a credit
//     counter. A gang is scheduled against credits, so a user whose
//     big gang does not fit this round keeps accumulating credit and
//     catches up later — gang granularity cannot cause starvation.
//  3. Within a user, jobs are picked in gang-aware stride pass
//     order, so a user cannot bias their own jobs' shares by
//     splitting or merging work. Jobs stick to the generation they
//     last ran on when credit allows, and generation changes are
//     rate-limited by a cooldown to damp migration thrash.
//  4. Capacity left after all credits are spent is backfilled by a
//     global stride pass (charged, so chronic backfillers are
//     deprioritized) — work conservation without violating anyone's
//     guarantee.
type FairPolicy struct {
	cfg FairConfig

	// users holds one record per active user; a departed user's is
	// dropped, so a returning user starts with no credit and every
	// job rejoins the user's stride pool.
	users map[job.UserID]*userState

	// jobs holds one record per job the policy has seen, dropped by
	// JobFinished. Decide looks each runnable job up once per round.
	jobs map[job.ID]*jobState

	round     int32           // see jobState
	noMigrate bool            // engine refuses migrations this run
	pinned    map[job.ID]bool // jobs in migration-failure backoff this round

	// charges lists the jobs scheduled since the last Executed, in
	// scheduling order; Executed settles and drops them. It lives for
	// one round and is allocated at the size of the last one.
	charges    []charge
	lastCharge int

	// waterfill memoizes the non-debt water-fill across rounds: most
	// rounds repeat the previous round's tickets/demand/capacity, so
	// the solve — and its map churn — amortizes away.
	waterfill *fairshare.AllocationSolver
}

// userState is the policy's record of one active user.
type userState struct {
	credit fairshare.Entitlement // deficit credits per generation
}

// jobState is the policy's record of one job, everything it keeps
// about the job across rounds. Records are most of the policy's heap;
// int32 round numbers keep one at 48 bytes.
type jobState struct {
	// The job's passes in its user's stride pool and in the global
	// backfill pool. userPass is valid only while owner is the user's
	// current record: a user who departs and returns starts a fresh
	// pool.
	owner    *userState
	userPass stride.Pass
	bfPass   stride.Pass

	lastMig int32 // round of the job's last generation change
	round   int32 // last round the job was scheduled in; -1 once finished
}

// charge is what Executed settles for one scheduled job: charge its
// passes for what ran, or refund the credit it was funded from.
type charge struct {
	id         job.ID
	s          *jobState
	gen        gpu.Generation
	gang       int
	jobTickets float64
	round      int32 // the round it was scheduled in
	viaCredit  bool
}

// roundJob is one runnable job as Decide sees it this round: the job,
// its record, and the generation it last ran on.
type roundJob struct {
	j       *job.Job
	s       *jobState
	prev    gpu.Generation
	hasPrev bool
}

// NewFairPolicy constructs the policy.
func NewFairPolicy(cfg FairConfig) (*FairPolicy, error) {
	if cfg.MinSamples == 0 {
		cfg.MinSamples = 1
	}
	if cfg.MinSamples < 0 {
		return nil, fmt.Errorf("core: negative MinSamples")
	}
	if cfg.MigrationCooldown == 0 {
		cfg.MigrationCooldown = 10
	}
	if cfg.MigrationCooldown < 0 {
		return nil, fmt.Errorf("core: negative MigrationCooldown")
	}
	if cfg.CompMaxShare == 0 {
		cfg.CompMaxShare = 0.25
	}
	if cfg.CompMaxShare < 0 || cfg.CompMaxShare > 1 {
		return nil, fmt.Errorf("core: CompMaxShare %v outside (0,1]", cfg.CompMaxShare)
	}
	if err := cfg.Trade.Validate(); err != nil {
		return nil, err
	}
	return &FairPolicy{
		cfg:       cfg,
		users:     make(map[job.UserID]*userState),
		jobs:      make(map[job.ID]*jobState),
		waterfill: fairshare.NewAllocationSolver(),
	}, nil
}

// MustNewFairPolicy is NewFairPolicy but panics on bad config.
func MustNewFairPolicy(cfg FairConfig) *FairPolicy {
	p, err := NewFairPolicy(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// Name implements Policy.
func (p *FairPolicy) Name() string {
	if p.cfg.EnableTrading {
		return "gandiva-fair"
	}
	return "gandiva-fair-no-trade"
}

// Decide implements Policy. Selection costs O(J log J) for J runnable
// jobs: one record lookup per job, one stride sort per user and per
// backfilled generation, and user values computed once.
func (p *FairPolicy) Decide(st *RoundState) Decision {
	users, byUser := p.groupByUser(st)
	caps := st.CapacityByGen()

	// 1. Fair share.
	st.Obs.PhaseStart(obs.PhaseWaterfill)
	tickets := st.Tickets
	if p.cfg.Hierarchy != nil {
		tickets = p.cfg.Hierarchy.Flatten(users)
	}
	demand := make(map[job.UserID]float64, len(byUser))
	jobsPer := make(map[job.UserID]int, len(byUser))
	for u, js := range byUser {
		var d float64
		for i := range js {
			d += float64(js[i].j.Gang)
		}
		demand[u] = d
		jobsPer[u] = len(js)
	}
	// Solve is memoized (fairshare.AllocationSolver); the result is
	// shared storage, but every consumer below either reads it or
	// replaces the local variable (trade.Run clones), never mutates.
	alloc := p.waterfill.Solve(tickets, demand, caps)
	// Failure compensation: repay users' fault deficits off the top
	// of the water-fill, before surplus redistribution, so GPU time
	// lost to faults is restored instead of diluted away.
	var repaid map[job.UserID]float64
	if !p.cfg.DisableCompensation && len(st.Deficit) > 0 && st.Quantum > 0 {
		debt := make(map[job.UserID]float64)
		for u, d := range st.Deficit {
			if d > 0 && demand[u] > 0 {
				debt[u] = d / st.Quantum // GPU-seconds owed → GPUs this round
			}
		}
		if len(debt) > 0 {
			withDebt, granted := fairshare.ComputeAllocationWithDebt(tickets, demand, caps, debt, p.cfg.CompMaxShare)
			alloc = withDebt
			// A non-nil map — even with zero grants — tells the engine
			// the policy is compensating, so materialized catch-up may
			// drain the deficit (see Sim.settleCompensation).
			repaid = make(map[job.UserID]float64, len(granted))
			for u, g := range granted {
				repaid[u] = g * st.Quantum
			}
		}
	}
	st.Obs.PhaseEnd(obs.PhaseWaterfill)

	// 2. Trading. The user values also order each user's generations
	// in selection, so they are computed once either way.
	var trades []trade.Trade
	if p.cfg.EnableTrading {
		st.Obs.PhaseStart(obs.PhaseTrade)
	}
	vals := p.userValues(st, byUser)
	if p.cfg.EnableTrading {
		adjusted, log, err := trade.Run(alloc, vals, demand, p.cfg.Trade)
		if err == nil {
			alloc = adjusted
			trades = log
		}
		st.Obs.PhaseEnd(obs.PhaseTrade)
	}

	// 3. Accrue credits; drop departed users; cap per generation.
	for u := range p.users {
		if _, active := byUser[u]; !active {
			delete(p.users, u)
		}
	}
	for _, u := range users {
		us := p.users[u]
		if us == nil {
			us = &userState{credit: fairshare.Entitlement{}}
			p.users[u] = us
		}
		c := us.credit
		for g, e := range alloc[u] {
			c[g] += e
			if limit := float64(caps[g]); c[g] > limit {
				c[g] = limit
			}
		}
	}

	// 4. Selection.
	p.round++
	if p.charges == nil {
		p.charges = make([]charge, 0, p.lastCharge)
	}
	p.noMigrate = st.MigrationDisabled
	p.pinned = st.Pinned
	jobTickets := fairshare.JobTickets(tickets, jobsPer)
	var remaining [gpu.NumGenerations]int
	for g, c := range caps {
		remaining[g] = c
	}
	var run []placement.Request

	schedule := func(rj *roundJob, g gpu.Generation, jt float64, viaCredit bool) {
		j, s := rj.j, rj.s
		s.round = p.round
		remaining[g] -= j.Gang
		credit := s.owner.credit
		if viaCredit {
			if st.Obs != nil {
				before := credit[g]
				st.Obs.NoteChoice(int64(j.ID), "credit", before, before-float64(j.Gang))
			}
			credit[g] -= float64(j.Gang)
		} else if st.Obs != nil {
			c := credit[g]
			st.Obs.NoteChoice(int64(j.ID), "backfill", c, c)
		}
		if rj.hasPrev && rj.prev != g {
			s.lastMig = p.round
		}
		p.charges = append(p.charges, charge{id: j.ID, s: s, round: p.round, gen: g, gang: j.Gang, jobTickets: jt, viaCredit: viaCredit})
		run = append(run, placement.Request{Job: j, Gen: g})
	}

	// Pass 1 — credit-funded scheduling: per user, walk jobs in
	// gang-aware stride pass order and fund each from the credit of
	// the generation it should run on (previous generation when
	// possible; otherwise the user's most valuable generation, gated
	// by the migration cooldown).
	//
	// Users are served most-credit-first: when capacity is scarce the
	// user who has been shorted longest wins, so synchronized credit
	// cycles cannot starve whoever happens to sort last.
	serveOrder := make([]job.UserID, len(users))
	copy(serveOrder, users)
	sort.SliceStable(serveOrder, func(i, k int) bool {
		ci, ck := p.users[serveOrder[i]].credit.Total(), p.users[serveOrder[k]].credit.Total()
		if ci != ck {
			return ci > ck
		}
		return serveOrder[i] < serveOrder[k]
	})
	for _, u := range serveOrder {
		js := byUser[u]
		us := p.users[u]
		pref := genPreference(vals, u, caps)
		jt := jobTickets[u]
		cands := make([]stride.Candidate, len(js))
		passes := make([]*stride.Pass, len(js))
		for i := range js {
			s := js[i].s
			if s.owner != us {
				s.owner, s.userPass = us, stride.Pass{}
			}
			cands[i] = stride.Candidate{ID: js[i].j.ID, Gang: js[i].j.Gang, Tickets: jt}
			passes[i] = &s.userPass
		}
		for _, i := range stride.OrderPasses(cands, passes) {
			if g, ok := p.pickGen(&js[i], us.credit, pref, &remaining); ok {
				schedule(&js[i], g, jt, true)
			}
		}
	}

	// Pass 2 — work-conserving backfill of leftover capacity, charged
	// against a global stride so no user freeloads persistently. The
	// cooldown still applies: backfill must not cause thrash either.
	for _, g := range gensDesc(caps) {
		if remaining[g] <= 0 {
			continue
		}
		var cands []stride.Candidate
		var passes []*stride.Pass
		var pool []*roundJob
		for _, u := range users {
			js, jt := byUser[u], jobTickets[u]
			for i := range js {
				rj := &js[i]
				if rj.s.round == p.round || !rj.j.Perf.FitsOn(g) {
					continue
				}
				// Backfill uses a short cooldown: moving an otherwise
				// idle job onto idle capacity is a one-way move, not
				// thrash, so only back-to-back flapping is blocked.
				if !p.genAllowedWithin(rj, g, backfillCooldown) {
					continue
				}
				cands = append(cands, stride.Candidate{ID: rj.j.ID, Gang: rj.j.Gang, Tickets: jt})
				passes = append(passes, &rj.s.bfPass)
				pool = append(pool, rj)
			}
		}
		if len(cands) == 0 {
			continue
		}
		for _, i := range stride.SelectPasses(stride.GangAware, cands, passes, remaining[g]) {
			schedule(pool[i], g, cands[i].Tickets, false)
		}
	}

	return Decision{Run: run, Trades: trades, Repaid: repaid}
}

// pickGen chooses the generation to fund a job from credit. Preference
// order: the job's previous generation (no migration), then the
// user's preferred generations, each requiring the job to fit,
// sufficient credit, remaining capacity, and the migration cooldown
// for generation changes.
func (p *FairPolicy) pickGen(rj *roundJob, credit fairshare.Entitlement, pref []gpu.Generation, remaining *[gpu.NumGenerations]int) (gpu.Generation, bool) {
	j := rj.j
	try := func(g gpu.Generation) bool {
		if !j.Perf.FitsOn(g) || remaining[g] < j.Gang {
			return false
		}
		if credit == nil || credit[g] < float64(j.Gang)-1e-9 {
			return false
		}
		return p.genAllowedWithin(rj, g, p.cfg.MigrationCooldown)
	}
	if rj.hasPrev && try(rj.prev) {
		return rj.prev, true
	}
	for _, g := range pref {
		if try(g) {
			return g, true
		}
	}
	return 0, false
}

// backfillCooldown is the reduced generation-change cooldown used in
// the backfill pass (see Decide).
const backfillCooldown = 2

// genAllowedWithin enforces a migration cooldown: a job may change
// generation only if it has not changed within the last cooldown
// rounds.
func (p *FairPolicy) genAllowedWithin(rj *roundJob, g gpu.Generation, cooldown int) bool {
	if !rj.hasPrev || rj.prev == g {
		return true
	}
	if p.noMigrate || p.pinned[rj.j.ID] {
		return false
	}
	return int(p.round-rj.s.lastMig) >= cooldown
}

// Executed implements Policy: charge stride pass for what actually
// ran and refund credits for capacity not consumed (unplaced jobs,
// early finishers).
func (p *FairPolicy) Executed(rep *ExecReport) {
	for _, c := range p.charges {
		s := c.s
		if s.round != c.round {
			continue // finished since, or scheduled again by a later Decide
		}
		info, ran := rep.Ran[c.id]
		if !ran {
			// Fragmentation left it unplaced: full refund.
			if c.viaCredit {
				s.owner.credit[c.gen] += float64(c.gang)
			}
			continue
		}
		res := float64(c.gang) * info.OccupiedSecs
		if c.jobTickets > 0 {
			if s.userPass.Joined() {
				s.userPass.Charge(res, c.jobTickets)
			}
			if s.bfPass.Joined() {
				s.bfPass.Charge(res, c.jobTickets)
			}
		}
	}
	p.lastCharge = len(p.charges)
	p.charges = nil
}

// JobFinished implements Policy: the job's record, passes included,
// goes.
func (p *FairPolicy) JobFinished(id job.ID) {
	if s := p.jobs[id]; s != nil {
		s.round = -1
		delete(p.jobs, id)
	}
}

// Credit exposes a user's current deficit credits (for tests and
// debugging).
func (p *FairPolicy) Credit(u job.UserID) fairshare.Entitlement {
	var c fairshare.Entitlement
	if us := p.users[u]; us != nil {
		c = us.credit
	}
	return c.Clone()
}

// groupByUser splits the runnable jobs by user, each user's in ID
// order, looking up (or creating) every job's record once. It returns
// the users sorted.
func (p *FairPolicy) groupByUser(st *RoundState) ([]job.UserID, map[job.UserID][]roundJob) {
	count := make(map[job.UserID]int)
	for _, j := range st.Jobs {
		count[j.User]++
	}
	users := make([]job.UserID, 0, len(count))
	for u := range count {
		users = append(users, u)
	}
	sort.Slice(users, func(i, k int) bool { return users[i] < users[k] })
	all := make([]roundJob, len(st.Jobs))
	byUser := make(map[job.UserID][]roundJob, len(users))
	off := 0
	for _, u := range users {
		byUser[u] = all[off : off : off+count[u]]
		off += count[u]
	}
	for _, j := range st.Jobs {
		s := p.jobs[j.ID]
		if s == nil {
			s = &jobState{}
			p.jobs[j.ID] = s
		}
		rj := roundJob{j: j, s: s}
		rj.prev, rj.hasPrev = st.PrevGen[j.ID]
		byUser[j.User] = append(byUser[j.User], rj)
	}
	return users, byUser
}

// userValues builds the trading value vectors: gang-weighted speedup
// of each generation over the oldest generation the job has an
// estimate on, across the user's runnable jobs.
func (p *FairPolicy) userValues(st *RoundState, byUser map[job.UserID][]roundJob) trade.Values {
	gens := st.Cluster.GensPresent()
	vals := make(trade.Values, len(byUser))
	for u, js := range byUser {
		var num, den [gpu.NumGenerations]float64
		for i := range js {
			j := js[i].j
			rate, n := st.Prof.Estimates(j.ID)
			base := gpu.Generation(-1)
			var baseRate float64
			for _, g := range gens {
				if n[g] > 0 && n[g] >= p.cfg.MinSamples {
					base, baseRate = g, rate[g]
					break
				}
			}
			if base < 0 || baseRate <= 0 {
				continue
			}
			w := float64(j.Gang)
			for _, g := range gens {
				if n[g] > 0 && n[g] >= p.cfg.MinSamples {
					num[g] += w * rate[g] / baseRate
					den[g] += w
				}
			}
		}
		var v [gpu.NumGenerations]float64
		any := false
		for g := range v {
			if den[g] > 0 {
				v[g] = num[g] / den[g]
				any = true
			}
		}
		if any {
			vals[u] = v
		}
	}
	return vals
}

// genPreference orders generations for a user: profiled value per GPU
// descending (run where your jobs gain most), newest first on ties.
func genPreference(vals trade.Values, u job.UserID, caps map[gpu.Generation]int) []gpu.Generation {
	gens := gensDesc(caps)
	v, ok := vals[u]
	if !ok {
		return gens
	}
	sort.SliceStable(gens, func(i, k int) bool {
		vi, vk := v[gens[i]], v[gens[k]]
		if vi != vk {
			return vi > vk
		}
		return gens[i] > gens[k]
	})
	return gens
}

// gensDesc returns the present generations newest first.
func gensDesc(caps map[gpu.Generation]int) []gpu.Generation {
	gens := make([]gpu.Generation, 0, len(caps))
	for g := range caps {
		gens = append(gens, g)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] > gens[j] })
	return gens
}
