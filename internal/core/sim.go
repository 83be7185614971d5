package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"

	"repro/internal/fairshare"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/migrate"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/placement"
	"repro/internal/profiler"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// Config drives one simulation.
type Config struct {
	Cluster *gpu.Cluster
	Specs   []job.Spec

	// Tickets per user; users missing from the map default to 1.
	Tickets map[job.UserID]float64

	// Quantum is the scheduling interval in seconds. Zero means the
	// default 360 s (minute-scale time-slicing, as in Gandiva).
	Quantum simclock.Duration

	// Costs is the suspend/resume/migration cost model. The zero
	// value means migrate.Default().
	Costs migrate.CostModel

	// DisableMigration pins previously-run jobs to their servers (the
	// no-migration ablation).
	DisableMigration bool

	// ProfilerNoise is the relative std-dev of one rate measurement;
	// ProfilerAlpha the EWMA weight. Zeros mean 0.03 and 0.25.
	ProfilerNoise float64
	ProfilerAlpha float64

	// TimelineWindow is the share-timeline bucket width; zero means
	// one hour.
	TimelineWindow simclock.Duration

	// Failures injects server outages: during [At, At+Duration) the
	// server's GPUs are unplaceable and jobs running there are
	// displaced — restarting from checkpoint elsewhere when migration
	// is allowed, waiting for the server otherwise.
	Failures []Failure

	// Faults enables the probabilistic fault model (generated server
	// crashes, flaky servers, GPU degradation, job crash-restart,
	// migration failure) plus the quarantine circuit breaker and
	// failure compensation. Declared Failures above are compiled into
	// the same schedule. Nil — the default — keeps the engine's
	// legacy behavior byte-identical; a non-nil zero Config enables
	// only the compensation accounting for declared failures.
	Faults *faults.Config

	// TicketChanges reconfigures a user's tickets at runtime (an
	// operator action the paper's ticket model supports); each change
	// applies from the first round at or after At.
	TicketChanges []TicketChange

	// Audit selects the runtime invariant auditor's mode. The zero
	// value is AuditStrict: every round is checked and the first
	// violation aborts the run. Use AuditCount for long production
	// sweeps (violations are tallied in Result.Audit instead) or
	// AuditOff to disable checking.
	Audit AuditMode

	// Obs attaches a live observer (metrics, phase profiling,
	// explained decisions). Nil — the default — disables
	// instrumentation entirely; with a fixed seed, output is
	// byte-identical either way because the observer only reads
	// engine state and never feeds anything back.
	Obs *obs.Observer

	// Flight attaches a flight recorder: the Observer feeds it one
	// snapshot per round (spans, decisions, trades, fault events,
	// shares), and Run dumps it to its file on an audit violation, any
	// other round-loop error, or a panic. Requires Obs to be set for
	// per-round capture; the failure-dump path works regardless. Like
	// Obs, it only ever reads engine state.
	Flight *flight.Recorder

	// AuditDrillRound, when positive, injects one synthetic "drill"
	// audit violation at that round (rounds count from 1). It
	// exercises the violation → flight-dump → abort path end to end
	// without corrupting any real invariant; CI uses it to assert a
	// red run leaves a parseable flight.json behind.
	AuditDrillRound int

	// TraceCap bounds the event log to the most recent TraceCap
	// events (ring semantics, oldest dropped). Zero means unlimited —
	// the historical behavior, which long sweeps may want to cap.
	TraceCap int

	// Seed feeds all randomness (profiling noise).
	Seed int64

	// Engine selects the round-loop implementation. The zero value is
	// EngineIncremental; EngineRescan keeps the legacy full-rescan
	// loop for differential testing. Both produce byte-identical
	// output for the same config and seed.
	Engine EngineMode
}

// Failure is one injected server outage.
type Failure struct {
	Server   gpu.ServerID
	At       simclock.Time
	Duration simclock.Duration
}

// TicketChange reassigns a user's tickets at a point in time.
type TicketChange struct {
	At      simclock.Time
	User    job.UserID
	Tickets float64
}

func (c Config) withDefaults() Config {
	if c.Quantum == 0 {
		c.Quantum = 360
	}
	if (c.Costs == migrate.CostModel{}) {
		c.Costs = migrate.Default()
	}
	if c.ProfilerNoise == 0 {
		c.ProfilerNoise = 0.03
	}
	if c.ProfilerAlpha == 0 {
		c.ProfilerAlpha = 0.25
	}
	if c.TimelineWindow == 0 {
		c.TimelineWindow = simclock.Hour
	}
	return c
}

// Validate checks the config.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Cluster == nil {
		return fmt.Errorf("core: nil cluster")
	}
	if len(c.Specs) == 0 {
		return fmt.Errorf("core: no jobs")
	}
	seen := make(map[job.ID]bool, len(c.Specs))
	for i := range c.Specs {
		if err := c.Specs[i].Validate(); err != nil {
			return fmt.Errorf("core: %w", err)
		}
		if seen[c.Specs[i].ID] {
			return fmt.Errorf("core: duplicate job ID %d", c.Specs[i].ID)
		}
		seen[c.Specs[i].ID] = true
		fits := false
		for _, g := range c.Cluster.GensPresent() {
			if c.Specs[i].Perf.FitsOn(g) {
				fits = true
				break
			}
		}
		if !fits {
			return fmt.Errorf("core: job %d fits no generation in the cluster", c.Specs[i].ID)
		}
		// A gang runs on devices of a single generation, so it must
		// fit within some one generation it can use — total cluster
		// size is not enough.
		placeable := false
		for _, g := range c.Cluster.GensPresent() {
			if c.Specs[i].Perf.FitsOn(g) && c.Specs[i].Gang <= c.Cluster.Capacity(g) {
				placeable = true
				break
			}
		}
		if !placeable {
			return fmt.Errorf("core: job %d gang %d exceeds every usable generation's capacity",
				c.Specs[i].ID, c.Specs[i].Gang)
		}
	}
	if c.Quantum <= 0 {
		return fmt.Errorf("core: non-positive quantum")
	}
	if err := c.Costs.Validate(); err != nil {
		return err
	}
	for u, t := range c.Tickets {
		if t < 0 {
			return fmt.Errorf("core: user %s has negative tickets", u)
		}
	}
	for _, f := range c.Failures {
		if int(f.Server) < 0 || int(f.Server) >= c.Cluster.NumServers() {
			return fmt.Errorf("core: failure names unknown server %d", f.Server)
		}
		if f.At < 0 || f.Duration <= 0 {
			return fmt.Errorf("core: failure on server %d has invalid window", f.Server)
		}
	}
	for _, tc := range c.TicketChanges {
		if tc.User == "" || tc.Tickets < 0 || tc.At < 0 {
			return fmt.Errorf("core: invalid ticket change %+v", tc)
		}
	}
	if c.Audit != AuditStrict && c.Audit != AuditCount && c.Audit != AuditOff {
		return fmt.Errorf("core: invalid audit mode %d", int(c.Audit))
	}
	if !c.Engine.valid() {
		return fmt.Errorf("core: invalid engine mode %d", int(c.Engine))
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	if c.TraceCap < 0 {
		return fmt.Errorf("core: negative TraceCap %d", c.TraceCap)
	}
	if c.AuditDrillRound < 0 {
		return fmt.Errorf("core: negative AuditDrillRound %d", c.AuditDrillRound)
	}
	return nil
}

// Result collects a finished simulation's outputs.
type Result struct {
	Policy string

	// Finished jobs, in completion order; Unfinished counts jobs
	// still incomplete at the horizon.
	Finished   []*job.Job
	Unfinished int

	// UsageByUserGen is occupied GPU-seconds per user per generation
	// (the fairness currency: time GPUs were held, including
	// overheads).
	UsageByUserGen map[job.UserID]map[gpu.Generation]float64

	// UsefulByUser is minibatch-productive gang-GPU-seconds.
	UsefulByUser map[job.UserID]float64

	// FairUsageByUser is the policy-independent fairness reference:
	// each round the engine water-fills total capacity over the
	// active users' demands by tickets and integrates the result.
	// Comparing observed usage against this accounts for churn and
	// demand caps, unlike a static equal-split ideal.
	FairUsageByUser map[job.UserID]float64

	// ThroughputByUser is total minibatches completed per user.
	ThroughputByUser map[job.UserID]float64

	Utilization metrics.Utilization
	UtilByGen   map[gpu.Generation]metrics.Utilization

	Migrations int
	TradeCount int

	// Fault-model outcomes (all zero when Config.Faults was nil).
	Crashes           int // job crash-restart events
	MigrationFailures int // failed migration attempts
	Quarantines       int // quarantine circuit-breaker trips

	// CompDeficitByUser is the failure-compensation debt still
	// outstanding at the horizon, in occupied GPU-seconds (nil when
	// the fault model was off; empty when every loss was repaid or
	// forgiven on departure).
	CompDeficitByUser map[job.UserID]float64

	// CompRepaidGPUSeconds is the total failure-compensation debt
	// repaid over the run, in occupied GPU-seconds.
	CompRepaidGPUSeconds float64

	Timeline *metrics.Timeline
	Log      *trace.Log
	Rounds   int
	End      simclock.Time

	// SLO carries the run's service-level metrics: per-user
	// finish-time fairness ρ (Themis), makespan, and JCT quantiles
	// over finished jobs.
	SLO metrics.SLO

	// PhaseTotalsSeconds is cumulative wall-clock scheduler time per
	// phase (see obs.Phase) — nil unless Config.Obs was set.
	PhaseTotalsSeconds map[string]float64

	// Audit is the invariant auditor's report for the run; nil only
	// when the config disabled auditing (AuditOff).
	Audit *AuditReport
}

// TotalUsageByUser sums occupied GPU-seconds across generations.
func (r *Result) TotalUsageByUser() map[job.UserID]float64 {
	out := make(map[job.UserID]float64, len(r.UsageByUserGen))
	for u, byGen := range r.UsageByUserGen {
		for _, g := range gpu.Generations() {
			out[u] += byGen[g]
		}
	}
	return out
}

// TotalOccupied sums occupied GPU-seconds over all users and
// generations.
func (r *Result) TotalOccupied() float64 {
	var t float64
	for _, u := range job.SortedUsers(r.UsageByUserGen) {
		byGen := r.UsageByUserGen[u]
		for _, g := range gpu.Generations() {
			t += byGen[g]
		}
	}
	return t
}

// TotalUseful sums useful (non-overhead) GPU-seconds over all users.
func (r *Result) TotalUseful() float64 {
	var t float64
	for _, u := range job.SortedUsers(r.UsefulByUser) {
		t += r.UsefulByUser[u]
	}
	return t
}

// MaxShareError returns the largest per-user deviation between the
// observed usage fraction and the fair-reference fraction — the
// scalar fairness score reported across the experiments (0 = every
// user tracked their water-filled entitlement exactly).
func (r *Result) MaxShareError() float64 {
	obs := metrics.ShareFractions(r.TotalUsageByUser())
	ideal := metrics.ShareFractions(r.FairUsageByUser)
	worst := 0.0
	for u, want := range ideal {
		if d := math.Abs(obs[u] - want); d > worst {
			worst = d
		}
	}
	return worst
}

// JCTs returns completion times of finished jobs in seconds.
func (r *Result) JCTs() []float64 {
	out := make([]float64, 0, len(r.Finished))
	for _, j := range r.Finished {
		out = append(out, j.JCT())
	}
	return out
}

// QueueDelays returns, for each finished job, the wait from arrival
// to its first quantum in seconds.
func (r *Result) QueueDelays() []float64 {
	out := make([]float64, 0, len(r.Finished))
	for _, j := range r.Finished {
		if d, ok := j.QueueDelay(); ok {
			out = append(out, d)
		}
	}
	return out
}

// Sim is the simulation engine. Create with New, run with Run.
type Sim struct {
	cfg     Config
	clock   *simclock.Clock
	policy  Policy
	prof    *profiler.Profiler
	log     *trace.Log
	tl      *metrics.Timeline
	tickets map[job.UserID]float64

	evq      *eventCursor // arrivals and ticket changes, time-ordered
	finished []*job.Job

	// The admitted, unretired jobs in ID order: activeIDs[p] is
	// activeJobs[p].ID. Both are maintained on admission and
	// retirement, and every ID-ordered walk in the round loop (crash
	// draws, RoundState.Jobs, the retirement sweep, the execute order)
	// reads them — no per-round sort or map walk. Within a round a job
	// is identified by its position p; neither slice changes between
	// Decide and retirement, so checkDecision finds each requested
	// job's position once and every later step indexes by it.
	// activeIDs repeats the IDs so those binary searches read one
	// contiguous slice instead of dereferencing every probed job.
	// RoundState.Jobs is activeJobs itself; its doc forbids policies
	// to reorder it.
	activeIDs  []job.ID
	activeJobs []*job.Job //gflint:noretain edited in place on admission and retirement

	// Incremental-engine state (nil under EngineRescan).
	incremental bool
	pidx        *placement.Index      // free-capacity index owned by placement
	idxUnavail  map[gpu.ServerID]bool // unavail set currently applied to pidx
	fairSolver  *fairshare.Solver     // dirty-set water-filler for the fairness reference

	// Per-round scratch reused across rounds (contents die at round end).
	slots     []roundSlot //gflint:noretain per-round scratch, by position
	reqPos    []int32     //gflint:noretain per-round scratch: position of each Decision.Run entry
	placedBuf []int32     //gflint:noretain per-round scratch: placed positions, ascending
	pinBuf    []job.ID    //gflint:noretain per-round scratch
	detailBuf []byte      //gflint:noretain per-job scratch for trace details

	prev    placement.Assignment
	prevGen map[job.ID]gpu.Generation

	usage      map[job.UserID]map[gpu.Generation]float64
	useful     map[job.UserID]float64
	fairUsage  map[job.UserID]float64
	mbByUser   map[job.UserID]float64
	busyByGen  map[gpu.Generation]float64
	capByGen   map[gpu.Generation]float64
	migrations int
	trades     int
	rounds     int
	aud        *auditor
	obs        *obs.Observer // nil when uninstrumented

	// Fault-model state. The timeline/sweep pair always exists (the
	// declared Failures list is compiled into it at New); everything
	// else is live only when cfg.Faults is non-nil.
	ftl      *faults.Timeline
	fsweep   *faults.Sweep
	down     map[gpu.ServerID]bool // current sampled down set
	faultsOn bool
	fcfg     faults.Config // defaults applied; valid when faultsOn
	finj     *faults.Injector
	breaker  *faults.Breaker

	migFails    map[job.ID]int           // consecutive failed migration attempts
	pinnedUntil map[job.ID]int           // migration backoff: pinned while rounds ≤ value
	lastCkpt    map[job.ID]simclock.Time // last durable checkpoint time
	compDeficit map[job.UserID]float64   // occupied GPU-seconds owed per user
	compRepaid  float64                  // total GPU-seconds repaid
	crashes     int
	migFailures int
	quarTrips   int
}

// roundSlot is one active job's state for the round in progress,
// indexed by the job's position (see Sim.activeIDs).
type roundSlot struct {
	devs      []gpu.DeviceID // devices held this round; nil when not running
	requested bool           // in Decision.Run (the duplicate check)
	placed    bool           // runs this round on devs
	migrated  bool           // moved servers this round (pays migration cost)
	migFailed bool           // this round's migration attempt failed
}

// New builds a simulation for a policy. The config is validated.
func New(cfg Config, policy Policy) (*Sim, error) {
	if policy == nil {
		return nil, fmt.Errorf("core: nil policy")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	prof, err := profiler.New(cfg.ProfilerAlpha, cfg.ProfilerNoise, cfg.Seed)
	if err != nil {
		return nil, err
	}
	s := &Sim{
		cfg:       cfg,
		clock:     simclock.New(),
		policy:    policy,
		prof:      prof,
		log:       &trace.Log{},
		tl:        metrics.NewTimeline(cfg.TimelineWindow),
		tickets:   make(map[job.UserID]float64),
		prev:      placement.Assignment{},
		prevGen:   make(map[job.ID]gpu.Generation),
		usage:     make(map[job.UserID]map[gpu.Generation]float64),
		useful:    make(map[job.UserID]float64),
		fairUsage: make(map[job.UserID]float64),
		mbByUser:  make(map[job.UserID]float64),
		busyByGen: make(map[gpu.Generation]float64),
		capByGen:  make(map[gpu.Generation]float64),
		down:      make(map[gpu.ServerID]bool),
		aud:       newAuditor(cfg.Audit, cfg.Cluster, cfg.Quantum),
		obs:       cfg.Obs,
	}
	// Satellite of the fault model: the declared failure list is
	// compiled once into sorted per-server intervals instead of being
	// rescanned every quantum (see faults.Timeline).
	s.ftl = faults.Compile(declaredOutages(cfg.Failures), nil, cfg.Cluster.NumServers())
	s.fsweep = faults.NewSweep(s.ftl)
	if cfg.Faults != nil {
		s.faultsOn = true
		s.fcfg = cfg.Faults.WithDefaults()
		s.finj = faults.NewInjector(*cfg.Faults, cfg.Quantum, cfg.Seed)
		s.breaker = faults.NewBreaker(*cfg.Faults)
		s.migFails = make(map[job.ID]int)
		s.pinnedUntil = make(map[job.ID]int)
		s.lastCkpt = make(map[job.ID]simclock.Time)
		s.compDeficit = make(map[job.UserID]float64)
	}
	if cfg.TraceCap > 0 {
		s.log.SetCap(cfg.TraceCap)
	}
	// The nil check matters: SetSink takes an interface, and wrapping
	// a typed-nil *Recorder would defeat the sink == nil fast path.
	if cfg.Flight != nil {
		cfg.Obs.SetSink(cfg.Flight)
	}
	s.evq = newEventCursor(cfg.Specs, cfg.TicketChanges)
	for i := range cfg.Specs {
		u := cfg.Specs[i].User
		if t, ok := cfg.Tickets[u]; ok {
			s.tickets[u] = t
		} else {
			s.tickets[u] = 1
		}
	}
	s.incremental = cfg.Engine == EngineIncremental
	if s.incremental {
		s.pidx = placement.NewIndex(cfg.Cluster)
		s.idxUnavail = make(map[gpu.ServerID]bool)
		s.fairSolver = fairshare.NewSolver()
		for _, u := range job.SortedUsers(s.tickets) {
			s.fairSolver.SetTickets(u, s.tickets[u])
		}
	}
	return s, nil
}

// Run simulates until the horizon or until every job finishes,
// whichever comes first, and returns the result. Run may be called
// once per Sim. With a flight recorder configured, any round-loop
// error or panic dumps the recorder's window before surfacing.
func (s *Sim) Run(until simclock.Time) (res *Result, err error) {
	if until <= 0 {
		return nil, fmt.Errorf("core: non-positive horizon")
	}
	if s.cfg.Flight != nil {
		defer func() {
			if p := recover(); p != nil {
				_ = s.cfg.Flight.Dump("panic", fmt.Sprint(p))
				panic(p)
			}
			if err != nil {
				reason := "run-error"
				var av *AuditError
				if errors.As(err, &av) {
					reason = "audit-violation"
				}
				_ = s.cfg.Flight.Dump(reason, err.Error())
			}
		}()
	}
	if err := s.materializeFaults(until); err != nil {
		return nil, err
	}
	for s.clock.Now() < until {
		if len(s.activeIDs) == 0 {
			// Fast-forward idle gaps to the next arrival, aligned to
			// the quantum grid so rounds stay comparable. Waking only
			// for arrivals is sound: with nothing active, ticket and
			// fault events are observationally idempotent until then
			// (see eventCursor).
			next, ok := s.evq.nextArrival()
			if !ok {
				break // all done
			}
			if next >= until {
				break
			}
			aligned := simclock.Time(float64(int(float64(next)/s.cfg.Quantum)) * s.cfg.Quantum)
			if aligned > s.clock.Now() {
				s.clock.RunUntil(aligned)
			}
		}
		s.obs.PhaseStart(obs.PhaseArrivals)
		s.admitArrivals()
		s.obs.PhaseEnd(obs.PhaseArrivals)
		if len(s.activeIDs) == 0 {
			// Arrival strictly inside the coming quantum: step one
			// quantum and retry.
			s.clock.RunUntil(s.clock.Now().Add(s.cfg.Quantum))
			continue
		}
		if err := s.runRound(); err != nil {
			return nil, err
		}
		s.clock.RunUntil(s.clock.Now().Add(s.cfg.Quantum))
	}
	return s.result(), nil
}

func (s *Sim) admitArrivals() {
	now := s.clock.Now()
	s.evq.popArrivalsDue(now, func(spec job.Spec) {
		j, err := job.New(spec)
		if err != nil {
			panic(fmt.Sprintf("core: validated spec rejected: %v", err)) // unreachable
		}
		p, _ := slices.BinarySearch(s.activeIDs, j.ID)
		s.activeIDs = slices.Insert(s.activeIDs, p, j.ID)
		s.activeJobs = slices.Insert(s.activeJobs, p, j)
		if s.fairSolver != nil {
			s.fairSolver.AddDemand(j.User, float64(j.Gang))
		}
		s.log.Add(spec.Arrival, trace.KindArrival, j.ID, j.User,
			fmt.Sprintf("model=%s gang=%d", spec.Perf.Model, spec.Gang))
	})
}

// runRound executes one scheduling quantum.
func (s *Sim) runRound() error {
	now := s.clock.Now()
	s.rounds++
	s.obs.BeginRound(s.rounds, float64(now))
	s.evq.popTicketsDue(now, func(tc TicketChange) {
		s.tickets[tc.User] = tc.Tickets
		if s.fairSolver != nil {
			s.fairSolver.SetTickets(tc.User, tc.Tickets)
		}
	})
	s.obs.PhaseStart(obs.PhaseFaultSweep)
	down := s.updateFaultState(now)
	quar := s.breaker.Set()
	s.obs.PhaseEnd(obs.PhaseFaultSweep)
	s.obs.SetQuarantined(s.breaker.Count())
	// Servers unusable this round: physically down or quarantined.
	unavail := down
	if len(quar) > 0 {
		unavail = make(map[gpu.ServerID]bool, len(down)+len(quar))
		for sid := range down {
			unavail[sid] = true
		}
		for sid := range quar {
			unavail[sid] = true
		}
	}

	// Job crash-restart draws, in job-ID order: the injector consumes
	// one draw per job that held GPUs last quantum, so the visiting
	// order is part of the seed contract.
	var faultLoss, roundOcc map[job.UserID]float64
	if s.faultsOn {
		faultLoss = make(map[job.UserID]float64)
		roundOcc = make(map[job.UserID]float64)
		for _, j := range s.activeJobs {
			if j.Finished() || !j.RanLastQuantum() {
				continue
			}
			if s.finj.CrashNow() {
				lost := j.Crash()
				s.crashes++
				s.log.Add(now, trace.KindJobCrash, j.ID, j.User,
					fmt.Sprintf("lostMB=%.1f crashes=%d", lost, j.Crashes()))
				s.obs.NoteFault("job-crash")
			}
		}
	}

	// The policy sees the deficit as of the round start; losses accrued
	// this round become visible (and repayable) next round.
	var decideDeficit map[job.UserID]float64
	if len(s.compDeficit) > 0 {
		decideDeficit = make(map[job.UserID]float64, len(s.compDeficit))
		for u, d := range s.compDeficit {
			decideDeficit[u] = d
		}
	}

	// Migration-failure backoff pinning, expiring lapsed entries.
	var pinned map[job.ID]bool
	if len(s.pinnedUntil) > 0 {
		pinned = make(map[job.ID]bool, len(s.pinnedUntil))
		s.pinBuf = sortedJobIDsInt(s.pinnedUntil, s.pinBuf)
		for _, id := range s.pinBuf {
			if s.rounds > s.pinnedUntil[id] {
				delete(s.pinnedUntil, id)
				continue
			}
			pinned[id] = true
		}
	}

	s.beginPositions()
	st := &RoundState{
		Now:     now,
		Quantum: s.cfg.Quantum,
		Cluster: s.cfg.Cluster,
		Jobs:    s.activeJobs,
		Tickets: s.tickets,
		Prof:    s.prof,
		PrevGen: s.prevGen,

		MigrationDisabled: s.cfg.DisableMigration,
		Down:              down,
		Quarantined:       quar,
		Pinned:            pinned,
		Deficit:           decideDeficit,
		Obs:               s.obs,
	}
	capNow := st.CapacityByGen()
	s.aud.beginRound(s.rounds, now, capNow, s.tickets)
	if s.cfg.AuditDrillRound == s.rounds && s.aud.on() {
		s.aud.violate(InvDrill, "operator-requested audit drill")
	}
	// Policy-independent fairness reference for this round,
	// water-filled over the capacity actually available (failed
	// servers excluded).
	s.obs.PhaseStart(obs.PhaseWaterfill)
	availTotal := 0.0
	for _, g := range gpu.Generations() {
		availTotal += float64(capNow[g])
	}
	var shares map[job.UserID]float64
	if s.incremental {
		// Demand was maintained exactly at admission/retirement time and
		// tickets at change-application time; only capacity can still
		// have moved. The solver re-solves only when something really
		// changed — most rounds return the memoized water-fill.
		s.fairSolver.SetCapacity(availTotal)
		shares = s.fairSolver.Shares()
	} else {
		demand := make(map[job.UserID]float64)
		for _, j := range st.Jobs {
			demand[j.User] += float64(j.Gang)
		}
		shares = fairshare.Compute(s.tickets, demand, availTotal)
	}
	var roundFair map[job.UserID]float64
	if s.faultsOn {
		roundFair = make(map[job.UserID]float64, len(shares))
	}
	for u, sh := range shares {
		s.fairUsage[u] += sh * s.cfg.Quantum
		if roundFair != nil {
			roundFair[u] = sh * s.cfg.Quantum
		}
	}
	s.obs.PhaseEnd(obs.PhaseWaterfill)

	s.obs.PhaseStart(obs.PhaseDecide)
	dec := s.policy.Decide(st)
	if err := s.checkDecision(dec, capNow); err != nil {
		return err
	}
	s.obs.PhaseEnd(obs.PhaseDecide)
	s.trades += len(dec.Trades)
	for _, tr := range dec.Trades {
		s.log.Add(now, trace.KindTrade, 0, tr.Buyer,
			fmt.Sprintf("seller=%s fast=%v slow=%v dFast=%.2f dSlow=%.2f price=%.2f",
				tr.Seller, tr.Fast, tr.Slow, tr.FastGPUs, tr.SlowGPUs, tr.Price))
		s.obs.NoteTrade(string(tr.Buyer), string(tr.Seller),
			tr.Fast.String(), tr.Slow.String(), tr.FastGPUs, tr.SlowGPUs, tr.Price)
	}

	s.obs.PhaseStart(obs.PhasePlacement)
	var res placement.Result
	if s.incremental {
		// The index carries availability as baseline state; feed it the
		// delta against last round instead of passing the full down set.
		s.syncIndexAvail(unavail)
		res = placement.PlaceIndexed(s.pidx, s.prev, dec.Run,
			placement.Options{AllowMigration: !s.cfg.DisableMigration, Pinned: pinned})
	} else {
		res = placement.Place(s.cfg.Cluster, s.prev, dec.Run,
			placement.Options{AllowMigration: !s.cfg.DisableMigration, Down: unavail, Pinned: pinned})
	}
	if err := s.markPlaced(dec, res.Assignment); err != nil {
		return err
	}
	placed := s.placedBuf
	s.obs.PhaseEnd(obs.PhasePlacement)

	s.obs.PhaseStart(obs.PhaseAudit)
	err := s.aud.checkAssignment(s.activeJobs, s.slots, placed, down, quar)
	s.obs.PhaseEnd(obs.PhaseAudit)
	if err != nil {
		return fmt.Errorf("core: round %d: %w", s.rounds, err)
	}

	// Mark this round's migrations. With the fault model on, each
	// attempt may fail — the job pays the copy cost on its reserved
	// target devices but stays put, retrying later under capped
	// exponential backoff. Draws happen in res.Migrated order, which
	// placement emits sorted, so positions are found by one merge walk.
	s.obs.PhaseStart(obs.PhaseMigrate)
	failed := false
	pos := 0
	for _, id := range res.Migrated {
		for pos < len(s.activeIDs) && s.activeIDs[pos] < id {
			pos++
		}
		if pos == len(s.activeIDs) || s.activeIDs[pos] != id || !s.slots[pos].placed {
			return fmt.Errorf("core: placement migrated unplaced job %d", id)
		}
		sl := &s.slots[pos]
		if s.finj == nil || !s.finj.MigrationFails() {
			sl.migrated = true
			delete(s.migFails, id) // no-op on the nil maps of a fault-free run
			delete(s.pinnedUntil, id)
			continue
		}
		j := s.activeJobs[pos]
		gen := s.cfg.Cluster.Device(sl.devs[0]).Gen
		gang := float64(j.Gang)
		cost := s.cfg.Costs.MigrationCost(j.Perf)
		if cost > s.cfg.Quantum {
			cost = s.cfg.Quantum
		}
		// The attempt held its reserved target devices for the
		// checkpoint copy: occupied time is charged, no progress made,
		// and the rest of the quantum is lost to the fault.
		j.AddOverhead(cost)
		s.addUsage(j.User, gen, gang*cost)
		s.busyByGen[gen] += gang * cost
		s.tl.Add(now, j.User, gang*cost)
		s.aud.noteFaultCharge(gen, gang*cost)
		roundOcc[j.User] += gang * cost
		faultLoss[j.User] += gang * (s.cfg.Quantum - cost)
		s.migFails[id]++
		s.migFailures++
		backoff := faults.Backoff(s.fcfg, s.migFails[id])
		s.pinnedUntil[id] = s.rounds + backoff
		sl.placed, sl.devs, sl.migFailed = false, nil, true
		failed = true
		res.Unplaced = append(res.Unplaced, id)
		s.log.Add(now, trace.KindMigFail, id, j.User,
			fmt.Sprintf("attempt=%d backoff=%d cost=%.0fs", s.migFails[id], backoff, cost))
		s.obs.NoteFault("migration-fail")
	}
	if failed {
		slices.Sort(res.Unplaced)
		placed = slices.DeleteFunc(placed, func(p int32) bool { return !s.slots[p].placed })
		s.placedBuf = placed
	}
	s.obs.PhaseEnd(obs.PhaseMigrate)
	s.obs.NoteUnplaced(len(res.Unplaced))

	// Execute in job-ID order, not assignment-map order: executeJob
	// consumes draws from the shared profiling RNG, so the processing
	// order decides which job sees which noise sample. Placed
	// positions ascend, and positions are in ID order.
	rep := &ExecReport{Ran: make(map[job.ID]RanInfo, len(placed)), Unplaced: res.Unplaced}
	s.obs.PhaseStart(obs.PhaseExecute)
	for _, p := range placed {
		sl := &s.slots[p]
		j := s.activeJobs[p]
		gen := s.cfg.Cluster.Device(sl.devs[0]).Gen
		if s.obs != nil {
			fromGen := ""
			if prev, ok := s.prevGen[j.ID]; ok && sl.migrated {
				fromGen = prev.String()
			}
			ints := make([]int, len(sl.devs))
			for i, d := range sl.devs {
				ints[i] = int(d)
			}
			s.obs.RecordPlacement(int64(j.ID), string(j.User), gen.String(),
				j.Gang, ints, sl.migrated, fromGen)
		}
		info := s.executeJob(j, gen, sl.devs, sl.migrated)
		rep.Ran[j.ID] = info
		s.prevGen[j.ID] = gen
		if s.faultsOn {
			roundOcc[j.User] += float64(j.Gang) * info.OccupiedSecs
		}
	}
	s.obs.PhaseEnd(obs.PhaseExecute)

	// Capacity accounting for utilization, net of failed servers.
	for g, c := range capNow {
		s.capByGen[g] += float64(c) * s.cfg.Quantum
	}

	// Quantum bookkeeping on every active job, then retire finished
	// ones. Walk jobs in ID order, not map order: retirement appends
	// finish events to the trace, and map iteration would let two jobs
	// finishing in the same round swap log positions between runs.
	retired := 0
	for p, j := range s.activeJobs {
		id := j.ID
		if j.Finished() {
			retired++
			s.finished = append(s.finished, j)
			s.log.Add(j.FinishTime(), trace.KindFinish, id, j.User,
				fmt.Sprintf("jct=%.0fs migrations=%d", j.JCT(), j.Migrations()))
			s.obs.NoteFinish()
			s.policy.JobFinished(id)
			s.prof.Remove(id)
			if s.fairSolver != nil {
				s.fairSolver.AddDemand(j.User, -float64(j.Gang))
			}
			delete(s.prev, id)
			delete(s.prevGen, id)
			if s.faultsOn {
				delete(s.migFails, id)
				delete(s.pinnedUntil, id)
				delete(s.lastCkpt, id)
			}
			continue
		}
		sl := &s.slots[p]
		ran := sl.placed
		if j.State() == job.Running && !ran {
			j.SetRunning(false)
			if s.faultsOn {
				// Suspension serializes the job (Gandiva's suspend is
				// checkpoint-based), so its progress becomes durable.
				j.NoteCheckpoint()
				s.lastCkpt[id] = now
			}
		}
		if s.faultsOn && !ran && !sl.migFailed {
			// A job stranded because its servers are down or quarantined
			// loses the whole quantum of occupied share to the fault —
			// that shortfall becomes its user's compensation debt.
			// (Failed migrations were already charged above.)
			if devs, ok := s.prev[id]; ok {
				for _, d := range devs {
					if unavail[s.cfg.Cluster.Device(d).Server] {
						faultLoss[j.User] += float64(j.Gang) * s.cfg.Quantum
						break
					}
				}
			}
		}
		if ran {
			// Next round's stability baseline is the latest placement.
			// Jobs unplaced this round keep their old one: their
			// checkpoint state lives on that server, and the
			// no-migration mode pins them to it.
			s.prev[id] = sl.devs
		}
		j.NoteQuantum(ran)
	}
	if retired > 0 {
		n := 0
		for _, j := range s.activeJobs {
			if !j.Finished() {
				s.activeIDs[n], s.activeJobs[n] = j.ID, j
				n++
			}
		}
		clear(s.activeJobs[n:])
		s.activeIDs, s.activeJobs = s.activeIDs[:n], s.activeJobs[:n]
		slices.SortFunc(s.finished, func(a, b *job.Job) int {
			if a.FinishTime() != b.FinishTime() {
				return cmp.Compare(a.FinishTime(), b.FinishTime())
			}
			return cmp.Compare(a.ID, b.ID)
		})
	}

	s.policy.Executed(rep)
	if s.faultsOn {
		// Cap each user's raw fault loss at their actual share shortfall
		// this round (fair entitlement minus occupied time). A user whose
		// other jobs soaked up their full water-filled share lost nothing
		// in the fairness currency, and compensating the per-job loss
		// anyway would push them above the reference. roundOcc holds
		// this round's occupied time, summed during execution.
		for _, u := range job.SortedUsers(faultLoss) {
			shortfall := roundFair[u] - roundOcc[u]
			if shortfall < 0 {
				shortfall = 0
			}
			if faultLoss[u] > shortfall {
				faultLoss[u] = shortfall
			}
			if faultLoss[u] <= 0 {
				delete(faultLoss, u)
			}
		}
		s.settleCompensation(faultLoss, dec.Repaid, roundFair, roundOcc)
	}
	s.obs.PhaseStart(obs.PhaseAudit)
	err = s.aud.endRound()
	s.obs.PhaseEnd(obs.PhaseAudit)
	s.publishShares()
	s.obs.EndRound(len(s.activeIDs), s.evq.pendingCount())
	return err
}

// syncIndexAvail brings the placement index's baseline availability in
// line with the round's unavailable-server set, flipping only the
// servers whose state changed since last round.
func (s *Sim) syncIndexAvail(unavail map[gpu.ServerID]bool) {
	for sid := range s.idxUnavail {
		if !unavail[sid] {
			s.pidx.SetAvail(sid, true)
			delete(s.idxUnavail, sid)
		}
	}
	for sid := range unavail {
		if !s.idxUnavail[sid] {
			s.pidx.SetAvail(sid, false)
			s.idxUnavail[sid] = true
		}
	}
}

// settleCompensation closes the round's failure-compensation books:
// repayments drain the debt, this round's fault losses add to it, the
// auditor checks the arithmetic, and users who have fully departed are
// forgiven. Gauges are refreshed last.
//
// Repayment is recognized by materialization, not by grant: when the
// policy participates in compensation (Decision.Repaid non-nil), a
// debtor's occupied time beyond their fair reference this round drains
// the debt, capped at what is owed. Grants flow through the policy's
// credit accounting and surface as excess occupancy over the following
// rounds, so recognizing the excess — rather than the grant — keeps a
// deficit alive when placement could not realize the grant
// (fragmentation, pinned jobs) and retires it exactly as fast as the
// user actually catches up.
func (s *Sim) settleCompensation(lost, repaid, fair, occ map[job.UserID]float64) {
	users := make(map[job.UserID]float64, len(s.compDeficit)+len(lost)+len(repaid))
	for u := range s.compDeficit {
		users[u] = 0
	}
	for u := range lost {
		users[u] = 0
	}
	for u := range repaid {
		users[u] = 0
	}
	if len(users) == 0 {
		return
	}
	sorted := job.SortedUsers(users)
	before := make(map[job.UserID]float64, len(sorted))
	clamped := make(map[job.UserID]float64, len(sorted))
	after := make(map[job.UserID]float64, len(sorted))
	for _, u := range sorted {
		b := s.compDeficit[u]
		before[u] = b
		var r float64
		if repaid != nil && b > 0 {
			if r = occ[u] - fair[u]; r < 0 {
				r = 0
			}
			if r > b {
				r = b
			}
		}
		clamped[u] = r
		d := b + lost[u] - r
		if d <= 1e-9 {
			d = 0
		}
		after[u] = d
		if d == 0 {
			delete(s.compDeficit, u)
		} else {
			s.compDeficit[u] = d
		}
		s.compRepaid += r
		s.obs.SetCompDeficit(string(u), d)
		s.obs.NoteRepaid(r)
	}
	s.aud.checkCompensation(sorted, before, lost, clamped, after)
	// Forgive debt of users with no jobs left in the system — there is
	// no demand to repay into, and carrying the deficit forever would
	// poison the monotone-drain invariant for reappearing user names.
	if len(s.compDeficit) == 0 {
		return
	}
	present := make(map[job.UserID]bool, len(s.activeJobs))
	for _, j := range s.activeJobs {
		present[j.User] = true
	}
	s.evq.forEachPendingUser(func(u job.UserID) { present[u] = true })
	for _, u := range job.SortedUsers(s.compDeficit) {
		if !present[u] {
			delete(s.compDeficit, u)
			s.obs.SetCompDeficit(string(u), 0)
		}
	}
}

// publishShares refreshes the per-user share gauges (observed vs
// water-filled entitlement fractions). No-op when uninstrumented.
func (s *Sim) publishShares() {
	if s.obs == nil {
		return
	}
	var usedTotal, fairTotal float64
	used := make(map[job.UserID]float64, len(s.usage))
	for u, byGen := range s.usage {
		for _, g := range gpu.Generations() {
			used[u] += byGen[g]
		}
	}
	for _, u := range job.SortedUsers(used) {
		usedTotal += used[u]
	}
	for _, u := range job.SortedUsers(s.fairUsage) {
		fairTotal += s.fairUsage[u]
	}
	for _, u := range job.SortedUsers(used) {
		uf, ff := 0.0, 0.0
		if usedTotal > 0 {
			uf = used[u] / usedTotal
		}
		if fairTotal > 0 {
			ff = s.fairUsage[u] / fairTotal
		}
		s.obs.SetShare(string(u), uf, ff)
	}
}

// executeJob charges overheads and advances one job for the quantum.
func (s *Sim) executeJob(j *job.Job, gen gpu.Generation, devs []gpu.DeviceID, migrated bool) RanInfo {
	now := s.clock.Now()
	quantum := s.cfg.Quantum

	var overhead simclock.Duration
	switch {
	case migrated:
		overhead = s.cfg.Costs.MigrationCost(j.Perf)
		j.NoteMigration()
		s.migrations++
		// "to=<gen> cost=<n>s", built without fmt on the per-job path.
		b := append(s.detailBuf[:0], "to="...)
		b = append(b, gen.String()...)
		b = append(b, " cost="...)
		b = strconv.AppendFloat(b, overhead, 'f', 0, 64)
		s.detailBuf = append(b, 's')
		s.log.Add(now, trace.KindMigration, j.ID, j.User, string(s.detailBuf))
	case !j.RanLastQuantum():
		overhead = s.cfg.Costs.ResumeCost()
	}
	if overhead > quantum {
		overhead = quantum
	}
	j.AddOverhead(overhead)

	span := placement.ServersUsed(s.cfg.Cluster, devs)
	penalty := s.cfg.Costs.SpanPenalty(span)
	// A degraded server slows the whole gang: synchronous SGD moves at
	// the slowest worker, so the effective rate is the minimum slowdown
	// factor over the servers spanned (1 when nothing is degraded).
	factor := 1.0
	for _, d := range devs {
		if f := s.fsweep.Factor(s.cfg.Cluster.Device(d).Server); f < factor {
			factor = f
		}
	}
	eff := penalty * factor
	avail := (quantum - overhead) * eff
	if lost := (quantum - overhead) * (1 - eff); lost > 0 {
		j.AddOverhead(lost)
	}

	if j.State() != job.Running {
		j.SetRunning(true)
		if !j.RanLastQuantum() && j.DoneMB() == 0 {
			s.log.Add(now, trace.KindStart, j.ID, j.User, "gen="+gen.String())
		}
	}
	j.NoteFirstRun(now)
	s.prof.ObserveOrProbe(j, gen)

	if s.faultsOn && migrated {
		// Migration serializes a checkpoint of the pre-move progress;
		// note it before advancing so a later crash rolls back to here.
		j.NoteCheckpoint()
		s.lastCkpt[j.ID] = now
	}

	used, finished := j.Advance(gen, avail, now.Add(overhead))
	// Occupied wall time: overhead plus useful time (de-scaled by the
	// span penalty and any degradation), capped at the quantum. A job
	// finishing mid-round releases its GPUs for accounting purposes.
	occupied := quantum
	if finished && eff > 0 {
		occupied = overhead + used/eff
		if occupied > quantum {
			occupied = quantum
		}
	}

	if s.faultsOn && !finished {
		// Periodic checkpointing: crash-restart loses at most
		// CheckpointSecs of progress once the first interval elapses.
		end := now.Add(quantum)
		if last, ok := s.lastCkpt[j.ID]; !ok {
			s.lastCkpt[j.ID] = now
		} else if end.Sub(last) >= s.fcfg.CheckpointSecs {
			j.NoteCheckpoint()
			s.lastCkpt[j.ID] = end
		}
	}

	gang := float64(j.Gang)
	s.addUsage(j.User, gen, gang*occupied)
	s.useful[j.User] += gang * used
	s.mbByUser[j.User] += j.GangRate(gen) * used
	s.busyByGen[gen] += gang * occupied
	s.tl.Add(now, j.User, gang*occupied)

	info := RanInfo{
		User: j.User, Gen: gen, Gang: j.Gang,
		OccupiedSecs: occupied, UsefulSecs: used,
		Migrated: migrated, Finished: finished,
	}
	s.aud.noteExec(j, gen, info)
	return info
}

func (s *Sim) addUsage(u job.UserID, g gpu.Generation, amount float64) {
	m := s.usage[u]
	if m == nil {
		m = make(map[gpu.Generation]float64)
		s.usage[u] = m
	}
	m[g] += amount
}

// declaredOutages converts the config's declared failure list into
// fault-schedule outages.
func declaredOutages(fs []Failure) []faults.Outage {
	if len(fs) == 0 {
		return nil
	}
	out := make([]faults.Outage, len(fs))
	for i, f := range fs {
		out[i] = faults.Outage{Server: f.Server, At: f.At, Duration: f.Duration, Kind: faults.OutageDeclared}
	}
	return out
}

// materializeFaults generates the probabilistic fault schedule for the
// run's horizon (if configured) and recompiles the timeline with the
// declared failures merged in. Called once at the top of Run.
func (s *Sim) materializeFaults(until simclock.Time) error {
	if !s.faultsOn {
		return nil
	}
	if s.fcfg.ServerMTBFHours == 0 && s.fcfg.FlakyServers == 0 && s.fcfg.DegradeMTBFHours == 0 {
		return nil // nothing probabilistic on the server timeline
	}
	// Exponential schedules are generated eagerly, so bound the horizon
	// against pathological callers (e.g. near-Forever).
	horizon := until
	if max := simclock.Time(365 * simclock.Day); horizon > max {
		horizon = max
	}
	sched, err := faults.Generate(*s.cfg.Faults, s.cfg.Cluster.NumServers(), horizon, s.cfg.Seed)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	outages := append(declaredOutages(s.cfg.Failures), sched.Outages...)
	s.ftl = faults.Compile(outages, sched.Degradations, s.cfg.Cluster.NumServers())
	s.fsweep = faults.NewSweep(s.ftl)
	return nil
}

// updateFaultState advances the compiled fault timeline to now,
// maintains the sampled down set incrementally, feeds the quarantine
// breaker, and logs every transition. It returns the round's down set
// (a copy — RoundState and placement must not alias mutable state).
func (s *Sim) updateFaultState(now simclock.Time) map[gpu.ServerID]bool {
	// Release expired quarantines before noting new failures so a
	// server can be re-observed the round it is freed.
	for _, sid := range s.breaker.ExpireStep(now) {
		s.log.Add(now, trace.KindUnquarantine, 0, "", fmt.Sprintf("server=%d", sid))
	}
	for _, tr := range s.fsweep.Advance(now) {
		if tr.Slow {
			if tr.Factor < 1 {
				s.log.Add(now, trace.KindDegrade, 0, "", fmt.Sprintf("server=%d factor=%.2f", tr.Server, tr.Factor))
				s.obs.NoteFault("degrade")
			} else {
				s.log.Add(now, trace.KindDegradeEnd, 0, "", fmt.Sprintf("server=%d", tr.Server))
			}
			continue
		}
		if tr.Down {
			s.down[tr.Server] = true
			s.log.Add(now, trace.KindFailure, 0, "", fmt.Sprintf("server=%d", tr.Server))
			s.obs.NoteFault("server-down")
			if s.breaker.NoteFailure(tr.Server, now) {
				s.quarTrips++
				s.log.Add(now, trace.KindQuarantine, 0, "", fmt.Sprintf("server=%d", tr.Server))
				s.obs.NoteFault("quarantine")
			}
		} else {
			delete(s.down, tr.Server)
			s.log.Add(now, trace.KindRecovery, 0, "", fmt.Sprintf("server=%d", tr.Server))
		}
	}
	down := make(map[gpu.ServerID]bool, len(s.down))
	for sid := range s.down {
		down[sid] = true
	}
	return down
}

// sortedJobIDsInt collects m's keys sorted ascending into buf
// (reused; contents overwritten).
func sortedJobIDsInt(m map[job.ID]int, buf []job.ID) []job.ID {
	ids := buf[:0]
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// beginPositions gives the round one cleared roundSlot per active
// job position.
func (s *Sim) beginPositions() {
	// Clear the whole backing array so device slices of jobs retired
	// since a larger round are not kept reachable.
	clear(s.slots[:cap(s.slots)])
	s.slots = slices.Grow(s.slots[:0], len(s.activeJobs))[:len(s.activeJobs)]
}

// checkDecision enforces the policy contract: known runnable jobs,
// no duplicates, per-generation gang totals within capacity, and
// every job placed on a generation it fits. It records each request's
// position in reqPos for the rest of the round. Errors are
// deterministic: the first bad request in Run order, or the lowest
// overcommitted generation.
func (s *Sim) checkDecision(dec Decision, caps map[gpu.Generation]int) error {
	s.reqPos = s.reqPos[:0]
	var width [gpu.NumGenerations]int
	for _, r := range dec.Run {
		if r.Job == nil {
			return fmt.Errorf("core: policy returned nil job")
		}
		pos, ok := slices.BinarySearch(s.activeIDs, r.Job.ID)
		if !ok || s.activeJobs[pos] != r.Job {
			return fmt.Errorf("core: policy scheduled unknown job %d", r.Job.ID)
		}
		if s.slots[pos].requested {
			return fmt.Errorf("core: policy scheduled job %d twice", r.Job.ID)
		}
		s.slots[pos].requested = true
		if !r.Job.Perf.FitsOn(r.Gen) {
			return fmt.Errorf("core: policy put job %d on unusable generation %v", r.Job.ID, r.Gen)
		}
		width[r.Gen] += r.Job.Gang
		s.reqPos = append(s.reqPos, int32(pos))
	}
	for g, w := range width {
		if c := caps[gpu.Generation(g)]; w > c {
			return fmt.Errorf("core: policy overcommitted %v: %d > %d", gpu.Generation(g), w, c)
		}
	}
	return nil
}

// markPlaced marks every job in the placement as placed, holding its
// devices, and lists the placed positions in ascending order in
// placedBuf. Placement assigns only requested jobs, so each request's
// position (from checkDecision) is looked up once in the assignment.
func (s *Sim) markPlaced(dec Decision, asg placement.Assignment) error {
	found := 0
	for i, r := range dec.Run {
		if devs, ok := asg[r.Job.ID]; ok {
			sl := &s.slots[s.reqPos[i]]
			sl.placed, sl.devs = true, devs
			found++
		}
	}
	if found != len(asg) {
		// Some placed job was not requested; name the lowest one.
		stray := job.ID(math.MaxInt64)
		for id := range asg {
			if pos, ok := slices.BinarySearch(s.activeIDs, id); (!ok || !s.slots[pos].requested) && id < stray {
				stray = id
			}
		}
		return fmt.Errorf("core: placement returned unrequested job %d", stray)
	}
	placed := s.placedBuf[:0]
	for pos := range s.slots {
		if s.slots[pos].placed {
			placed = append(placed, int32(pos))
		}
	}
	s.placedBuf = placed
	return nil
}

// resultDeficit snapshots the outstanding compensation debt (nil when
// the fault model is off, so legacy results are unchanged).
func (s *Sim) resultDeficit() map[job.UserID]float64 {
	if !s.faultsOn {
		return nil
	}
	out := make(map[job.UserID]float64, len(s.compDeficit))
	for u, d := range s.compDeficit {
		out[u] = d
	}
	return out
}

// computeSLO derives the run's fairness SLO bundle. A job's
// standalone reference is its exclusive runtime on the fastest
// generation present in the cluster that it can use; Themis's N is
// the number of users the run was configured with.
func (s *Sim) computeSLO() metrics.SLO {
	runs := make([]metrics.JobRun, 0, len(s.finished))
	for _, j := range s.finished {
		best := math.Inf(1)
		for _, g := range s.cfg.Cluster.GensPresent() {
			if !j.Perf.FitsOn(g) {
				continue
			}
			if st := j.StandaloneTime(g); st < best {
				best = st
			}
		}
		runs = append(runs, metrics.JobRun{
			User: string(j.User), JCT: j.JCT(),
			Finish: float64(j.FinishTime()), Standalone: best,
		})
	}
	return metrics.ComputeSLO(runs, len(s.tickets))
}

func (s *Sim) result() *Result {
	var busy, capTotal float64
	utilByGen := make(map[gpu.Generation]metrics.Utilization, len(s.capByGen))
	for _, g := range gpu.Generations() {
		c, ok := s.capByGen[g]
		if !ok {
			continue
		}
		b := s.busyByGen[g]
		utilByGen[g] = metrics.Utilization{BusyGPUSeconds: b, CapacityGPUSeconds: c}
		busy += b
		capTotal += c
	}
	slo := s.computeSLO()
	if s.obs != nil {
		s.obs.SetSLO(slo.RhoByUser, map[string]float64{
			"0.5": slo.JCT.Median, "0.95": slo.JCT.P95, "0.99": slo.JCT.P99,
		}, slo.MakespanSeconds)
	}
	return &Result{
		Policy:               s.policy.Name(),
		Finished:             s.finished,
		Unfinished:           len(s.activeIDs) + s.evq.pendingCount(),
		UsageByUserGen:       s.usage,
		UsefulByUser:         s.useful,
		FairUsageByUser:      s.fairUsage,
		ThroughputByUser:     s.mbByUser,
		Utilization:          metrics.Utilization{BusyGPUSeconds: busy, CapacityGPUSeconds: capTotal},
		UtilByGen:            utilByGen,
		Migrations:           s.migrations,
		TradeCount:           s.trades,
		Crashes:              s.crashes,
		MigrationFailures:    s.migFailures,
		Quarantines:          s.quarTrips,
		CompDeficitByUser:    s.resultDeficit(),
		CompRepaidGPUSeconds: s.compRepaid,
		Timeline:             s.tl,
		Log:                  s.log,
		Rounds:               s.rounds,
		End:                  s.clock.Now(),
		SLO:                  slo,
		Audit:                s.aud.report(),
		PhaseTotalsSeconds:   s.obs.PhaseTotals(),
	}
}
