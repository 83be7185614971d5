package core

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// Golden canonical digests captured from the pre-incremental (full
// rescan) engine. They pin the byte-identity contract across the
// event-driven rework: iteration order over jobs and users — and
// therefore shared profiler-RNG consumption, float accumulation
// order, and trace-event order — must not change. If one of these
// assertions fires, the engine's deterministic output changed; that
// is a correctness regression, not a test to update casually.
//
// Both engine modes are asserted against the SAME golden: the
// incremental engine's whole point is byte-identical output.
const (
	goldenChurnDigest  = "d12f3ac598033a27647f5e3233ba8c54eec1e1400ff9d22a1bc4f065736b7cb2"
	goldenFaultyDigest = "3a74983626660aba115e722bd53c4960e6db2aa3017321b52d7edf251da19325"
	goldenLoadedDigest = "9ba5885970034c6602f5cada37e59a16fd63a6675438ad18eb2657a51ebe4eb4"
)

// goldenCluster builds the small heterogeneous cluster the golden
// scenarios run on: 5 K80 servers and 4 V100 servers, 4 GPUs each.
func goldenCluster(t *testing.T) *gpu.Cluster {
	t.Helper()
	c, err := gpu.New(
		gpu.Spec{Gen: gpu.K80, Servers: 5, GPUsPerSrv: 4},
		gpu.Spec{Gen: gpu.V100, Servers: 4, GPUsPerSrv: 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// goldenSpecs generates a churny workload: staggered Poisson
// arrivals, finite jobs (finishes and departures), three users.
func goldenSpecs(t *testing.T, seed int64) []job.Spec {
	t.Helper()
	zoo := workload.DefaultZoo()
	names := zoo.Names()
	specs, err := workload.Generate(zoo, workload.Config{
		Seed: seed,
		Users: []workload.UserSpec{
			{User: "alice", NumJobs: 8, ArrivalRatePerHour: 2, MeanK80Hours: 1.5, Models: names[:2]},
			{User: "bob", NumJobs: 6, ArrivalRatePerHour: 1, MeanK80Hours: 2, Models: names[2:4]},
			{User: "carol", NumJobs: 5, ArrivalRatePerHour: 0.5, MeanK80Hours: 1, Models: names[1:3]},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

func goldenChurnConfig(t *testing.T, engine EngineMode) Config {
	return Config{
		Cluster: goldenCluster(t),
		Specs:   goldenSpecs(t, 1234),
		Tickets: map[job.UserID]float64{"alice": 2, "bob": 1, "carol": 1},
		Quantum: 360,
		TicketChanges: []TicketChange{
			{User: "bob", At: simclock.Time(4 * simclock.Hour), Tickets: 3},
			{User: "alice", At: simclock.Time(8 * simclock.Hour), Tickets: 0.5},
		},
		Engine: engine,
		Seed:   1234,
	}
}

func goldenFaultyConfig(t *testing.T, engine EngineMode) Config {
	return Config{
		Cluster: goldenCluster(t),
		Specs:   goldenSpecs(t, 99),
		Quantum: 360,
		Failures: []Failure{
			{Server: 1, At: simclock.Time(2 * simclock.Hour), Duration: 2 * simclock.Hour},
		},
		Faults: &faults.Config{
			ServerMTBFHours:        40,
			ServerOutageMeanHours:  0.5,
			FlakyServers:           1,
			FlakyMTBFHours:         2,
			FlakyOutageMinutes:     10,
			DegradeMTBFHours:       20,
			DegradeFactor:          0.6,
			DegradeMeanHours:       1,
			JobCrashMTBFHours:      8,
			MigrationFailProb:      0.3,
			QuarantineFailures:     3,
			QuarantineWindowHours:  2,
			QuarantineCooloffHours: 2,
		},
		Engine: engine,
		Seed:   99,
	}
}

// Loaded golden scenario: every job arrives at t=0 and demand stays
// far above capacity, so each round walks a deep per-user stride
// order, spends credits across generations, trades and backfills.
const (
	loadedJobsPerUser = 60
	loadedHours       = 12 // 120 rounds at the 360 s quantum
)

// goldenLoadedConfig is a busy 64-GPU cluster (4 servers × 4 GPUs of
// each generation) under 3 batch users with 60 long jobs each.
func goldenLoadedConfig(t *testing.T, engine EngineMode) Config {
	t.Helper()
	var specs []gpu.Spec
	for _, g := range gpu.Generations() {
		specs = append(specs, gpu.Spec{Gen: g, Servers: 4, GPUsPerSrv: 4})
	}
	c, err := gpu.New(specs...)
	if err != nil {
		t.Fatal(err)
	}
	zoo := workload.DefaultZoo()
	names := zoo.Names()
	wc := workload.Config{Seed: 4242}
	for i, u := range []job.UserID{"a", "b", "c"} {
		wc.Users = append(wc.Users, workload.UserSpec{
			User:         u,
			NumJobs:      loadedJobsPerUser,
			MeanK80Hours: 1000, // the generator's 48 h cap binds: jobs outlive the run
			Models:       []string{names[(2*i)%len(names)], names[(2*i+1)%len(names)]},
		})
	}
	jobs, err := workload.Generate(zoo, wc)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Cluster: c,
		Specs:   jobs,
		Tickets: map[job.UserID]float64{"a": 1, "b": 2, "c": 1},
		Quantum: 360,
		Engine:  engine,
		Seed:    4242,
	}
}

// roundCounter counts Decide calls of the policy it wraps.
type roundCounter struct {
	Policy
	rounds int
}

func (r *roundCounter) Decide(st *RoundState) Decision {
	r.rounds++
	return r.Policy.Decide(st)
}

func runGoldenFor(t *testing.T, cfg Config, trading bool, horizon simclock.Duration) (digest string, rounds int) {
	t.Helper()
	pol := &roundCounter{Policy: MustNewFairPolicy(FairConfig{EnableTrading: trading})}
	sim, err := New(cfg, pol)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(simclock.Time(horizon))
	if err != nil {
		t.Fatal(err)
	}
	return CanonicalDigest(res), pol.rounds
}

func runGolden(t *testing.T, cfg Config, trading bool) string {
	t.Helper()
	d, _ := runGoldenFor(t, cfg, trading, 16*simclock.Hour)
	return d
}

func TestGoldenDigestChurn(t *testing.T) {
	for _, mode := range []EngineMode{EngineIncremental, EngineRescan} {
		if got := runGolden(t, goldenChurnConfig(t, mode), true); got != goldenChurnDigest {
			t.Errorf("engine=%v churn digest = %s, want %s", mode, got, goldenChurnDigest)
		}
	}
}

func TestGoldenDigestFaulty(t *testing.T) {
	for _, mode := range []EngineMode{EngineIncremental, EngineRescan} {
		if got := runGolden(t, goldenFaultyConfig(t, mode), false); got != goldenFaultyDigest {
			t.Errorf("engine=%v faulty digest = %s, want %s", mode, got, goldenFaultyDigest)
		}
	}
}

func TestGoldenDigestLoaded(t *testing.T) {
	cfg := goldenLoadedConfig(t, EngineIncremental)
	demand, perUser := 0, map[job.UserID]int{}
	for _, s := range cfg.Specs {
		if s.Arrival != 0 {
			t.Fatalf("job %d arrives at %v, want every job at t=0", s.ID, s.Arrival)
		}
		demand += s.Gang
		perUser[s.User]++
	}
	if capacity := cfg.Cluster.NumDevices(); demand < 2*capacity {
		t.Fatalf("demand %d GPUs, want at least twice capacity %d", demand, capacity)
	}
	for u, n := range perUser {
		if n < 50 {
			t.Fatalf("user %s has %d jobs, want at least 50", u, n)
		}
	}
	for _, mode := range []EngineMode{EngineIncremental, EngineRescan} {
		got, rounds := runGoldenFor(t, goldenLoadedConfig(t, mode), true, loadedHours*simclock.Hour)
		if rounds < 100 {
			t.Errorf("engine=%v ran %d rounds, want at least 100", mode, rounds)
		}
		if got != goldenLoadedDigest {
			t.Errorf("engine=%v loaded digest = %s, want %s", mode, got, goldenLoadedDigest)
		}
	}
}
