package main

import (
	"fmt"
	"strings"

	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/workload"
)

// spec is one named workload: the cluster, the generated job trace
// and the run settings. Only the generated job.Specs reach the
// program; the seed feeds workload.Generate alone.
type spec struct {
	name string
	why  string

	gpusPerServer  int
	serversPerGen  int
	users          int
	jobsPerUser    int
	arrivalPerHour float64 // per user; 0 = everyone arrives at t=0
	meanK80Hours   float64
	modelsPerUser  int // 0 = the whole zoo

	faults  *faults.Config // nil = no fault model
	observe bool           // attach Observer + span tracer + flight recorder
	distrib bool           // run on distrib.Central + agents over comm.Hub

	rounds int // scheduling rounds per pass (fixed, so outcomes are per seed)
}

var workloads = []*spec{
	{
		name: "loaded-10k",
		why:  "demand ~2x capacity: per-job policy work (stride order, credits, trading) and placement at full occupancy dominate",

		gpusPerServer: 4, serversPerGen: 625,
		users: 16, jobsPerUser: 600, meanK80Hours: 1000, modelsPerUser: 2,
		rounds: 200,
	},
	{
		name: "churn-1k",
		why:  "Poisson arrivals plus faults: rounds admit, retire, re-solve the water-fill and settle compensation; observability stack on",

		gpusPerServer: 4, serversPerGen: 64,
		users: 32, jobsPerUser: 605, arrivalPerHour: 3.6, meanK80Hours: 4,
		faults: &faults.Config{
			ServerMTBFHours:        200,
			ServerOutageMeanHours:  1,
			FlakyServers:           4,
			FlakyMTBFHours:         2,
			FlakyOutageMinutes:     10,
			DegradeMTBFHours:       100,
			DegradeFactor:          0.6,
			DegradeMeanHours:       2,
			JobCrashMTBFHours:      24,
			MigrationFailProb:      0.1,
			QuarantineFailures:     3,
			QuarantineWindowHours:  2,
			QuarantineCooloffHours: 4,
		},
		observe: true,
		rounds:  1680, // one simulated week at the 360 s quantum
	},
	{
		name: "distrib-hub-128",
		why:  "central + 128 agents over the in-process hub: comm sealing/dedup/retry and distrib's own plan/collect/apply loop",

		gpusPerServer: 8, serversPerGen: 32,
		// Shorter jobs than loaded-10k: at 4.6x oversubscription 48 h
		// jobs would not finish within the pass, leaving jct_p50_h and
		// rho_max undefined; demand still exceeds capacity throughout.
		users: 16, jobsPerUser: 128, meanK80Hours: 100, modelsPerUser: 2,
		distrib: true,
		rounds:  200,
	},
}

func lookup(name string) (*spec, error) {
	names := make([]string, 0, len(workloads))
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s, or all)", name, strings.Join(names, ", "))
}

func (w *spec) numGPUs() int {
	return len(gpu.Generations()) * w.serversPerGen * w.gpusPerServer
}

func (w *spec) numServers() int { return len(gpu.Generations()) * w.serversPerGen }

func (w *spec) clusterSpecs() []gpu.Spec {
	out := make([]gpu.Spec, 0, len(gpu.Generations()))
	for _, g := range gpu.Generations() {
		out = append(out, gpu.Spec{Gen: g, Servers: w.serversPerGen, GPUsPerSrv: w.gpusPerServer})
	}
	return out
}

func userName(i int) job.UserID { return job.UserID(fmt.Sprintf("u%02d", i)) }

// generate builds the job trace. User i is restricted to a fixed
// window of the zoo, so which users gain from trading is part of the
// workload, not of the seed.
func (w *spec) generate(seed int64) ([]job.Spec, error) {
	zoo := workload.DefaultZoo()
	names := zoo.Names()
	cfg := workload.Config{Seed: seed}
	for i := 0; i < w.users; i++ {
		u := workload.UserSpec{
			User:               userName(i),
			NumJobs:            w.jobsPerUser,
			ArrivalRatePerHour: w.arrivalPerHour,
			MeanK80Hours:       w.meanK80Hours,
		}
		for k := 0; k < w.modelsPerUser; k++ {
			u.Models = append(u.Models, names[(i*w.modelsPerUser+k)%len(names)])
		}
		cfg.Users = append(cfg.Users, u)
	}
	return workload.Generate(zoo, cfg)
}

// inputs renders the set-up inputs printed beside every metric table,
// so numbers from different seeds or sizes are never mixed up.
func (w *spec) inputs(seed int64) string {
	arr := "all at t=0"
	if w.arrivalPerHour > 0 {
		arr = fmt.Sprintf("poisson %.1f/h/user", w.arrivalPerHour)
	}
	runtime := "engine=incremental"
	if w.distrib {
		runtime = fmt.Sprintf("distrib agents=%d transport=hub", w.numServers())
	}
	fs := "none"
	if f := w.faults; f != nil {
		fs = fmt.Sprintf("serverMTBF=%gh outage=%gh flaky=%d(mtbf %gh, %gmin) degrade=%gh x%g jobCrashMTBF=%gh migFail=%g quarantine=%d/%gh cooloff=%gh",
			f.ServerMTBFHours, f.ServerOutageMeanHours, f.FlakyServers, f.FlakyMTBFHours, f.FlakyOutageMinutes,
			f.DegradeMTBFHours, f.DegradeFactor, f.JobCrashMTBFHours, f.MigrationFailProb,
			f.QuarantineFailures, f.QuarantineWindowHours, f.QuarantineCooloffHours)
	}
	obsOn := "off"
	if w.observe {
		obsOn = "observer+spans+flight"
	}
	return fmt.Sprintf("seed=%d gpus=%d servers=%dx%d-GPU(%d per gen) users=%d jobs=%d (%d/user, %s, meanK80h=%g, models/user=%d) policy=gandiva-fair+trading %s rounds/pass=%d quantum=360s faults=%s obs=%s",
		seed, w.numGPUs(), w.numServers(), w.gpusPerServer, w.serversPerGen, w.users, w.users*w.jobsPerUser,
		w.jobsPerUser, arr, w.meanK80Hours, w.modelsPerUser, runtime, w.rounds, fs, obsOn)
}
