package profiler

import (
	"math"
	"testing"

	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/workload"
)

func testJob(model string, id job.ID) *job.Job {
	z := workload.DefaultZoo()
	return job.MustNew(job.Spec{
		ID: id, User: "u", Perf: z.MustGet(model), Gang: 2, TotalMB: 1e6,
	})
}

func TestNewValidation(t *testing.T) {
	for _, bad := range []struct{ a, n float64 }{{0, 0.1}, {-1, 0.1}, {1.5, 0.1}, {0.3, -0.1}} {
		if _, err := New(bad.a, bad.n, 1); err == nil {
			t.Errorf("New(%v, %v) accepted", bad.a, bad.n)
		}
	}
	if _, err := New(0.3, 0.05, 1); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
}

func TestObserveNoiseless(t *testing.T) {
	p := MustNew(0.3, 0, 1)
	j := testJob("resnet50", 1)
	p.Observe(j, gpu.V100)
	r, ok := p.Rate(1, gpu.V100)
	if !ok {
		t.Fatal("no estimate after Observe")
	}
	if math.Abs(r-j.Perf.RatePerGPU[gpu.V100]) > 1e-12 {
		t.Fatalf("noiseless estimate %v, want truth %v", r, j.Perf.RatePerGPU[gpu.V100])
	}
	if p.Samples(1, gpu.V100) != 1 {
		t.Fatalf("Samples = %d", p.Samples(1, gpu.V100))
	}
}

func TestUnknownQueries(t *testing.T) {
	p := MustNew(0.3, 0, 1)
	if _, ok := p.Rate(99, gpu.K80); ok {
		t.Error("Rate for unknown job ok=true")
	}
	if p.Known(99, gpu.K80) {
		t.Error("Known for unknown job")
	}
	j := testJob("vae", 1)
	p.Observe(j, gpu.K80)
	if _, ok := p.Rate(1, gpu.V100); ok {
		t.Error("Rate for unobserved generation ok=true")
	}
	if _, ok := p.Rate(1, gpu.Generation(44)); ok {
		t.Error("Rate for invalid generation ok=true")
	}
	if _, ok := p.Speedup(1, gpu.V100, gpu.K80); ok {
		t.Error("Speedup with one side missing ok=true")
	}
}

func TestEWMAConvergesUnderNoise(t *testing.T) {
	p := MustNew(0.2, 0.05, 7)
	j := testJob("transformer", 3)
	for i := 0; i < 300; i++ {
		p.Observe(j, gpu.V100)
	}
	r, _ := p.Rate(3, gpu.V100)
	truth := j.Perf.RatePerGPU[gpu.V100]
	if math.Abs(r-truth)/truth > 0.05 {
		t.Fatalf("EWMA estimate %v vs truth %v: error > 5%%", r, truth)
	}
}

func TestProbeAllAndSpeedup(t *testing.T) {
	p := MustNew(0.3, 0, 1)
	j := testJob("resnext50", 5)
	p.ProbeAll(j)
	for _, g := range gpu.Generations() {
		if !p.Known(5, g) {
			t.Errorf("generation %v not probed", g)
		}
	}
	s, ok := p.Speedup(5, gpu.V100, gpu.K80)
	if !ok {
		t.Fatal("Speedup not available after ProbeAll")
	}
	want := j.Perf.Speedup(gpu.V100, gpu.K80)
	if math.Abs(s-want) > 1e-9 {
		t.Fatalf("Speedup = %v, want %v", s, want)
	}
}

func TestProbeAllSkipsUnusableGenerations(t *testing.T) {
	perf := &job.Perf{Model: "bigmem", ScalingEff: 0.9, MemGBPerGPU: 20, CheckpointMB: 10}
	perf.RatePerGPU = [gpu.NumGenerations]float64{1, 1, 1, 1} // but only P40 has 24 GB
	j := job.MustNew(job.Spec{ID: 6, User: "u", Perf: perf, Gang: 1, TotalMB: 10})
	p := MustNew(0.3, 0, 1)
	p.ProbeAll(j)
	if !p.Known(6, gpu.P40) {
		t.Error("P40 not probed")
	}
	if p.Known(6, gpu.V100) {
		t.Error("V100 probed despite memory misfit")
	}
}

func TestObserveUnusablePanics(t *testing.T) {
	perf := &job.Perf{Model: "k80only", ScalingEff: 1, CheckpointMB: 1}
	perf.RatePerGPU[gpu.K80] = 5
	j := job.MustNew(job.Spec{ID: 7, User: "u", Perf: perf, Gang: 1, TotalMB: 10})
	p := MustNew(0.3, 0, 1)
	defer func() {
		if recover() == nil {
			t.Error("Observe on unusable generation did not panic")
		}
	}()
	p.Observe(j, gpu.V100)
}

func TestUserSpeedupWeighting(t *testing.T) {
	z := workload.DefaultZoo()
	p := MustNew(0.3, 0, 1)
	// vae (low V100 speedup ≈1.22) gang 1; resnext50 (≈4.46) gang 3.
	j1 := job.MustNew(job.Spec{ID: 1, User: "u", Perf: z.MustGet("vae"), Gang: 1, TotalMB: 10})
	j2 := job.MustNew(job.Spec{ID: 2, User: "u", Perf: z.MustGet("resnext50"), Gang: 3, TotalMB: 10})
	p.ProbeAll(j1)
	p.ProbeAll(j2)
	s, ok := p.UserSpeedup([]*job.Job{j1, j2}, gpu.V100, gpu.K80)
	if !ok {
		t.Fatal("UserSpeedup unavailable")
	}
	s1 := j1.Perf.Speedup(gpu.V100, gpu.K80)
	s2 := j2.Perf.Speedup(gpu.V100, gpu.K80)
	want := (1*s1 + 3*s2) / 4
	if math.Abs(s-want) > 1e-9 {
		t.Fatalf("UserSpeedup = %v, want gang-weighted %v", s, want)
	}
	// No observations → not ok.
	j3 := job.MustNew(job.Spec{ID: 3, User: "u", Perf: z.MustGet("lstm"), Gang: 1, TotalMB: 10})
	if _, ok := p.UserSpeedup([]*job.Job{j3}, gpu.V100, gpu.K80); ok {
		t.Error("UserSpeedup ok with no observed jobs")
	}
	if _, ok := p.UserSpeedup(nil, gpu.V100, gpu.K80); ok {
		t.Error("UserSpeedup ok with no jobs")
	}
}

func TestRemove(t *testing.T) {
	p := MustNew(0.3, 0, 1)
	j := testJob("gru", 8)
	p.Observe(j, gpu.K80)
	if p.Len() != 1 {
		t.Fatalf("Len = %d", p.Len())
	}
	p.Remove(8)
	if p.Len() != 0 || p.Known(8, gpu.K80) {
		t.Error("Remove did not clear the record")
	}
	p.Remove(8) // no-op
}

func TestDeterminism(t *testing.T) {
	run := func() float64 {
		p := MustNew(0.2, 0.1, 99)
		j := testJob("dcgan", 4)
		for i := 0; i < 50; i++ {
			p.Observe(j, gpu.P100)
		}
		r, _ := p.Rate(4, gpu.P100)
		return r
	}
	if run() != run() {
		t.Error("same seed produced different estimates")
	}
}

// TestObserveOrProbeMatchesTwoCalls drives two profilers with the same
// seed: one through ObserveOrProbe, the other through the two calls it
// replaces. Estimates and the noise stream must stay identical.
func TestObserveOrProbeMatchesTwoCalls(t *testing.T) {
	one, two := MustNew(0.25, 0.05, 7), MustNew(0.25, 0.05, 7)
	jobs := []*job.Job{testJob("resnet50", 1), testJob("vae", 2), testJob("dcgan", 3)}
	gens := []gpu.Generation{gpu.K80, gpu.V100, gpu.P100, gpu.K80, gpu.P40, gpu.V100}
	for step := 0; step < 60; step++ {
		j := jobs[step%len(jobs)]
		g := gens[(step/len(jobs)+int(j.ID))%len(gens)]
		if !j.Perf.FitsOn(g) {
			continue
		}
		one.ObserveOrProbe(j, g)
		if two.Samples(j.ID, g) == 0 {
			two.ProbeAll(j)
		} else {
			two.Observe(j, g)
		}
		if step == 30 {
			one.Remove(2)
			two.Remove(2)
		}
	}
	for _, j := range jobs {
		r1, s1 := one.Estimates(j.ID)
		r2, s2 := two.Estimates(j.ID)
		if r1 != r2 || s1 != s2 {
			t.Fatalf("job %d: ObserveOrProbe %v %v, two calls %v %v", j.ID, r1, s1, r2, s2)
		}
	}
	if a, b := one.rng.Float64(), two.rng.Float64(); a != b {
		t.Fatalf("noise streams diverged: %v vs %v", a, b)
	}
}
