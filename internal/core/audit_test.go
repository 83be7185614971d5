package core

import (
	"math"
	"testing"

	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/placement"
	"repro/internal/workload"
)

// mkAuditor builds a strict auditor over a small cluster with one
// active gang-1 job, returning both plus the job's device assignment.
func mkAuditor(t *testing.T) (*auditor, []*job.Job, []gpu.DeviceID) {
	t.Helper()
	cl := gpu.MustNew(gpu.Spec{Gen: gpu.K80, Servers: 2, GPUsPerSrv: 2})
	specs := workload.BatchJobs("u", workload.DefaultZoo().MustGet("vae"), 1, 1, 1)
	specs, _ = workload.AssignIDs(specs)
	j, err := job.New(specs[0])
	if err != nil {
		t.Fatal(err)
	}
	a := newAuditor(AuditStrict, cl, 360)
	a.beginRound(1, 0, map[gpu.Generation]int{gpu.K80: 4}, nil)
	return a, []*job.Job{j}, cl.Server(0).Devices
}

func TestAuditQuarantineInvariant(t *testing.T) {
	a, jobs, devs := mkAuditor(t)
	slots := []roundSlot{{devs: devs[:1], placed: true}}
	check := func(down, quarantined map[gpu.ServerID]bool) {
		t.Helper()
		if err := a.checkAssignment(jobs, slots, []int32{0}, down, quarantined); err != nil {
			t.Fatal(err)
		}
	}

	// Placement on a healthy, unquarantined server is clean.
	check(nil, nil)
	if n := a.rep.Counts[InvQuarantine]; n != 0 {
		t.Fatalf("clean placement flagged: %d quarantine violations", n)
	}

	// The same placement with the server quarantined must violate
	// InvQuarantine — and only it (the server is not down).
	check(nil, map[gpu.ServerID]bool{0: true})
	if n := a.rep.Counts[InvQuarantine]; n != 1 {
		t.Errorf("quarantined-server placement: %d violations, want 1", n)
	}
	if n := a.rep.Counts[InvDownServer]; n != 0 {
		t.Errorf("quarantine misreported as down-server: %d", n)
	}

	// Down and quarantined are independent invariants: both fire when
	// both states hold.
	check(map[gpu.ServerID]bool{0: true}, map[gpu.ServerID]bool{0: true})
	if a.rep.Counts[InvQuarantine] != 2 || a.rep.Counts[InvDownServer] != 1 {
		t.Errorf("down+quarantined: got quarantine=%d down=%d, want 2 and 1",
			a.rep.Counts[InvQuarantine], a.rep.Counts[InvDownServer])
	}
}

// TestAuditStructuralBreaks feeds checkAssignment each assignment
// placement.Validate rejects. Every audit mode, AuditOff included,
// must return Validate's message, so the engine aborts the round.
func TestAuditStructuralBreaks(t *testing.T) {
	cl := gpu.MustNew(
		gpu.Spec{Gen: gpu.K80, Servers: 1, GPUsPerSrv: 2},
		gpu.Spec{Gen: gpu.V100, Servers: 1, GPUsPerSrv: 2},
	)
	specs := workload.BatchJobs("u", workload.DefaultZoo().MustGet("vae"), 2, 2, 1)
	specs, err := workload.AssignIDs(specs)
	if err != nil {
		t.Fatal(err)
	}
	var jobs []*job.Job
	for _, sp := range specs {
		j, err := job.New(sp)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	cases := []struct {
		name string
		devs [][]gpu.DeviceID // by position; nil = not placed
		want string
	}{
		{"zero devices", [][]gpu.DeviceID{{}}, "placement: job 1 assigned zero devices"},
		{"out-of-range device", [][]gpu.DeviceID{{0, 99}}, "placement: job 1 holds unknown device 99"},
		{"negative device", [][]gpu.DeviceID{nil, {-1, 0}}, "placement: job 2 holds unknown device -1"},
		{"mixed generations", [][]gpu.DeviceID{{1, 2}}, "placement: job 1 mixes generations"},
		{"device in two gangs", [][]gpu.DeviceID{{0, 1}, {1, 0}}, "placement: device 1 assigned to jobs 1 and 2"},
	}
	for _, tc := range cases {
		asg := placement.Assignment{}
		slots := make([]roundSlot, len(jobs))
		var placed []int32
		for p, devs := range tc.devs {
			if devs == nil {
				continue
			}
			asg[jobs[p].ID] = devs
			slots[p] = roundSlot{devs: devs, placed: true}
			placed = append(placed, int32(p))
		}
		// With one job placed Validate is deterministic and must agree
		// word for word; with two, it names the jobs in map order.
		if verr := placement.Validate(cl, asg); verr == nil {
			t.Fatalf("%s: placement.Validate accepted the assignment", tc.name)
		} else if len(placed) == 1 && verr.Error() != tc.want {
			t.Fatalf("%s: Validate says %q, want %q", tc.name, verr, tc.want)
		}
		for _, mode := range []AuditMode{AuditStrict, AuditCount, AuditOff} {
			a := newAuditor(mode, cl, 360)
			a.beginRound(1, 0, map[gpu.Generation]int{gpu.K80: 2, gpu.V100: 2}, nil)
			err := a.checkAssignment(jobs, slots, placed, nil, nil)
			if err == nil || err.Error() != tc.want {
				t.Errorf("%s, audit %v: error %v, want %q", tc.name, mode, err, tc.want)
			}
		}
	}
}

// TestAuditOwnerStampsResetPerCheck places the same devices on every
// call: a device held in an earlier check is free in the next, also
// across the stamp wrap-around.
func TestAuditOwnerStampsResetPerCheck(t *testing.T) {
	a, jobs, devs := mkAuditor(t)
	slots := []roundSlot{{devs: devs[:1], placed: true}}
	for i := 0; i < 3; i++ {
		if err := a.checkAssignment(jobs, slots, []int32{0}, nil, nil); err != nil {
			t.Fatalf("check %d: %v", i, err)
		}
	}
	a.nextClaim = math.MaxUint32
	for i := 0; i < 2; i++ {
		if err := a.checkAssignment(jobs, slots, []int32{0}, nil, nil); err != nil {
			t.Fatalf("check %d after wrap: %v", i, err)
		}
	}
	if !a.rep.Clean() {
		t.Fatalf("violations: %v", a.rep.Violations)
	}
}

func TestAuditCompensationInvariant(t *testing.T) {
	users := []job.UserID{"u"}
	cases := []struct {
		name                      string
		before, lost, repaid, aft float64
		violations                int
	}{
		{"clean accrual", 0, 720, 0, 720, 0},
		{"clean drain", 720, 0, 300, 420, 0},
		{"clean payoff", 500, 0, 500, 0, 0},
		{"negative repaid", 100, 0, -5, 105, 1},
		{"repaid exceeds deficit", 100, 0, 150, 0, 1}, // balance fine: want is negative-clamped
		{"books off", 100, 100, 0, 100, 1},
		{"negative after", 0, 0, 0, -50, 2}, // negative + balance
	}
	for _, tc := range cases {
		a, _, _ := mkAuditor(t)
		a.checkCompensation(users,
			map[job.UserID]float64{"u": tc.before},
			map[job.UserID]float64{"u": tc.lost},
			map[job.UserID]float64{"u": tc.repaid},
			map[job.UserID]float64{"u": tc.aft})
		if got := a.rep.Counts[InvCompensation]; got != tc.violations {
			t.Errorf("%s: %d violations, want %d", tc.name, got, tc.violations)
		}
	}
}

func TestAuditCompensationMonotoneDrain(t *testing.T) {
	// While a user is active and accrues no new losses, the deficit
	// must never rise: a round claiming it did is a violation.
	a, _, _ := mkAuditor(t)
	users := []job.UserID{"u"}
	deficit := 1000.0
	for round := 0; round < 5; round++ {
		repaid := 150.0
		after := deficit - repaid
		a.checkCompensation(users,
			map[job.UserID]float64{"u": deficit},
			nil,
			map[job.UserID]float64{"u": repaid},
			map[job.UserID]float64{"u": after})
		deficit = after
	}
	if n := a.rep.Counts[InvCompensation]; n != 0 {
		t.Fatalf("monotone drain flagged: %d violations", n)
	}
	// A deficit that grows without a loss must be flagged.
	a.checkCompensation(users,
		map[job.UserID]float64{"u": deficit},
		nil,
		nil,
		map[job.UserID]float64{"u": deficit + 1})
	if n := a.rep.Counts[InvCompensation]; n != 1 {
		t.Fatalf("spontaneous deficit growth not flagged (violations=%d)", n)
	}
}
