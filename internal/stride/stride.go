// Package stride implements gang-aware stride scheduling, the
// proportional-share core of Gandiva_fair.
//
// Classic stride scheduling keeps a pass value per client and always
// runs the client with the minimum pass, advancing it by
// stride = constant/tickets per quantum received. Gandiva_fair
// extends this to DLT gangs: a job needs all of its GPUs at once, and
// a round schedules many jobs onto a pool of GPUs simultaneously.
//
// Gang awareness here means two things:
//
//  1. Selection considers jobs in pass order but *skips* a job whose
//     gang does not fit in the remaining capacity, continuing with
//     smaller jobs (no head-of-line blocking, so the pool stays
//     utilized). A skipped job's pass does not advance, so it drifts
//     to the minimum and is eventually scheduled first, when the whole
//     pool is still free — big gangs cannot starve.
//  2. Pass advances by resources actually consumed (gang × seconds)
//     divided by tickets, so a 8-GPU job is charged 8× a 1-GPU job
//     per second and long-run GPU-time converges to ticket proportion
//     regardless of gang sizes.
//
// The ablation mode NaiveBlocking implements strict stride semantics
// (stop filling the pool when the minimum-pass job does not fit),
// which the E4 ablation shows wastes capacity.
package stride

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/job"
)

// Mode selects the selection discipline.
type Mode int

const (
	// GangAware skips jobs that do not fit and keeps filling (the
	// paper's scheduler).
	GangAware Mode = iota
	// NaiveBlocking stops at the first job that does not fit (strict
	// stride order; ablation baseline).
	NaiveBlocking
)

func (m Mode) String() string {
	switch m {
	case GangAware:
		return "gang-aware"
	case NaiveBlocking:
		return "naive-blocking"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Candidate is one runnable job presented to a selection round.
type Candidate struct {
	ID      job.ID
	Gang    int     // GPUs needed, all-or-nothing
	Tickets float64 // share weight for this job (user tickets / user's job count)
}

// Pass is one job's stride state in one scheduling pool. The zero
// value is a job that has not joined the pool; it joins at the minimum
// pass of the candidates it is first ordered with. A Scheduler keeps a
// Pass per job in a map; a caller that already keeps a record per job
// can hold the Pass there and call OrderPasses and SelectPasses
// directly, with no map access at all.
type Pass struct {
	value  float64
	joined bool
}

// Joined reports whether the job has joined the pool.
func (p *Pass) Joined() bool { return p.joined }

// Charge advances the pass by the resources the job consumed this
// round: gang-GPU-seconds divided by its tickets. Charging a job that
// has not joined, non-positive tickets, or negative resources panics —
// those are core bugs, not runtime conditions.
func (p *Pass) Charge(gpuSeconds, tickets float64) {
	if !p.joined {
		panic("stride: Charge before the job joined")
	}
	if tickets <= 0 {
		panic(fmt.Sprintf("stride: Charge with tickets %v", tickets))
	}
	if gpuSeconds < 0 {
		panic(fmt.Sprintf("stride: Charge with negative resources %v", gpuSeconds))
	}
	p.value += gpuSeconds / tickets
}

// key is one candidate's sort key: everything the priority order
// compares, copied out of its Pass so sorting chases no pointers.
type key struct {
	pass float64
	gang int
	id   job.ID
	pos  int
}

// compareKeys is the scheduling priority order: increasing pass, then
// larger gang, then lower ID. IDs are unique, so it is a strict total
// order and every correct sort yields the same permutation.
func compareKeys(a, b key) int {
	if a.pass != b.pass {
		if a.pass < b.pass {
			return -1
		}
		return 1
	}
	if a.gang != b.gang {
		return cmp.Compare(b.gang, a.gang)
	}
	return cmp.Compare(a.id, b.id)
}

// OrderPasses joins every candidate that has not joined yet at the
// minimum pass among those that have (0 if none has), then returns the
// positions in cands of the candidates with a gang and tickets, in
// scheduling priority order: increasing pass, ties broken by larger
// gang then lower ID. passes[i] is cands[i]'s pass. O(n log n).
func OrderPasses(cands []Candidate, passes []*Pass) []int {
	if len(cands) != len(passes) {
		panic(fmt.Sprintf("stride: %d candidates, %d passes", len(cands), len(passes)))
	}
	if len(cands) == 0 {
		return nil
	}
	minPass := 0.0
	found := false
	for _, p := range passes {
		if p.joined && (!found || p.value < minPass) {
			minPass = p.value
			found = true
		}
	}
	keys := make([]key, 0, len(cands))
	for i, c := range cands {
		p := passes[i]
		if !p.joined {
			p.value, p.joined = minPass, true
		}
		if c.Gang > 0 && c.Tickets > 0 {
			keys = append(keys, key{pass: p.value, gang: c.Gang, id: c.ID, pos: i})
		}
	}
	slices.SortFunc(keys, compareKeys)
	out := make([]int, len(keys))
	for i, k := range keys {
		out[i] = k.pos
	}
	return out
}

// SelectPasses chooses the jobs to run for one round on a pool of
// capacity identical GPUs, walking OrderPasses' order under mode, and
// returns their positions in cands in placement-priority order (big
// gangs first, then lower ID). It does not advance passes — Charge
// what each selected job actually consumed.
func SelectPasses(mode Mode, cands []Candidate, passes []*Pass, capacity int) []int {
	if capacity <= 0 || len(cands) == 0 {
		return nil
	}
	var selected []int
	remaining := capacity
	for _, i := range OrderPasses(cands, passes) {
		if remaining == 0 {
			break
		}
		if cands[i].Gang > remaining {
			if mode == NaiveBlocking {
				break
			}
			continue
		}
		selected = append(selected, i)
		remaining -= cands[i].Gang
	}
	slices.SortFunc(selected, func(a, b int) int {
		if ga, gb := cands[a].Gang, cands[b].Gang; ga != gb {
			return cmp.Compare(gb, ga)
		}
		return cmp.Compare(cands[a].ID, cands[b].ID)
	})
	return selected
}

// Scheduler holds per-job pass state across rounds, one Pass per job
// in a map. It is not safe for concurrent use; the simulation core
// drives it from one goroutine.
type Scheduler struct {
	mode Mode
	pass map[job.ID]*Pass
}

// New returns an empty scheduler in the given mode.
func New(mode Mode) *Scheduler {
	return &Scheduler{mode: mode, pass: make(map[job.ID]*Pass)}
}

// Mode returns the selection discipline.
func (s *Scheduler) Mode() Mode { return s.mode }

// Pass returns a job's current pass value (0 for unknown jobs).
func (s *Scheduler) Pass(id job.ID) float64 {
	if p := s.pass[id]; p != nil {
		return p.value
	}
	return 0
}

// Len returns the number of tracked jobs.
func (s *Scheduler) Len() int { return len(s.pass) }

// passes returns the candidates' passes, adding unknown jobs unjoined.
func (s *Scheduler) passes(cands []Candidate) []*Pass {
	out := make([]*Pass, len(cands))
	for i, c := range cands {
		p := s.pass[c.ID]
		if p == nil {
			p = &Pass{}
			s.pass[c.ID] = p
		}
		out[i] = p
	}
	return out
}

// Select chooses the jobs to run for one round on a pool of capacity
// identical GPUs. Jobs are considered in increasing pass order (ties:
// larger gang first, then lower ID, so rounds are deterministic).
// Newly seen candidates join at the current minimum pass among the
// candidate set, the standard stride join rule that prevents a new
// job from either monopolizing the pool or being starved.
//
// Select does not advance pass values — call Charge with the
// resources each selected job actually consumed. The returned slice
// lists selected IDs in placement-priority order (big gangs first).
func (s *Scheduler) Select(cands []Candidate, capacity int) []job.ID {
	pos := s.SelectPositions(cands, capacity)
	if len(pos) == 0 {
		return nil
	}
	return ids(cands, pos)
}

// SelectPositions is Select returning positions in cands instead of
// IDs (see SelectPasses).
func (s *Scheduler) SelectPositions(cands []Candidate, capacity int) []int {
	if capacity <= 0 || len(cands) == 0 {
		return nil
	}
	return SelectPasses(s.mode, cands, s.passes(cands), capacity)
}

// Order registers candidates (applying the same join rule as Select)
// and returns their IDs in scheduling priority order: increasing
// pass, ties broken by larger gang then lower ID. Callers that need
// to interleave per-candidate constraints (e.g. per-generation
// budgets) iterate this order themselves and Charge what ran.
func (s *Scheduler) Order(cands []Candidate) []job.ID {
	if len(cands) == 0 {
		return nil
	}
	return ids(cands, OrderPasses(cands, s.passes(cands)))
}

// ids maps positions in cands to candidate IDs.
func ids(cands []Candidate, pos []int) []job.ID {
	out := make([]job.ID, len(pos))
	for i, p := range pos {
		out[i] = cands[p].ID
	}
	return out
}

// Charge advances a job's pass (see Pass.Charge). Charging an unknown
// job panics.
func (s *Scheduler) Charge(id job.ID, gpuSeconds, tickets float64) {
	p := s.pass[id]
	if p == nil {
		panic(fmt.Sprintf("stride: Charge for unknown job %d", id))
	}
	p.Charge(gpuSeconds, tickets)
}

// Remove forgets a job (finished or cancelled). Removing an unknown
// job is a no-op.
func (s *Scheduler) Remove(id job.ID) { delete(s.pass, id) }

// Rebase shifts all pass values so the minimum becomes zero,
// preventing unbounded float growth in very long simulations. Pass
// ordering (the only thing selection uses) is unchanged.
func (s *Scheduler) Rebase() {
	if len(s.pass) == 0 {
		return
	}
	min := 0.0
	first := true
	for _, p := range s.pass {
		if first || p.value < min {
			min = p.value
			first = false
		}
	}
	if min == 0 {
		return
	}
	// Walk in ID order so no float update follows map order.
	for _, id := range job.SortedIDs(s.pass) {
		s.pass[id].value -= min
	}
}
