package stride

import (
	"math"
	"sort"

	"repro/internal/job"
)

// Classed is the split-stride variant of gang-aware scheduling: jobs
// are partitioned into gang-size classes, each class receives a
// water-filled GPU budget proportional to its aggregate tickets
// (capped by its demand), and fractional budgets accrue into per-class
// deficit carries — so a class whose gang does not divide its budget
// this round catches up in later rounds instead of starving.
//
// Compared to the plain greedy pass-order Scheduler, Classed restores
// near-exact proportional GPU time under mixed gang sizes at the cost
// of slightly more bookkeeping:
//
//   - big classes run at their fair rate even when smaller jobs could
//     always backfill ahead of them;
//   - leftover capacity is still backfilled greedily by pass order
//     (charged), so the pool stays work-conserving.
//
// Within a class, members are picked by the shared stride pass state,
// so per-job fairness inside a class also holds.
type Classed struct {
	inner *Scheduler
	carry map[int]float64 // per gang-size class, in GPU-rounds
}

// NewClassed returns an empty classed scheduler.
func NewClassed() *Classed {
	return &Classed{inner: New(GangAware), carry: make(map[int]float64)}
}

// Pass exposes the underlying pass value (for tests).
func (s *Classed) Pass(id job.ID) float64 { return s.inner.Pass(id) }

// Charge advances a job's pass; see Scheduler.Charge.
func (s *Classed) Charge(id job.ID, gpuSeconds, tickets float64) {
	s.inner.Charge(id, gpuSeconds, tickets)
}

// Remove forgets a job.
func (s *Classed) Remove(id job.ID) { s.inner.Remove(id) }

// Select picks one round's jobs for a pool of capacity GPUs.
func (s *Classed) Select(cands []Candidate, capacity int) []job.ID {
	if capacity <= 0 || len(cands) == 0 {
		return nil
	}
	// Partition into classes and compute class tickets/demands.
	classes := make(map[int][]Candidate)
	tickets := make(map[int]float64)
	demand := make(map[int]float64)
	for _, c := range cands {
		if c.Gang <= 0 || c.Tickets <= 0 {
			continue
		}
		classes[c.Gang] = append(classes[c.Gang], c)
		tickets[c.Gang] += c.Tickets
		demand[c.Gang] += float64(c.Gang)
	}
	if len(classes) == 0 {
		return nil
	}
	// Drop carries for classes with no members this round.
	for g := range s.carry {
		if _, ok := classes[g]; !ok {
			delete(s.carry, g)
		}
	}
	// Water-fill capacity among classes by aggregate tickets, capped
	// by class demand.
	budgets := waterfillClasses(tickets, demand, float64(capacity))
	gangs := make([]int, 0, len(classes))
	for g := range classes {
		gangs = append(gangs, g)
		s.carry[g] += budgets[g]
		// Bounded catch-up credit: enough to absorb rounds lost to a
		// full-pool gang from another class, but not unbounded.
		if limit := 2*demand[g] + float64(g); s.carry[g] > limit {
			s.carry[g] = limit
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(gangs)))

	selected := make(map[job.ID]bool)
	gangOf := make(map[job.ID]int, len(cands))
	var out []job.ID
	remaining := capacity
	// Budgeted phase: each class spends whole gangs from its carry,
	// big classes first so their slots are not fragmented away.
	for _, g := range gangs {
		members := classes[g]
		slots := int(math.Floor(s.carry[g]/float64(g) + 1e-9))
		if max := remaining / g; slots > max {
			slots = max
		}
		if slots <= 0 {
			continue
		}
		ids := s.inner.Order(members)
		if len(ids) > slots {
			ids = ids[:slots]
		}
		for _, id := range ids {
			selected[id] = true
			gangOf[id] = g
			out = append(out, id)
			remaining -= g
			s.carry[g] -= float64(g)
		}
	}
	// Backfill phase: leftover capacity goes to unselected jobs by
	// global pass order, gang-aware, without touching carries.
	if remaining > 0 {
		var rest []Candidate
		for _, c := range cands {
			if !selected[c.ID] && c.Gang > 0 && c.Tickets > 0 {
				rest = append(rest, c)
			}
		}
		for _, i := range s.inner.SelectPositions(rest, remaining) {
			gangOf[rest[i].ID] = rest[i].Gang
			out = append(out, rest[i].ID)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		gi, gj := gangOf[out[i]], gangOf[out[j]]
		if gi != gj {
			return gi > gj
		}
		return out[i] < out[j]
	})
	return out
}

// waterfillClasses is max–min water-filling keyed by gang class.
func waterfillClasses(tickets, demand map[int]float64, capacity float64) map[int]float64 {
	out := make(map[int]float64, len(demand))
	type cls struct {
		g    int
		t, d float64
	}
	var active []cls
	for g, d := range demand {
		if d > 1e-9 && tickets[g] > 1e-9 {
			active = append(active, cls{g, tickets[g], d})
		}
	}
	sort.Slice(active, func(i, j int) bool { return active[i].g < active[j].g })
	remaining := capacity
	used := 0.0
	for len(active) > 0 && remaining > 1e-9 {
		var tsum float64
		for _, c := range active {
			tsum += c.t
		}
		capped := false
		next := active[:0]
		for _, c := range active {
			if slice := remaining * c.t / tsum; c.d <= slice+1e-9 {
				out[c.g] += c.d
				used += c.d
				capped = true
			} else {
				next = append(next, c)
			}
		}
		if !capped {
			for _, c := range next {
				out[c.g] += remaining * c.t / tsum
			}
			return out
		}
		// used accumulates in deterministic finalization order; summing
		// the out map here would tie the float rounding to map
		// iteration order, which varies between processes.
		remaining = capacity - used
		active = next
	}
	return out
}
