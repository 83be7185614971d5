package stride

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/job"
)

// refOrder is the documented priority order computed the slow way:
// candidates without a pass join at the minimum pass among the
// candidates that have one (0 if none has), candidates with no gang
// or no tickets are dropped, and the rest are stably sorted by pass
// ascending, gang descending, ID ascending. It returns the ordered
// IDs and every candidate's pass after the join.
func refOrder(pre map[job.ID]float64, cands []Candidate) ([]job.ID, map[job.ID]float64) {
	after := make(map[job.ID]float64, len(cands))
	minPass, found := 0.0, false
	for _, c := range cands {
		if p, ok := pre[c.ID]; ok && (!found || p < minPass) {
			minPass, found = p, true
		}
	}
	var valid []Candidate
	for _, c := range cands {
		p, ok := pre[c.ID]
		if !ok {
			p = minPass
		}
		after[c.ID] = p
		if c.Gang > 0 && c.Tickets > 0 {
			valid = append(valid, c)
		}
	}
	sort.SliceStable(valid, func(i, k int) bool {
		pi, pk := after[valid[i].ID], after[valid[k].ID]
		if pi != pk {
			return pi < pk
		}
		if valid[i].Gang != valid[k].Gang {
			return valid[i].Gang > valid[k].Gang
		}
		return valid[i].ID < valid[k].ID
	})
	order := make([]job.ID, len(valid))
	for i, c := range valid {
		order[i] = c.ID
	}
	return order, after
}

// refSelect walks refOrder's order under mode and returns the chosen
// IDs stably sorted big gang first, then lower ID.
func refSelect(mode Mode, pre map[job.ID]float64, cands []Candidate, capacity int) []job.ID {
	if capacity <= 0 || len(cands) == 0 {
		return nil
	}
	order, _ := refOrder(pre, cands)
	gang := make(map[job.ID]int, len(cands))
	for _, c := range cands {
		gang[c.ID] = c.Gang
	}
	var sel []job.ID
	remaining := capacity
	for _, id := range order {
		if remaining == 0 {
			break
		}
		if gang[id] > remaining {
			if mode == NaiveBlocking {
				break
			}
			continue
		}
		sel = append(sel, id)
		remaining -= gang[id]
	}
	sort.SliceStable(sel, func(i, k int) bool {
		if gang[sel[i]] != gang[sel[k]] {
			return gang[sel[i]] > gang[sel[k]]
		}
		return sel[i] < sel[k]
	})
	return sel
}

// randomPool draws a candidate set in random ID order: passes from a
// few values (many ties), some newcomers, some zero-gang and
// zero-ticket candidates. pre also holds passes of jobs that are not
// candidates, which must not affect the join.
func randomPool(rng *rand.Rand) (pre map[job.ID]float64, cands []Candidate) {
	n := 1 + rng.Intn(40)
	perm := rng.Perm(4 * n)[:n]
	newcomers := rng.Float64() // share of candidates with no pass yet
	pre = make(map[job.ID]float64)
	for i := 0; i < 3; i++ {
		pre[job.ID(10000+i)] = -float64(1 + rng.Intn(50)) // stale, below every candidate
	}
	gangs := []int{0, 1, 1, 2, 2, 4, 8}
	tickets := []float64{0, 0.5, 1, 1, 2}
	for _, id := range perm {
		c := Candidate{ID: job.ID(id + 1), Gang: gangs[rng.Intn(len(gangs))], Tickets: tickets[rng.Intn(len(tickets))]}
		if rng.Float64() >= newcomers {
			pre[c.ID] = float64(5 * rng.Intn(4))
		}
		cands = append(cands, c)
	}
	return pre, cands
}

func schedulerWith(mode Mode, pre map[job.ID]float64) *Scheduler {
	s := New(mode)
	for id, p := range pre {
		s.pass[id] = joinedAt(p)
	}
	return s
}

// TestPropertyOrderMatchesReference checks every ordering entry point
// against refOrder/refSelect on randomized pools, in both modes.
func TestPropertyOrderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 3000; trial++ {
		pre, cands := randomPool(rng)
		want, after := refOrder(pre, cands)

		for _, mode := range []Mode{GangAware, NaiveBlocking} {
			s := schedulerWith(mode, pre)
			if got := s.Order(cands); !slices.Equal(got, want) {
				t.Fatalf("trial %d %v: Order = %v, want %v", trial, mode, got, want)
			}
			for id, p := range after {
				if s.Pass(id) != p {
					t.Fatalf("trial %d %v: job %d pass %v after Order, want %v", trial, mode, id, s.Pass(id), p)
				}
			}

			capacity := rng.Intn(24)
			wantSel := refSelect(mode, pre, cands, capacity)
			if got := schedulerWith(mode, pre).Select(cands, capacity); !slices.Equal(got, wantSel) {
				t.Fatalf("trial %d %v cap %d: Select = %v, want %v", trial, mode, capacity, got, wantSel)
			}
			if got := ids(cands, schedulerWith(mode, pre).SelectPositions(cands, capacity)); !slices.Equal(got, wantSel) {
				t.Fatalf("trial %d %v cap %d: SelectPositions = %v, want %v", trial, mode, capacity, got, wantSel)
			}
		}

		// Caller-owned passes: the same order, and the same joins.
		passes := make([]*Pass, len(cands))
		for i, c := range cands {
			passes[i] = &Pass{}
			if p, ok := pre[c.ID]; ok {
				passes[i] = joinedAt(p)
			}
		}
		if got := ids(cands, OrderPasses(cands, passes)); !slices.Equal(got, want) {
			t.Fatalf("trial %d: OrderPasses = %v, want %v", trial, got, want)
		}
		for i, c := range cands {
			if !passes[i].joined || passes[i].value != after[c.ID] {
				t.Fatalf("trial %d: job %d pass %+v after OrderPasses, want joined at %v", trial, c.ID, *passes[i], after[c.ID])
			}
		}
	}
}

func TestOrderPassesLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("OrderPasses accepted 1 candidate with 0 passes")
		}
	}()
	OrderPasses([]Candidate{{ID: 1, Gang: 1, Tickets: 1}}, nil)
}
