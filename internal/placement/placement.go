// Package placement maps the jobs selected for a scheduling round
// onto concrete GPUs. It prefers stability (a job keeps the devices
// it ran on), packs gangs onto as few servers as possible, and
// reports which jobs had to migrate (server set changed) so the core
// can charge migration overhead. Placement is a pure function of the
// round's inputs — all state (what ran where) is passed in, which
// keeps it trivially testable.
package placement

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/gpu"
	"repro/internal/job"
)

// Assignment maps each running job to the devices it holds. Device
// slices are sorted ascending.
type Assignment map[job.ID][]gpu.DeviceID

// Clone deep-copies the assignment.
func (a Assignment) Clone() Assignment {
	out := make(Assignment, len(a))
	for id, devs := range a {
		cp := make([]gpu.DeviceID, len(devs))
		copy(cp, devs)
		out[id] = cp
	}
	return out
}

// Request asks for one job to run this round on one generation.
type Request struct {
	Job *job.Job
	Gen gpu.Generation
}

// Options tunes placement behavior.
type Options struct {
	// AllowMigration permits moving a previously-running job to a
	// different server set when that is the only way to place it (or
	// a bigger gang). When false, a job that ran last round may only
	// be placed on exactly its previous devices — the
	// no-migration ablation, which strands capacity under
	// fragmentation.
	AllowMigration bool

	// Down marks failed servers; their devices are unplaceable this
	// round. A job whose previous devices are down is treated like
	// any displaced job: migrated if allowed, stranded otherwise.
	Down map[gpu.ServerID]bool

	// Pinned marks jobs that may not migrate this round even when
	// AllowMigration is set (migration-failure backoff): they either
	// keep their exact previous devices (phase-1 stability) or go
	// unplaced.
	Pinned map[job.ID]bool
}

// Result reports the round's placement.
type Result struct {
	Assignment Assignment
	// Migrated lists jobs whose server set changed relative to prev
	// (they pay checkpoint/restore cost).
	Migrated []job.ID
	// Unplaced lists requested jobs that could not be placed
	// (fragmentation or capacity); they do not run this round.
	Unplaced []job.ID
}

// Place computes the round's assignment. prev is last round's
// assignment (for stability and migration detection); requests may be
// in any order — big gangs are placed first internally.
func Place(c *gpu.Cluster, prev Assignment, reqs []Request, opt Options) Result {
	res := Result{Assignment: make(Assignment, len(reqs))}
	free := make(map[gpu.DeviceID]bool, c.NumDevices())
	for i := 0; i < c.NumDevices(); i++ {
		id := gpu.DeviceID(i)
		free[id] = !opt.Down[c.Device(id).Server]
	}

	// Deterministic processing order: gang desc, then job ID.
	_, order := sortRequests(reqs, nil, nil)

	// Phase 1 — stability: keep jobs exactly where they were when the
	// previous devices still match the requested generation and gang.
	pending := order[:0]
	for _, r := range order {
		devs, ok := prev[r.Job.ID]
		if ok && len(devs) == r.Job.Gang && devicesOnGen(c, devs, r.Gen) && allFree(free, devs) {
			take(free, devs)
			res.Assignment[r.Job.ID] = sortedCopy(devs)
			continue
		}
		pending = append(pending, r)
	}

	// Phase 2 — place the rest.
	for _, r := range pending {
		_, ranBefore := prev[r.Job.ID]
		if ranBefore && (!opt.AllowMigration || opt.Pinned[r.Job.ID]) {
			// Previous devices unusable (wrong generation, wrong
			// count, or taken) and we may not move the job.
			res.Unplaced = append(res.Unplaced, r.Job.ID)
			continue
		}
		devs := findDevices(c, free, r, prev[r.Job.ID])
		if devs == nil {
			res.Unplaced = append(res.Unplaced, r.Job.ID)
			continue
		}
		take(free, devs)
		res.Assignment[r.Job.ID] = devs
		if ranBefore && !sameServers(c, prev[r.Job.ID], devs) {
			res.Migrated = append(res.Migrated, r.Job.ID)
		}
	}
	slices.Sort(res.Migrated)
	slices.Sort(res.Unplaced)
	return res
}

// orderKey is one request's placement-order key. i indexes the
// request slice, so sorting compares plain values and never
// dereferences a *job.Job.
type orderKey struct {
	gang int32
	i    int32
	id   job.ID
}

// cmpOrderKey orders requests by gang descending, then job ID.
func cmpOrderKey(a, b orderKey) int {
	if a.gang != b.gang {
		return cmp.Compare(b.gang, a.gang)
	}
	return cmp.Compare(a.id, b.id)
}

// sortRequests writes reqs to order in placement order: gang
// descending, then job ID. keys and order are reused scratch (nil
// allocates); both are returned for the caller to keep.
func sortRequests(reqs []Request, keys []orderKey, order []Request) ([]orderKey, []Request) {
	keys = keys[:0]
	for i, r := range reqs {
		keys = append(keys, orderKey{gang: int32(r.Job.Gang), i: int32(i), id: r.Job.ID})
	}
	slices.SortFunc(keys, cmpOrderKey)
	order = order[:0]
	for _, k := range keys {
		order = append(order, reqs[k.i])
	}
	return keys, order
}

// findDevices picks gang devices of the requested generation:
// best-fit on a single server if possible (preferring the job's
// previous server, then fullest-fitting server), otherwise spanning
// the fewest servers, most-free first.
func findDevices(c *gpu.Cluster, free map[gpu.DeviceID]bool, r Request, prevDevs []gpu.DeviceID) []gpu.DeviceID {
	gang := r.Job.Gang

	type srvFree struct {
		id   gpu.ServerID
		devs []gpu.DeviceID
	}
	var servers []srvFree
	total := 0
	for _, sid := range c.ServersOf(r.Gen) {
		srv := c.Server(sid)
		var fd []gpu.DeviceID
		for _, d := range srv.Devices {
			if free[d] {
				fd = append(fd, d)
			}
		}
		if len(fd) > 0 {
			servers = append(servers, srvFree{sid, fd})
			total += len(fd)
		}
	}
	if total < gang {
		return nil
	}

	// Single-server candidates: best fit (fewest leftover GPUs), with
	// the job's previous server winning ties (cheap intra-server
	// shuffle instead of a migration).
	best := -1
	for i, s := range servers {
		if len(s.devs) < gang {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		bi, si := servers[best], s
		biPrev, siPrev := onServer(c, prevDevs, bi.id), onServer(c, prevDevs, si.id)
		switch {
		case siPrev && !biPrev:
			best = i
		case biPrev && !siPrev:
			// keep
		case len(si.devs) < len(bi.devs):
			best = i
		case len(si.devs) == len(bi.devs) && si.id < bi.id:
			best = i
		}
	}
	if best >= 0 {
		return sortedCopy(servers[best].devs[:gang])
	}

	// Spanning: greedily take from the most-free servers so the gang
	// touches as few machines as possible.
	sort.Slice(servers, func(i, j int) bool {
		if len(servers[i].devs) != len(servers[j].devs) {
			return len(servers[i].devs) > len(servers[j].devs)
		}
		return servers[i].id < servers[j].id
	})
	var out []gpu.DeviceID
	need := gang
	for _, s := range servers {
		n := len(s.devs)
		if n > need {
			n = need
		}
		out = append(out, s.devs[:n]...)
		need -= n
		if need == 0 {
			break
		}
	}
	return sortedCopy(out)
}

// ServersUsed returns how many distinct servers a device set spans.
// Gangs are a few devices, so each device's server is looked for
// among the earlier ones; the count does not depend on device order.
func ServersUsed(c *gpu.Cluster, devs []gpu.DeviceID) int {
	n := 0
	for i, d := range devs {
		if !onServer(c, devs[:i], c.Device(d).Server) {
			n++
		}
	}
	return n
}

// Validate checks assignment invariants against the cluster: no
// device assigned twice and every job's devices sharing one
// generation. It returns the first violation.
func Validate(c *gpu.Cluster, a Assignment) error {
	used := make(map[gpu.DeviceID]job.ID)
	for id, devs := range a {
		if len(devs) == 0 {
			return fmt.Errorf("placement: job %d assigned zero devices", id)
		}
		for _, d := range devs {
			if int(d) < 0 || int(d) >= c.NumDevices() {
				return fmt.Errorf("placement: job %d holds unknown device %d", id, d)
			}
		}
		gen := c.Device(devs[0]).Gen
		for _, d := range devs {
			if c.Device(d).Gen != gen {
				return fmt.Errorf("placement: job %d mixes generations", id)
			}
			if prev, dup := used[d]; dup {
				return fmt.Errorf("placement: device %d assigned to jobs %d and %d", d, prev, id)
			}
			used[d] = id
		}
	}
	return nil
}

// BusyPerServer returns the number of busy GPUs on each server under
// an assignment (servers with zero busy GPUs included).
func BusyPerServer(c *gpu.Cluster, a Assignment) map[gpu.ServerID]int {
	busy := make(map[gpu.ServerID]int, c.NumServers())
	for _, srv := range c.Servers() {
		busy[srv.ID] = 0
	}
	for _, devs := range a {
		for _, d := range devs {
			busy[c.Device(d).Server]++
		}
	}
	return busy
}

func devicesOnGen(c *gpu.Cluster, devs []gpu.DeviceID, g gpu.Generation) bool {
	for _, d := range devs {
		if c.Device(d).Gen != g {
			return false
		}
	}
	return true
}

func allFree(free map[gpu.DeviceID]bool, devs []gpu.DeviceID) bool {
	for _, d := range devs {
		if !free[d] {
			return false
		}
	}
	return true
}

func take(free map[gpu.DeviceID]bool, devs []gpu.DeviceID) {
	for _, d := range devs {
		free[d] = false
	}
}

// onServer reports whether any of devs lies on server sid.
func onServer(c *gpu.Cluster, devs []gpu.DeviceID, sid gpu.ServerID) bool {
	for _, d := range devs {
		if c.Device(d).Server == sid {
			return true
		}
	}
	return false
}

// sameServers reports whether a and b span the same set of servers,
// in any device order.
func sameServers(c *gpu.Cluster, a, b []gpu.DeviceID) bool {
	for _, d := range a {
		if !onServer(c, b, c.Device(d).Server) {
			return false
		}
	}
	for _, d := range b {
		if !onServer(c, a, c.Device(d).Server) {
			return false
		}
	}
	return true
}

func sortedCopy(devs []gpu.DeviceID) []gpu.DeviceID {
	out := make([]gpu.DeviceID, len(devs))
	copy(out, devs)
	slices.Sort(out)
	return out
}
