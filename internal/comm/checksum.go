package comm

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/obs/span"
)

// FNV-64a parameters (hash/fnv's, inlined so hashing a message needs
// neither a hash.Hash nor a byte buffer).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Type tags open every message's hash so two message types whose
// fields happen to encode alike never share a sum.
const (
	tagRegister uint64 = iota + 1
	tagRegisterAck
	tagRoundPlan
	tagRoundReport
	tagShutdown
)

// fnv64a is a running FNV-64a state. Every field is fed as fixed-width
// little-endian bytes; strings and slices are prefixed by their
// length, so no two distinct field sequences share an input stream.
type fnv64a uint64

func (h *fnv64a) byte(b byte) {
	*h ^= fnv64a(b)
	*h *= fnvPrime64
}

func (h *fnv64a) u64(v uint64) {
	for i := 0; i < 8; i++ {
		h.byte(byte(v))
		v >>= 8
	}
}

func (h *fnv64a) int(v int)     { h.u64(uint64(v)) }
func (h *fnv64a) f64(v float64) { h.u64(math.Float64bits(v)) }

func (h *fnv64a) bool(v bool) {
	if v {
		h.byte(1)
	} else {
		h.byte(0)
	}
}

func (h *fnv64a) str(s string) {
	h.int(len(s))
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
}

// Checksum returns an FNV-64a hash over the fields of a protocol
// message: a per-type tag, then every field in declaration order,
// nested slice elements and span fields included. Floats hash by
// their IEEE-754 bits, and a nil slice hashes like an empty one (gob
// decodes an empty slice as nil). The sum depends only on field
// values, so sender and receiver agree whatever codec carried the
// message — but a central and its agents must run the same build,
// since a field added to a message changes its sum. Messages that are
// not one of the five protocol types (test doubles, nil, pointers)
// return an error; callers treat them as unsealable.
func Checksum(m Message) (uint64, error) {
	h := fnv64a(fnvOffset64)
	switch v := m.(type) {
	case Register:
		h.u64(tagRegister)
		h.str(v.Agent)
		h.int(v.Gen)
		h.int(v.GPUs)
	case RegisterAck:
		h.u64(tagRegisterAck)
		h.bool(v.OK)
		h.str(v.Reason)
	case RoundPlan:
		h.u64(tagRoundPlan)
		h.int(v.Round)
		h.f64(v.Quantum)
		h.int(len(v.Jobs))
		for i := range v.Jobs {
			h.assignment(&v.Jobs[i])
		}
		h.int(v.Epoch)
		h.int(v.Lease)
		h.int(v.AckRound)
		h.u64(v.Trace)
		h.u64(v.Span)
	case RoundReport:
		h.u64(tagRoundReport)
		h.str(v.Agent)
		h.int(v.Round)
		h.int(len(v.Jobs))
		for i := range v.Jobs {
			p := &v.Jobs[i]
			h.u64(uint64(p.JobID))
			h.f64(p.DoneMB)
			h.bool(p.Finished)
			h.f64(p.UsedSecs)
		}
		h.int(v.Epoch)
		h.int(len(v.Spans))
		for i := range v.Spans {
			h.span(&v.Spans[i])
		}
	case Shutdown:
		h.u64(tagShutdown)
	default:
		return 0, fmt.Errorf("comm: cannot checksum %T", m)
	}
	return uint64(h), nil
}

func (h *fnv64a) assignment(a *JobAssignment) {
	h.u64(uint64(a.JobID))
	h.str(a.User)
	h.str(a.Model)
	h.int(a.Gang)
	h.int(len(a.LocalGPUs))
	for _, g := range a.LocalGPUs {
		h.int(g)
	}
	h.f64(a.DoneMB)
	h.f64(a.TotalMB)
	h.f64(a.GangRate)
	h.f64(a.Overhead)
	h.f64(a.Shard)
}

func (h *fnv64a) span(s *span.Span) {
	h.u64(s.Trace)
	h.u64(uint64(s.ID))
	h.u64(uint64(s.Parent))
	h.str(s.Name)
	h.str(s.Proc)
	h.int(s.Round)
	h.f64(s.SimAt)
	h.u64(uint64(s.StartNs))
	h.u64(uint64(s.DurNs))
}

// Seal stamps e.Sum with the payload checksum. Zero is reserved to
// mean "unsealed", so a (vanishingly unlikely) zero hash is mapped to
// one. Sealing a payload that is not a protocol message returns the
// envelope unchanged along with the error.
func Seal(e Envelope) (Envelope, error) {
	sum, err := Checksum(e.Msg)
	if err != nil {
		return e, err
	}
	if sum == 0 {
		sum = 1
	}
	e.Sum = sum
	return e, nil
}

// Verify reports whether the envelope's payload matches its checksum.
// Unsealed envelopes (Sum 0) pass: sealing is opt-in, so raw
// Transport.Send callers and old peers keep working. A sealed
// envelope whose payload no longer hashes to Sum — corruption in
// flight — fails, as does one whose payload is no longer a protocol
// message.
func Verify(e Envelope) bool {
	if e.Sum == 0 {
		return true
	}
	sum, err := Checksum(e.Msg)
	if err != nil {
		return false
	}
	if sum == 0 {
		sum = 1
	}
	return sum == e.Sum
}

// dedupWindow is how many sequence numbers below a peer's maximum
// Dedup answers exactly.
const dedupWindow = 4096

// Dedup detects redelivered sequenced envelopes per peer. Each peer
// costs a fixed 4096-bit window: a sequence number in (max-4096, max]
// is answered exactly, and one at or below max-4096 counts as already
// seen (by the sender's monotonicity it is an ancient retransmit, or
// traffic from a sequence space a restarted sender has left behind).
// Safe for concurrent use.
type Dedup struct {
	mu    sync.Mutex
	peers map[string]*peerSeen
}

// peerSeen is one peer's window: bit s%dedupWindow of seen records
// sequence number s for every s in (max-dedupWindow, max].
type peerSeen struct {
	max  uint64
	seen [dedupWindow / 64]uint64
}

// NewDedup builds a Dedup with a 4096-sequence window per peer.
func NewDedup() *Dedup {
	return &Dedup{peers: make(map[string]*peerSeen)}
}

// Duplicate records (from, seq) and reports whether it was already
// seen. Unsequenced envelopes (seq 0) are never duplicates.
func (d *Dedup) Duplicate(from string, seq uint64) bool {
	if seq == 0 {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	p := d.peers[from]
	if p == nil {
		p = &peerSeen{}
		d.peers[from] = p
	}
	w, b := slot(seq)
	switch {
	case seq > p.max:
		p.advance(seq)
	case p.max-seq >= dedupWindow:
		return true
	case p.seen[w]&b != 0:
		return true
	}
	p.seen[w] |= b
	return false
}

// slot returns seq's word in the ring and its bit within that word.
func slot(seq uint64) (int, uint64) {
	return int(seq / 64 % (dedupWindow / 64)), 1 << (seq % 64)
}

// advance moves the window's top to seq, clearing the slots of the
// sequence numbers that fall out of it.
func (p *peerSeen) advance(seq uint64) {
	if seq-p.max >= dedupWindow {
		p.seen = [dedupWindow / 64]uint64{}
	} else {
		for s := p.max + 1; s <= seq; s++ {
			w, b := slot(s)
			p.seen[w] &^= b
		}
	}
	p.max = seq
}

// Reset forgets a peer's history. Called when a peer legitimately
// restarts (a fresh Register): its new process restarts its sequence
// space, which must not collide with its predecessor's.
func (d *Dedup) Reset(from string) {
	d.mu.Lock()
	delete(d.peers, from)
	d.mu.Unlock()
}
