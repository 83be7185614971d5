package comm

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/obs/span"
)

func TestSealVerifyRoundTrip(t *testing.T) {
	msgs := []Message{
		Register{Agent: "a", Gen: 1, GPUs: 4},
		RegisterAck{OK: true},
		RoundPlan{Round: 3, Epoch: 2, Lease: 4, AckRound: 1, Quantum: 360,
			Jobs: []JobAssignment{{JobID: 7, User: "u", Gang: 1, LocalGPUs: []int{0}, TotalMB: 100}}},
		RoundReport{Agent: "a", Round: 3, Epoch: 2,
			Jobs: []JobProgress{{JobID: 7, DoneMB: 50, UsedSecs: 360}}},
		Shutdown{},
	}
	for i, m := range msgs {
		e, err := Seal(Envelope{From: "a", Seq: uint64(i + 1), Msg: m})
		if err != nil {
			t.Fatalf("seal %T: %v", m, err)
		}
		if e.Sum == 0 {
			t.Fatalf("seal %T left Sum 0", m)
		}
		if !Verify(e) {
			t.Errorf("sealed %T does not verify", m)
		}
	}
}

func TestVerifyDetectsMutation(t *testing.T) {
	e, err := Seal(Envelope{From: "a", Seq: 1, Msg: RoundReport{Agent: "a", Round: 2,
		Jobs: []JobProgress{{JobID: 1, DoneMB: 10}}}})
	if err != nil {
		t.Fatal(err)
	}
	// Mutate the payload after sealing, exactly like the corruption
	// injector does: the checksum no longer matches.
	m := e.Msg.(RoundReport)
	m.Round += 1 << 20
	e.Msg = m
	if Verify(e) {
		t.Error("mutated payload verified")
	}
	// The sequence number is not covered by the payload checksum (the
	// dedup layer owns it), but the checksum still rejects a swapped
	// payload under any seq.
	e2, _ := Seal(Envelope{From: "a", Seq: 9, Msg: RoundReport{Agent: "a", Round: 2}})
	e2.Msg = RoundReport{Agent: "a", Round: 3}
	if Verify(e2) {
		t.Error("swapped payload verified")
	}
}

func TestVerifyUnsealedPasses(t *testing.T) {
	// Sum 0 means "not sealed" (legacy senders, unencodable payloads):
	// verification must not reject it.
	if !Verify(Envelope{From: "a", Seq: 1, Msg: Shutdown{}}) {
		t.Error("unsealed envelope rejected")
	}
}

func TestDedupDropsReplays(t *testing.T) {
	d := NewDedup()
	if d.Duplicate("a", 5) {
		t.Error("first delivery flagged as duplicate")
	}
	if !d.Duplicate("a", 5) {
		t.Error("replay not flagged")
	}
	if d.Duplicate("a", 4) {
		t.Error("out-of-order first delivery flagged")
	}
	if !d.Duplicate("a", 4) {
		t.Error("out-of-order replay not flagged")
	}
	// Seq 0 opts out of dedup entirely (legacy raw sends).
	if d.Duplicate("a", 0) || d.Duplicate("a", 0) {
		t.Error("seq-0 envelopes must never be flagged")
	}
	// Peers are independent.
	if d.Duplicate("b", 5) {
		t.Error("peer b's first delivery flagged")
	}
}

func TestDedupResetForgetsPeer(t *testing.T) {
	d := NewDedup()
	if d.Duplicate("a", 1) {
		t.Fatal("first delivery flagged")
	}
	d.Reset("a")
	// A restarted agent restarts its sequence space: after Reset the
	// old numbers are fresh again.
	if d.Duplicate("a", 1) {
		t.Error("post-reset delivery flagged as duplicate")
	}
}

func TestDedupWindowBounded(t *testing.T) {
	d := NewDedup()
	n := uint64(3 * 4096) // far past the retention window
	for i := uint64(1); i <= n; i++ {
		if d.Duplicate("a", i) {
			t.Fatalf("fresh seq %d flagged", i)
		}
	}
	// Recent history is still exact.
	if !d.Duplicate("a", n) {
		t.Error("recent replay not flagged")
	}
	// Sequence numbers below the pruned floor are conservatively
	// treated as duplicates rather than remembered individually.
	if !d.Duplicate("a", 1) {
		t.Error("ancient replay below the window not flagged")
	}
}

// flakyDupTransport fails the first Send per destination, then
// delivers every successful send twice — the worst-case wire for a
// retrying sender.
type flakyDupTransport struct {
	Transport
	failed map[string]bool
}

func (f *flakyDupTransport) Send(to string, e Envelope) error {
	if !f.failed[to] {
		f.failed[to] = true
		return fmt.Errorf("flaky: first attempt to %s dropped", to)
	}
	if err := f.Transport.Send(to, e); err != nil {
		return err
	}
	return f.Transport.Send(to, e)
}

// TestRetrierDedupInterplay drives a Retrier over a transport that
// both fails (forcing retries) and duplicates deliveries: because the
// sequence number is stamped once per logical send, the receiving
// Dedup applies each message exactly once no matter how many copies
// the wire produced.
func TestRetrierDedupInterplay(t *testing.T) {
	hub := NewHub()
	sender, err := hub.Attach("sender")
	if err != nil {
		t.Fatal(err)
	}
	recv, err := hub.Attach("recv")
	if err != nil {
		t.Fatal(err)
	}
	wire := &flakyDupTransport{Transport: sender, failed: make(map[string]bool)}
	r := NewRetrier(RetryPolicy{MaxAttempts: 3, BaseDelay: 1, MaxDelay: 1, Seed: 1})

	const sends = 20
	for i := 0; i < sends; i++ {
		if err := r.Send(wire, "recv", Envelope{From: "sender", Msg: RoundReport{Agent: "sender", Round: i + 1}}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}

	d := NewDedup()
	applied := 0
	for i := 0; i < sends*2; i++ { // every send delivered twice
		env := <-recv.Recv()
		if !Verify(env) {
			t.Fatalf("delivery %d failed verification", i)
		}
		if d.Duplicate(env.From, env.Seq) {
			continue
		}
		applied++
	}
	if applied != sends {
		t.Errorf("applied %d of %d logical sends (duplication leaked through)", applied, sends)
	}
}

// protocolSamples returns one instance of every protocol message type
// with every field set, nested slices and spans included.
func protocolSamples() []Message {
	return []Message{
		Register{Agent: "k80-0", Gen: 2, GPUs: 8},
		RegisterAck{OK: true, Reason: "welcome"},
		RoundPlan{Round: 3, Quantum: 360, Epoch: 2, Lease: 4, AckRound: 1, Trace: 4, Span: 99,
			Jobs: []JobAssignment{{JobID: 7, User: "u", Model: "resnet50", Gang: 2, LocalGPUs: []int{0, 3},
				DoneMB: 10.5, TotalMB: 100, GangRate: 1.25, Overhead: 20, Shard: 0.5}}},
		RoundReport{Agent: "k80-0", Round: 3, Epoch: 2,
			Jobs: []JobProgress{{JobID: 7, DoneMB: 50, Finished: true, UsedSecs: 340}},
			Spans: []span.Span{{Trace: 4, ID: 11, Parent: 99, Name: "execute", Proc: "k80-0",
				Round: 3, SimAt: 720, StartNs: 1700000000, DurNs: 1234}}},
		Shutdown{},
	}
}

// fillSlices makes every slice reachable from v hold one zero element,
// so the leaf walk below reaches slice element fields too.
func fillSlices(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillSlices(v.Field(i))
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillSlices(v.Index(0))
	}
}

// leaves calls visit with the path and value of every scalar field
// reachable from v, in declaration order.
func leaves(t *testing.T, path string, v reflect.Value, visit func(string, reflect.Value)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			leaves(t, path+"."+v.Type().Field(i).Name, v.Field(i), visit)
		}
	case reflect.Slice:
		leaves(t, path+"[0]", v.Index(0), visit)
	case reflect.Bool, reflect.String, reflect.Float32, reflect.Float64,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		visit(path, v)
	default:
		t.Fatalf("%s: field kind %v has no checksum rule; extend Checksum and this test", path, v.Kind())
	}
}

func setNonZero(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString("x")
	case reflect.Float32, reflect.Float64:
		v.SetFloat(1)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(1)
	default:
		v.SetUint(1)
	}
}

// TestChecksumCoversEveryField sets each scalar field of every
// protocol message — slice elements and span fields included — to a
// non-zero value in turn and requires the checksum to change, and to
// differ from every other single-field change. A protocol field the
// hasher does not cover fails here.
func TestChecksumCoversEveryField(t *testing.T) {
	for _, m := range protocolSamples() {
		typ := reflect.TypeOf(m)
		base := reflect.New(typ).Elem()
		fillSlices(base)
		baseSum, err := Checksum(base.Interface())
		if err != nil {
			t.Fatalf("%v: %v", typ, err)
		}
		var paths []string
		leaves(t, typ.Name(), base, func(p string, _ reflect.Value) { paths = append(paths, p) })
		seen := map[uint64]string{baseSum: typ.Name() + " (all zero)"}
		for k, p := range paths {
			v := reflect.New(typ).Elem()
			fillSlices(v)
			i := 0
			leaves(t, typ.Name(), v, func(_ string, leaf reflect.Value) {
				if i == k {
					setNonZero(leaf)
				}
				i++
			})
			got, err := Checksum(v.Interface())
			if err != nil {
				t.Fatalf("%s: %v", p, err)
			}
			if prev, dup := seen[got]; dup {
				t.Errorf("setting %s gives the same checksum as %s", p, prev)
			}
			seen[got] = p
		}
	}
}

func TestChecksumNilAndEmptySlicesEqual(t *testing.T) {
	pairs := [][2]Message{
		{RoundPlan{Round: 1}, RoundPlan{Round: 1, Jobs: []JobAssignment{}}},
		{RoundPlan{Jobs: []JobAssignment{{JobID: 1}}}, RoundPlan{Jobs: []JobAssignment{{JobID: 1, LocalGPUs: []int{}}}}},
		{RoundReport{Agent: "a"}, RoundReport{Agent: "a", Jobs: []JobProgress{}, Spans: []span.Span{}}},
	}
	for _, p := range pairs {
		a, errA := Checksum(p[0])
		b, errB := Checksum(p[1])
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		if a != b {
			t.Errorf("nil and empty slices hash differently: %+v vs %+v", p[0], p[1])
		}
	}
}

// TestChecksumSurvivesGobRoundTrip sends every sealed message through
// the TCP transport's codec (a gob-encoded wireFrame) and verifies the
// decoded payload against the sender's sum. Gob turns empty slices
// into nil, so the empty-slice variants matter.
func TestChecksumSurvivesGobRoundTrip(t *testing.T) {
	msgs := append(protocolSamples(),
		RoundPlan{Round: 1, Jobs: []JobAssignment{{JobID: 1, LocalGPUs: []int{}}}},
		RoundReport{Agent: "a", Jobs: []JobProgress{}, Spans: []span.Span{}},
	)
	for _, m := range msgs {
		e, err := Seal(Envelope{From: "a", Seq: 1, Msg: m})
		if err != nil {
			t.Fatalf("seal %T: %v", m, err)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(wireFrame{From: "a", To: "b", Msg: e.Msg}); err != nil {
			t.Fatalf("encode %T: %v", m, err)
		}
		var f wireFrame
		if err := gob.NewDecoder(&buf).Decode(&f); err != nil {
			t.Fatalf("decode %T: %v", m, err)
		}
		if !Verify(Envelope{From: f.From, Seq: 1, Sum: e.Sum, Msg: f.Msg}) {
			t.Errorf("%T does not verify after a gob round trip: sent %+v, got %+v", m, m, f.Msg)
		}
	}
}

// TestChecksumGolden pins one sum per message type. A change here is a
// wire-protocol change: a central and its agents must then be rebuilt
// together.
func TestChecksumGolden(t *testing.T) {
	want := []uint64{
		0xf3a5e7bb8bd97959, // Register
		0xe99ad7e2b1510403, // RegisterAck
		0x5c4a768c2a93b81c, // RoundPlan
		0x58bd898a9496a87c, // RoundReport
		0x0de21504f16dc720, // Shutdown
	}
	for i, m := range protocolSamples() {
		got, err := Checksum(m)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		if got != want[i] {
			t.Errorf("Checksum(%T) = %#x, want %#x", m, got, want[i])
		}
	}
}

func TestChecksumRejectsUnknownTypes(t *testing.T) {
	for _, m := range []Message{nil, "text", &Register{Agent: "a"}, struct{ X int }{1}} {
		if _, err := Checksum(m); err == nil {
			t.Errorf("Checksum(%T) succeeded", m)
		}
		e, err := Seal(Envelope{From: "a", Seq: 1, Msg: m})
		if err == nil || e.Sum != 0 {
			t.Errorf("Seal(%T) = Sum %#x, %v; want unsealed with an error", m, e.Sum, err)
		}
		if Verify(Envelope{From: "a", Seq: 1, Sum: 42, Msg: m}) {
			t.Errorf("sealed %T verified", m)
		}
	}
}

// sixteenJobPlan is a RoundPlan the size of a busy agent's.
func sixteenJobPlan() Envelope {
	plan := RoundPlan{Round: 9, Quantum: 360, Epoch: 1, Lease: 2, AckRound: 8, Trace: 10, Span: 77}
	for i := 0; i < 16; i++ {
		plan.Jobs = append(plan.Jobs, JobAssignment{JobID: int64(i), User: "user-3", Model: "vgg16",
			Gang: 1, LocalGPUs: []int{i % 8}, DoneMB: float64(i), TotalMB: 1e5, GangRate: 2.5, Shard: 1})
	}
	return Envelope{From: "central", Seq: 1, Msg: plan}
}

func TestSealVerifyAllocFree(t *testing.T) {
	e := sixteenJobPlan()
	allocs := testing.AllocsPerRun(100, func() {
		sealed, err := Seal(e)
		if err != nil || !Verify(sealed) {
			t.Fatal("seal/verify failed")
		}
	})
	if allocs != 0 {
		t.Errorf("Seal+Verify of a 16-job plan allocates %v times, want 0", allocs)
	}
}

func BenchmarkSealVerify(b *testing.B) {
	e := sixteenJobPlan()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sealed, _ := Seal(e)
		if !Verify(sealed) {
			b.Fatal("verify failed")
		}
	}
}

// mapDedup is the exact map-backed Dedup the bitmap window replaced,
// kept as the oracle for in-window streams: while a peer has at most
// 4096 distinct sequence numbers it never prunes, so it answers every
// query exactly.
type mapDedup struct {
	window int
	peers  map[string]*mapPeer
}

type mapPeer struct {
	seen  map[uint64]bool
	max   uint64
	floor uint64
}

func (d *mapDedup) Duplicate(from string, seq uint64) bool {
	if seq == 0 {
		return false
	}
	p := d.peers[from]
	if p == nil {
		p = &mapPeer{seen: make(map[uint64]bool)}
		d.peers[from] = p
	}
	if seq <= p.floor || p.seen[seq] {
		return true
	}
	p.seen[seq] = true
	if seq > p.max {
		p.max = seq
	}
	if len(p.seen) > d.window {
		floor := uint64(0)
		if p.max > uint64(d.window/2) {
			floor = p.max - uint64(d.window/2)
		}
		p.floor = floor
		for s := range p.seen {
			if s <= floor {
				delete(p.seen, s)
			}
		}
	}
	return false
}

// TestDedupMatchesMapOnInWindowStreams replays random streams —
// replays, out-of-order first deliveries, gaps, several peers — into
// the bitmap window and the map oracle and requires identical answers.
// Streams start at a random base so the ring wraps at arbitrary
// offsets, and stay under 4096 distinct numbers per peer so the
// oracle is exact.
func TestDedupMatchesMapOnInWindowStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		d := NewDedup()
		oracle := &mapDedup{window: 4096, peers: make(map[string]*mapPeer)}
		base := map[string]uint64{}
		next := map[string]uint64{}
		sent := map[string][]uint64{}
		for step := 0; step < 6000; step++ {
			peer := fmt.Sprintf("p%d", rng.Intn(3))
			if _, ok := base[peer]; !ok {
				base[peer] = uint64(rng.Int63n(1 << 40))
				next[peer] = base[peer]
			}
			var seq uint64
			switch r := rng.Intn(10); {
			case r < 5 || len(sent[peer]) == 0: // fresh, possibly past a gap
				next[peer] += 1 + uint64(rng.Intn(3))
				seq = next[peer]
			case r < 8: // replay of something already delivered
				seq = sent[peer][rng.Intn(len(sent[peer]))]
			default: // out-of-order first delivery below the max
				seq = next[peer] - uint64(rng.Intn(int(next[peer]-base[peer])))
			}
			if seq-base[peer] > 4000 {
				continue // keep the oracle exact
			}
			want := oracle.Duplicate(peer, seq)
			if got := d.Duplicate(peer, seq); got != want {
				t.Fatalf("trial %d step %d: Duplicate(%s, base+%d) = %v, map says %v",
					trial, step, peer, seq-base[peer], got, want)
			}
			sent[peer] = append(sent[peer], seq)
		}
	}
}

// TestDedupWindowLongStream checks the window rule on a stream far
// longer than the window: within (max-4096, max] answers are exact
// (a gap left 4000 below the maximum is still fresh), at or below
// max-4096 everything counts as seen.
func TestDedupWindowLongStream(t *testing.T) {
	d := NewDedup()
	for s := uint64(1); s <= 20000; s++ {
		if s%1000 == 0 {
			continue // gaps
		}
		if d.Duplicate("a", s) {
			t.Fatalf("fresh seq %d flagged", s)
		}
	}
	if d.Duplicate("a", 17000) {
		t.Error("gap inside the window flagged")
	}
	if !d.Duplicate("a", 17000) {
		t.Error("replay of a filled gap not flagged")
	}
	if !d.Duplicate("a", 16999) {
		t.Error("in-window replay not flagged")
	}
	if !d.Duplicate("a", 20000-4096) {
		t.Error("seq at max-4096 not treated as seen")
	}
	if !d.Duplicate("a", 20000-4095) {
		t.Error("delivered seq at the window's bottom not flagged")
	}
}

// TestDedupEpochJump: a restored central salts its sequence numbers
// with epoch<<32, so the receiver's window jumps by ~2^32. A late
// plan from the previous incarnation then lies far below the window
// and is dropped as seen; the epoch fence is the second line of
// defense (TestAgentDropsLatePreviousEpochPlan covers both together).
func TestDedupEpochJump(t *testing.T) {
	d := NewDedup()
	for s := uint64(1); s <= 5; s++ {
		if d.Duplicate("central", 1<<32+s) {
			t.Fatalf("epoch-1 seq %d flagged", s)
		}
	}
	if d.Duplicate("central", 2<<32+1) {
		t.Fatal("first epoch-2 envelope flagged")
	}
	if !d.Duplicate("central", 1<<32+6) {
		t.Error("late epoch-1 envelope after the jump not flagged")
	}
	if d.Duplicate("central", 2<<32+2) {
		t.Error("next epoch-2 envelope flagged")
	}
}
