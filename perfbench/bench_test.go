package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// The incremental engine and the rescan oracle must land the same
// digest on the benchmark's own engine workloads, shortened.
func TestEnginesAgreeOnBenchmarkWorkloads(t *testing.T) {
	for _, tc := range []struct {
		name   string
		rounds int
	}{
		{"loaded-10k", 12},
		{"churn-1k", 240},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := lookup(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			o := passOpts{wrap: true, observe: w.observe, rounds: tc.rounds, outDir: t.TempDir()}
			inc := w.runPass(7, o)
			o.engine = core.EngineRescan
			res := w.runPass(7, o)
			for _, p := range []*pass{inc, res} {
				if p.err != nil || p.failed > 0 {
					t.Fatalf("pass failed: err=%v failed=%d", p.err, p.failed)
				}
			}
			// Quanta before the first arrival are skipped, not run.
			if inc.rounds < tc.rounds-1 || inc.rounds != res.rounds {
				t.Fatalf("ran %d (incremental) and %d (rescan) rounds, want %d", inc.rounds, res.rounds, tc.rounds)
			}
			if inc.digest != res.digest {
				t.Fatalf("incremental digest %s != rescan digest %s", inc.digest, res.digest)
			}
		})
	}
}

// The shadow PlaceIndexed replay behind placement.place_ms_p50 must
// reproduce the engine's placement: on loaded-10k its unplaced count
// equals ExecReport.Unplaced in every round.
func TestShadowPlacementReplaysEngine(t *testing.T) {
	w, err := lookup("loaded-10k")
	if err != nil {
		t.Fatal(err)
	}
	p := w.runPass(3, passOpts{wrap: true, traced: true, rounds: 15, outDir: t.TempDir()})
	if p.err != nil {
		t.Fatal(p.err)
	}
	l := p.probe.layers
	if len(l.shadowMS) != 15 || l.requested == 0 {
		t.Fatalf("replayed %d rounds with %d requests, want 15 rounds with work", len(l.shadowMS), l.requested)
	}
	if l.shadowMismatch != 0 {
		t.Fatalf("shadow replay disagreed with ExecReport.Unplaced in %d of 15 rounds", l.shadowMismatch)
	}
}

// A wrapped run must not perturb the program: same digest as bare.
func TestProbeDoesNotPerturb(t *testing.T) {
	w, err := lookup("distrib-hub-128")
	if err != nil {
		t.Fatal(err)
	}
	o := passOpts{rounds: 20, outDir: t.TempDir()}
	bare := w.runPass(5, o)
	o.wrap, o.traced = true, true
	traced := w.runPass(5, o)
	if bare.err != nil || traced.err != nil {
		t.Fatalf("bare err=%v traced err=%v", bare.err, traced.err)
	}
	if bare.digest != traced.digest {
		t.Fatalf("traced digest %s != bare digest %s", traced.digest, bare.digest)
	}
	if traced.failed != 0 || traced.attempted == 0 {
		t.Fatalf("missed %d of %d reports", traced.failed, traced.attempted)
	}
}

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.begin("round", -1, 1, 1, at(0))
	tr.add("a", root, 1, 1, at(10), at(40))
	tr.add("b", root, 1, 2, at(30), at(60)) // overlaps a by 10 ms
	tr.end(root, at(100))
	got := map[string]float64{}
	for _, lt := range tr.selfTimes() {
		got[lt.name] = lt.selfMS
	}
	if got["round"] != 50 || got["a"] != 30 || got["b"] != 30 {
		t.Fatalf("self times = %v, want round 50, a 30, b 30", got)
	}
	var buf bytes.Buffer
	if err := tr.encodeChrome(&buf, "test"); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 4 || doc.TraceEvents[1].Name != "round" || doc.TraceEvents[1].Dur != 100000 {
		t.Fatalf("chrome trace = %+v", doc.TraceEvents)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := percentile(xs, 0.5); got != 3 {
		t.Fatalf("p50 = %v, want 3", got)
	}
	if got := percentile(xs, 0.95); got != 4.8 {
		t.Fatalf("p95 = %v, want 4.8", got)
	}
	if percentile(nil, 0.5) != 0 || xs[0] != 4 {
		t.Fatal("percentile must handle empty input and leave xs unsorted")
	}
}

func TestSummaryLine(t *testing.T) {
	w, _ := lookup("churn-1k")
	r := &result{w: w, correct: true, attempted: 3, metrics: []metric{{"setup_s", "s", 0.25, 4}}}
	line, ok := summary([]*result{r})
	if !ok || strings.Contains(line, "\n") {
		t.Fatalf("summary = %q ok=%v", line, ok)
	}
	var got jsonResult
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatal(err)
	}
	if !got.Correct || got.Attempted != 3 || got.Metrics["setup_s"] != (jsonMetric{0.25, "s"}) {
		t.Fatalf("summary = %+v", got)
	}
}
