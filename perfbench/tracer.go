package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// spanRec is one timed interval at a layer boundary, recorded from the
// benchmark's side of a public call.
type spanRec struct {
	name       string
	start, end time.Time
	parent     int // index of the parent span, -1 for a root
	round      int // scheduling round (0 = set-up)
	tid        int // 1 = engine/central goroutine, 2+ = agent i-2
}

// tracer keeps spans in memory; they are written out once, at the end
// of the run. Agents record from their own goroutines, hence the lock.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []spanRec
}

func newTracer() *tracer { return &tracer{t0: wallNow()} }

// begin opens a span and returns its index; close it with end.
func (t *tracer) begin(name string, parent, round, tid int, start time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, spanRec{name: name, start: start, parent: parent, round: round, tid: tid})
	return len(t.spans) - 1
}

func (t *tracer) end(i int, at time.Time) {
	t.mu.Lock()
	t.spans[i].end = at
	t.mu.Unlock()
}

// add records a closed span.
func (t *tracer) add(name string, parent, round, tid int, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, spanRec{name: name, start: start, end: end, parent: parent, round: round, tid: tid})
	t.mu.Unlock()
}

// layerTime is one span name's share of the traced run.
type layerTime struct {
	name         string
	count        int
	totalMS      float64
	selfMS       float64 // duration minus the union of child intervals
	meanSelfUS   float64
	selfFraction float64 // of the summed round time
}

// selfTimes aggregates spans by name. A span's self time is its
// duration minus the part of its interval covered by its children.
func (t *tracer) selfTimes() []layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	agg := make(map[string]*layerTime)
	var rootTotal float64
	for i, s := range t.spans {
		dur := s.end.Sub(s.start)
		self := dur - covered(t.spans, children[i], s.start, s.end)
		a := agg[s.name]
		if a == nil {
			a = &layerTime{name: s.name}
			agg[s.name] = a
		}
		a.count++
		a.totalMS += ms(dur)
		a.selfMS += ms(self)
		if s.name == "round" {
			rootTotal += ms(dur)
		}
	}
	out := make([]layerTime, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].selfMS > out[j].selfMS })
	for i := range out {
		out[i].meanSelfUS = out[i].selfMS * 1e3 / float64(out[i].count)
		out[i].selfFraction = ratio(out[i].selfMS, rootTotal)
	}
	return out
}

// covered returns how much of [lo, hi] the given spans cover, counting
// overlapping children once.
func covered(spans []spanRec, idx []int, lo, hi time.Time) time.Duration {
	if len(idx) == 0 {
		return 0
	}
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(idx))
	for _, i := range idx {
		a, b := spans[i].start, spans[i].end
		if a.Before(lo) {
			a = lo
		}
		if hi.Before(b) {
			b = hi
		}
		if a.Before(b) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for k, v := range ivs {
		switch {
		case k == 0:
			cur = v
		case !cur.b.Before(v.a):
			if cur.b.Before(v.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	return total + cur.b.Sub(cur.a)
}

// writeChrome writes the spans as Chrome trace_event JSON (complete
// "X" events, microsecond timestamps), loadable in Perfetto.
func (t *tracer) writeChrome(path, process string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = t.encodeChrome(w, process)
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func (t *tracer) encodeChrome(w io.Writer, process string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := make([]event, 0, len(t.spans)+1)
	events = append(events, event{Name: "process_name", Ph: "M", PID: 1, Args: map[string]any{"name": process}})
	for i, s := range t.spans {
		events = append(events, event{
			Name: s.name, Cat: "perfbench", Ph: "X",
			TS:  float64(s.start.Sub(t.t0).Nanoseconds()) / 1e3,
			Dur: float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			PID: 1, TID: s.tid,
			Args: map[string]any{"id": i, "parent": s.parent, "round": s.round},
		})
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
