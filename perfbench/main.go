// Command perfbench is the repository's benchmark. It drives the
// Gandiva_fair scheduler through its public APIs on three workloads —
// the in-process engine on a loaded and a churning cluster, and the
// distributed central with 128 agents over the in-process hub — and
// prints every metric by name, unit and sample count. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Untraced runs (-trace 0) report the end-to-end metrics; traced runs
// (-trace 1) report the per-layer metrics, write a Chrome trace_event
// span file and print per-layer self times. See README.md.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh -workload loaded-10k -seed 42 -seconds 25 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 42, "seed for the generated job trace, profiler noise and faults")
	seconds := fs.Float64("seconds", 25, "measure for at least this many seconds (untraced runs)")
	traceFlag := fs.Int("trace", 0, "1 = traced run: per-layer metrics, span file, tracing overhead")
	outDir := fs.String("out", ".bench_out", "directory for span files and flight-recorder dumps")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile at the end of the run to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1\n")
		return 2
	}
	var list []*spec
	if *name == "all" {
		list = workloads
	} else {
		w, err := lookup(*name)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 2
		}
		list = []*spec{w}
	}
	var stopProfile func() error
	if *cpuprofile != "" {
		var err error
		if stopProfile, err = startCPUProfile(*cpuprofile); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}

	rc := runConfig{seed: *seed, seconds: *seconds, traced: *traceFlag == 1, outDir: *outDir}
	var results []*result
	for _, w := range list {
		fmt.Fprintf(stdout, "== %s (trace=%d, gomaxprocs=%d)\n", w.name, *traceFlag, runtime.GOMAXPROCS(0))
		fmt.Fprintf(stdout, "why: %s\n", w.why)
		fmt.Fprintf(stdout, "inputs: %s\n", w.inputs(*seed))
		r := measure(w, rc, stdout)
		printResult(stdout, r)
		results = append(results, r)
	}

	if stopProfile != nil {
		if err := stopProfile(); err != nil {
			fmt.Fprintf(stderr, "perfbench: cpu profile: %v\n", err)
			return 1
		}
	}
	if *memprofile != "" {
		if err := writeHeapProfile(*memprofile); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	line, ok := summary(results)
	fmt.Fprintln(stdout, line)
	if !ok {
		return 1
	}
	return 0
}

func printResult(w io.Writer, r *result) {
	fmt.Fprintf(w, "digest: %s\n", r.digest)
	fmt.Fprintf(w, "%-30s %16s %-12s %8s\n", "metric", "value", "unit", "n")
	for _, m := range append(append([]metric(nil), r.metrics...), r.shown...) {
		fmt.Fprintf(w, "%-30s %16.6g %-12s %8d\n", m.name, m.value, m.unit, m.n)
	}
	verdict := "PASS"
	if !r.correct {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "correctness: %s (attempted %d, failed %d)\n", verdict, r.attempted, r.failed)
	for _, p := range r.problems {
		fmt.Fprintf(w, "  problem: %s\n", p)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// summary renders the final JSON line. With several workloads the
// metric names are prefixed by the workload's.
func summary(rs []*result) (string, bool) {
	out := jsonResult{Correct: true, Metrics: make(map[string]jsonMetric)}
	for _, r := range rs {
		out.Correct = out.Correct && r.correct
		out.Attempted += r.attempted
		out.Failed += r.failed
		for _, m := range r.metrics {
			key := m.name
			if len(rs) > 1 {
				key = r.w.name + "." + m.name
			}
			v := m.value
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
				out.Correct = false
			}
			out.Metrics[key] = jsonMetric{Value: v, Unit: m.unit}
		}
	}
	b, err := json.Marshal(out) // cannot fail: plain types, NaN and Inf replaced above
	if err != nil {
		return `{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}`, false
	}
	return string(b), out.Correct
}

func startCPUProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		_ = f.Close() // already failing; the start error is the one to report
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	err = pprof.WriteHeapProfile(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
