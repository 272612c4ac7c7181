// Command perfbench is the repository's benchmark. One invocation runs
// one workload against SwissTM from a single process, checks its
// outputs, and prints every metric BENCHMARK.json declares. Run it from
// the repository root through the wrapper that builds it:
//
//	python3 perfbench/run.py --workload kv-read --seed 1 --seconds 30 --trace 0
//
// Workloads:
//
//	kv-read        txkv server in-process on loopback, WAL and coalescing
//	               off; 2 synchronous connections, closed loop, read-heavy.
//	kv-durable     the same server with a group-fsync WAL and commit
//	               coalescing; 2 pipelined connections, open loop.
//	stm-bench7-rw  STMBench7 read-write mix on 2 engine threads, no network.
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// measures an untraced half window, then a traced half window timed
// span by span around the benchmark's calls into each layer, and
// reports the per-layer metrics. The last line of standard output is
// the result object; the line before it is the full report (every
// metric's median and quartiles across its repeats, the checks, the
// host), also written under .bench_build/out. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// spec is the part of BENCHMARK.json the benchmark reads: which metrics
// to print, with which units.
type spec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(path string) (e2e, layer []metricSpec, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, m := range s.EndToEnd {
		e2e = append(e2e, metricSpec{m.Name, m.Unit})
	}
	for _, m := range s.PerLayer {
		layer = append(layer, metricSpec{m.Name, m.Unit})
	}
	return e2e, layer, nil
}

// runCtx is one benchmark run's shared state.
type runCtx struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	tmp      string // scratch directory for commit logs
	l        *ledger
	rep      *report
	spans    []*spanBuf
	epoch    time.Time // trace time origin
}

// windows returns the measured windows: one untraced window, or in a
// traced run an untraced half followed by a traced half.
func (c *runCtx) windows() []time.Duration {
	d := time.Duration(c.seconds) * time.Second
	if !c.trace {
		return []time.Duration{d}
	}
	return []time.Duration{d / 2, d / 2}
}

// traced reports whether window i is the traced one.
func (c *runCtx) traced(i int) bool { return c.trace && i == 1 }

// check records one correctness check; a failure fails the run and
// counts as a failed operation.
func (c *runCtx) check(name string, err error) {
	c.rep.Checks = append(c.rep.Checks, name)
	c.rep.Attempted++
	if err != nil {
		c.rep.Failed++
		c.rep.Failures = append(c.rep.Failures, name+": "+err.Error())
	}
}

// spanBuf returns a new span log for a traced window (nil otherwise).
func (c *runCtx) spanBuf(traced bool) *spanBuf {
	if !traced {
		return nil
	}
	b := newSpanBuf(c.epoch, len(c.spans)+1)
	c.spans = append(c.spans, b)
	return b
}

func main() {
	workload := flag.String("workload", "", "kv-read | kv-durable | stm-bench7-rw")
	seed := flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.Parse()

	if err := run(*workload, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// Paths relative to the repository root, where the benchmark runs.
const (
	specPath = "BENCHMARK.json"   // names the metrics to print
	outDir   = ".bench_build/out" // run reports and spans
)

func run(workload string, seed uint64, seconds, trace int) error {
	e2e, layer, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("bad --seconds %d or --trace %d", seconds, trace)
	}
	if seed == 0 {
		seed = 1 // 0 would ask the repo's seeders for time-derived seeds
	}
	var body func(*runCtx) error
	switch workload {
	case "kv-read":
		body = func(c *runCtx) error { return runKV(c, kvRead) }
	case "kv-durable":
		body = func(c *runCtx) error { return runKV(c, kvDurable) }
	case "stm-bench7-rw":
		body = runBench7
	default:
		return fmt.Errorf("unknown --workload %q", workload)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(filepath.Dir(outDir), "tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	c := &runCtx{
		workload: workload, seed: seed, seconds: seconds, trace: trace == 1,
		tmp: tmp, l: newLedger(), epoch: time.Now(),
		rep: &report{Workload: workload, Seed: seed, Seconds: seconds, Trace: trace == 1, Host: hostFingerprint()},
	}
	if err := body(c); err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}
	c.l.add("error_ratio", "fraction", ratio(float64(c.rep.Failed), float64(c.rep.Attempted)))

	want := e2e
	if c.trace {
		want = layer
		c.rep.Spans = filepath.Join(outDir, workload+".spans.csv")
		if err := writeSpans(c.rep.Spans, c.spans); err != nil {
			return err
		}
	} else {
		for _, m := range e2e {
			if _, ok := c.l.m[m.name]; !ok {
				return fmt.Errorf("end-to-end metric %s was not measured", m.name)
			}
		}
	}
	res, err := c.l.emit(c.rep, want)
	if err != nil {
		return err
	}
	repPath := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d.json", workload, seed, trace))
	if err := writeJSON(repPath, c.rep); err != nil {
		return err
	}
	repLine, err := json.Marshal(c.rep)
	if err != nil {
		return err
	}
	resLine, err := json.Marshal(res)
	if err != nil {
		return err
	}
	for _, f := range c.rep.Failures {
		fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", f)
	}
	fmt.Printf("report %s\n%s\n", repLine, resLine)
	return nil
}
