// Command benchmark is the repository benchmark. It generates seeded
// inputs, runs one workload through the public bulkgcd facade, checks
// every output against ground truth, and prints one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// tracing off; with -trace 1 they are the per-layer ones, measured from
// spans around facade calls, the program's metric snapshot and OS
// counters, plus the tracing overhead. See README.md for the workloads
// and the metric map. Build and run it with run.sh from the repository
// root:
//
//	bash benchmark/run.sh --workload scan-batch --seed 1 --seconds 36 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/big"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"bulkgcd"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the user-visible metrics, reported by every untraced run.
// An operation is one Attack.Run on the scans and one Submit on the
// registry stream; every key of a scan waits for the whole run, so a
// scan key's verdict latency is the run's wall time.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"keys_per_s", "1/s"},
	{"verdict_p50_ms", "ms"},
	{"max_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. A layer the workload does not
// drive reports 0. Times and counts are per operation.
var perLayer = []metricDef{
	{"corpus.parse_s", "s"},
	{"attack.run_s", "s"},
	{"attack.interpret_s", "s"},
	{"batchgcd.product_s", "s"},
	{"batchgcd.remainder_s", "s"},
	{"batchgcd.leaf_s", "s"},
	{"batchgcd.tree_ops", "count"},
	{"bulk.pairs", "count"},
	{"bulk.early_exits", "count"},
	{"bulk.block_s", "s"},
	{"lanes.ns_per_pair", "ns"},
	{"lanes.occupancy", "ratio"},
	{"lanes.supersteps", "count"},
	{"lanes.refills", "count"},
	{"gcd.iterations", "count"},
	{"gcd.memops", "count"},
	{"engine.steals", "count"},
	{"engine.busy_s", "s"},
	{"engine.utilization", "ratio"},
	{"registry.open_s", "s"},
	{"registry.seed_s", "s"},
	{"registry.submit_p95_ms", "ms"},
	{"registry.compute_s", "s"},
	{"registry.sync_s", "s"},
	{"registry.spine_mults", "count"},
	{"registry.node_loads", "count"},
	{"registry.node_builds", "count"},
	{"registry.node_files", "count"},
	{"registry.write_syscalls", "count"},
	{"registry.write_bytes", "B"},
	{"proc.cpu_s", "s"},
	{"proc.gc_pause_s", "s"},
	{"trace.untraced_p50_ms", "ms"},
	{"trace.traced_p50_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"host.speed", "ratio"},
}

// workload is one benchmark input set: a scan over a corpus file or a
// registry stream.
type workload struct {
	name   string
	scan   *scanSpec
	opts   []bulkgcd.Option // engine options of a scan
	stream *streamSpec
}

// workloads must match BENCHMARK.json; README.md says why each exists.
var workloads = []workload{
	{
		name: "scan-batch",
		scan: &scanSpec{Keys: 2048, Pairs: 16, Dups: 1},
		opts: []bulkgcd.Option{bulkgcd.WithEngine(bulkgcd.EngineBatch)},
	},
	{
		name: "scan-pairs",
		scan: &scanSpec{Keys: 512, Pairs: 8, Dups: 1},
		opts: []bulkgcd.Option{bulkgcd.WithEngine(bulkgcd.EnginePairs), bulkgcd.WithKernel(bulkgcd.KernelLanes)},
	},
	{
		name:   "registry-stream",
		stream: &streamSpec{SeedKeys: 512, Batch: 64, Stream: 256, Shared: 13, Dups: 3, Malformed: 3},
	},
}

// pool is the prime pool every workload draws from, shipped as
// poolFile: 4096 primes of 1024 bits, so every modulus has 2048 bits.
// scan-batch, the largest workload, uses 4078 of them.
var pool = poolSpec{Bits: 1024, Count: 4096, Seed: 20150525}

// Fewest operations of an untraced run (scan runs, registry rounds),
// and corpus parses per scan run.
const (
	minOps    = 3
	setupReps = 101
)

// env is what one workload run needs.
type env struct {
	pool    []*big.Int
	seed    int64
	budget  time.Duration // measuring time of the run
	traced  bool
	workers int
	clock   *hostClock // reference loop that scales untraced times
	dir     string
	log     io.Writer
}

// outcome collects a run's checks and metric values.
type outcome struct {
	attempted, failed int
	firstErr          error
	values            map[string]float64
	tr                *tracer
}

func newOutcome(traced bool) *outcome {
	o := &outcome{values: map[string]float64{}}
	if traced {
		o.tr = newTracer()
	}
	return o
}

// check counts one operation, failed when err is non-nil.
func (o *outcome) check(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		if o.firstErr == nil {
			o.firstErr = err
		}
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the command's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result reports the end-to-end metrics, or with traced the per-layer
// ones. A value under a name neither list defines is a bug.
func (o *outcome) result(traced bool) (result, error) {
	known := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		known[d.name] = true
	}
	for name := range o.values {
		if !known[name] {
			return result{}, fmt.Errorf("metric %q is not defined", name)
		}
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	r := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		r.Metrics[d.name] = metric{Value: o.values[d.name], Unit: d.unit}
	}
	return r, nil
}

// runWorkload runs w in e.
func runWorkload(e *env, w workload) (*outcome, error) {
	if w.scan != nil {
		return runScan(e, *w.scan, w.opts)
	}
	return runStream(e, *w.stream)
}

// runProcess loads the prime pool and runs w for budget in a scratch
// directory under data.
func runProcess(w *workload, seed int64, budget time.Duration, traced bool, workers int, data string, log io.Writer) (*outcome, error) {
	primes, err := loadPool(poolFile, pool)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(data, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(data, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e := &env{pool: primes, seed: seed, budget: budget, traced: traced, workers: workers,
		clock: newHostClock(workers), dir: dir, log: log}
	o, err := runWorkload(e, *w)
	logOps(log, "reference loop", e.clock.times)
	return o, err
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "scan-batch, scan-pairs or registry-stream")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 36, "measuring time in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	data := fs.String("data", ".bench_build/data", "directory for scratch files and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || (*trace != 0 && *trace != 1) || *seconds < 0 || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: bad arguments %q\n", args)
		fs.Usage()
		return 2
	}

	workers := runtime.NumCPU()
	traced := *trace == 1
	o, err := runProcess(w, *seed, time.Duration(*seconds)*time.Second, traced, workers, *data, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	if o.tr != nil {
		path := filepath.Join(*data, fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, *seed))
		if err := o.tr.write(path); err != nil {
			fmt.Fprintf(stderr, "benchmark: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "spans: %s\n", path)
	}
	res, err := o.result(traced)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if o.firstErr != nil {
		fmt.Fprintf(stderr, "benchmark: %s: first failure: %v\n", w.name, o.firstErr)
	}
	fmt.Fprintf(stdout, "%s seed=%d workers=%d error_rate=%g (%d of %d operations failed)\n",
		w.name, *seed, workers, float64(o.failed)/float64(max(o.attempted, 1)), o.failed, o.attempted)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct || res.Attempted == 0 {
		return 1
	}
	return 0
}
