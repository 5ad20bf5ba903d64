package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"bulkgcd"
)

// runScan is the analyst's workload: parse a collected corpus file, then
// run the attack over it. Set-up is the parse (bulkgcd.ReadCorpus); the
// measured operation is one full Attack.Run. The parsed corpus and every
// operation's corpus are drawn one after another from the seed: the lane
// kernel's cost varies by up to 2.4 times between corpora of one shape
// (README.md says why), so one corpus per run would make the run's
// figure a draw of that variation rather than its average.
func runScan(e *env, s scanSpec, opts []bulkgcd.Option) (*outcome, error) {
	seeds := rand.New(rand.NewSource(e.seed))
	var genS float64
	drawn := 0
	next := func() (*scanCorpus, error) {
		t := time.Now()
		c, err := buildScanCorpus(e.pool, s, seeds.Int63())
		genS += time.Since(t).Seconds()
		drawn++
		return c, err
	}
	defer func() {
		fmt.Fprintf(e.log, "corpora: %d of %d keys generated in %.2fs (not timed)\n", drawn, s.Keys, genS)
	}()
	c, err := next()
	if err != nil {
		return nil, err
	}
	path := filepath.Join(e.dir, "corpus.txt")
	if err := writeCorpus(path, c.Moduli()); err != nil {
		return nil, err
	}

	o := newOutcome(e.traced)
	var parses []float64
	parseF := e.clock.around(func() {
		for i := 0; i < setupReps; i++ {
			runtime.GC()
			sp := o.tr.begin(0, 0, "corpus.read")
			d, err := readCorpus(path, c.Moduli())
			o.tr.end(sp)
			o.check(err)
			parses = append(parses, d)
		}
	})

	opts = append(opts[:len(opts):len(opts)], bulkgcd.WithWorkers(e.workers))
	atk := bulkgcd.New(opts...)
	var walls []float64
	untraced := func(c *scanCorpus) {
		moduli := c.Moduli()
		t := time.Now()
		rep, err := atk.Run(context.Background(), moduli)
		walls = append(walls, time.Since(t).Seconds())
		if err == nil {
			err = checkScan(c, rep)
		}
		o.check(err)
	}
	if !e.traced {
		var scaled []float64
		var keys float64
		err := repeat(e.budget, minOps, func(int) error {
			c, err := next()
			if err != nil {
				return err
			}
			f := e.clock.around(func() { untraced(c) })
			scaled = append(scaled, f*walls[len(walls)-1])
			keys += float64(len(c.Keys))
			return nil
		})
		if err != nil {
			return nil, err
		}
		logOps(e.log, "untraced Attack.Run", walls)
		logOps(e.log, "untraced Attack.Run at nominal speed", scaled)
		o.values["setup_s"] = parseF * median(parses)
		o.values["keys_per_s"] = keys / sum(scaled)
		o.values["verdict_p50_ms"] = 1000 * median(scaled)
		o.values["max_rss_mb"] = maxRSSMB()
		return o, nil
	}

	var snap bytes.Buffer
	traced := bulkgcd.New(append(opts, bulkgcd.WithMetrics(&snap))...)
	var layers []map[string]float64
	var twalls []float64
	err = repeat(e.budget, 2, func(n int) error {
		if n%2 == 0 { // U T T U ...: each corpus runs once each way
			if c, err = next(); err != nil {
				return err
			}
		}
		if !tracedTurn(n) {
			e.clock.around(func() { untraced(c) })
			return nil
		}
		e.clock.around(func() {
			snap.Reset()
			before := sampleProc()
			sp := o.tr.begin(len(twalls)+1, 0, "attack.run")
			rep, err := traced.Run(context.Background(), c.Moduli())
			wall := o.tr.end(sp)
			after := sampleProc()
			twalls = append(twalls, wall)
			if err == nil {
				layers = append(layers, scanLayers(parseProm(snap.String()), rep, wall, before, after, e.workers))
				err = checkScan(c, rep)
			}
			o.check(err)
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	logOps(e.log, "untraced Attack.Run", walls)
	logOps(e.log, "traced Attack.Run", twalls)
	o.values = medians(layers)
	o.values["corpus.parse_s"] = median(parses)
	o.values["host.speed"] = e.clock.speed()
	traceOverhead(o, walls, twalls)
	return o, nil
}

// tracedTurn says whether operation n of a traced run is a traced one.
// Untraced and traced operations alternate in the order U T T U, so host
// drift during the run falls on both sides alike, and neither side
// always runs first.
func tracedTurn(n int) bool { return n%4 == 1 || n%4 == 2 }

// repeat calls op(0), op(1), ... at least min times, and then again
// while one more call as long as the last would end within budget. A
// garbage collection runs before each call, outside op's timing, so one
// call's garbage is not collected on the next one's time. It stops at
// the first error.
func repeat(budget time.Duration, min int, op func(n int) error) error {
	start := time.Now()
	var last time.Duration
	for n := 0; n < min || time.Since(start)+last <= budget; n++ {
		runtime.GC()
		t := time.Now()
		if err := op(n); err != nil {
			return err
		}
		last = time.Since(t)
	}
	return nil
}

// logOps logs the spread of measured operation times.
func logOps(log io.Writer, what string, secs []float64) {
	fmt.Fprintf(log, "%s: %d operations, min %.4gs, median %.4gs, p95 %.4gs, max %.4gs\n",
		what, len(secs), quantile(secs, 0), median(secs), quantile(secs, 0.95), quantile(secs, 1))
}

// traceOverhead reports the traced against the untraced median
// operation time, both taken from one run's interleaved operations.
func traceOverhead(o *outcome, untraced, traced []float64) {
	u, t := 1000*median(untraced), 1000*median(traced)
	o.values["trace.untraced_p50_ms"] = u
	o.values["trace.traced_p50_ms"] = t
	o.values["trace.overhead_pct"] = 100 * (t - u) / u
}

// scanLayers splits one traced Attack.Run into its layers: the run span,
// the program's metric snapshot m, the report, and process counters.
func scanLayers(m map[string]float64, rep *bulkgcd.Report, runS float64, before, after procSample, workers int) map[string]float64 {
	elapsed := rep.Elapsed.Seconds()
	v := map[string]float64{
		"attack.run_s":         runS,
		"attack.interpret_s":   runS - elapsed,
		"batchgcd.product_s":   m["batchgcd_product_level_seconds_sum"],
		"batchgcd.remainder_s": m["batchgcd_remainder_level_seconds_sum"],
		"batchgcd.leaf_s":      m["batchgcd_leaf_gcd_seconds_sum"],
		"batchgcd.tree_ops":    m["batchgcd_tree_ops_total"],
		"bulk.pairs":           m["bulk_pairs_total"],
		"bulk.early_exits":     m["bulk_early_exits_total"],
		"bulk.block_s":         m["bulk_block_seconds_sum"],
		"lanes.occupancy":      m["bulk_lanes_occupancy"],
		"lanes.supersteps":     m["bulk_lanes_supersteps_total"],
		"lanes.refills":        m["bulk_lanes_refills_total"],
		"gcd.iterations":       float64(rep.Stats.Iterations),
		"gcd.memops":           float64(rep.Stats.MemOps),
		"engine.steals":        m["engine_steals_total"],
		"engine.busy_s":        m["engine_worker_busy_seconds_sum"],
		"proc.cpu_s":           after.cpu - before.cpu,
		"proc.gc_pause_s":      after.gcPause - before.gcPause,
	}
	if p := v["bulk.pairs"]; p > 0 && v["lanes.supersteps"] > 0 {
		v["lanes.ns_per_pair"] = 1e9 * v["bulk.block_s"] / p
	}
	if elapsed > 0 {
		v["engine.utilization"] = v["engine.busy_s"] / (float64(workers) * elapsed)
	}
	return v
}

// writeCorpus stores moduli in the corpus file format.
func writeCorpus(path string, moduli []*big.Int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := bulkgcd.WriteCorpus(f, moduli, "benchmark corpus"); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readCorpus times one bulkgcd.ReadCorpus of the file at path and checks
// that it returns moduli.
func readCorpus(path string, moduli []*big.Int) (float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	t := time.Now()
	got, err := bulkgcd.ReadCorpus(f)
	d := time.Since(t).Seconds()
	if err != nil {
		return d, err
	}
	if len(got) != len(moduli) {
		return d, fmt.Errorf("corpus read %d moduli, wrote %d", len(got), len(moduli))
	}
	for i := range got {
		if got[i].Cmp(moduli[i]) != 0 {
			return d, fmt.Errorf("corpus modulus %d reads back different", i)
		}
	}
	return d, nil
}
