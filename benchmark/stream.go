package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"bulkgcd"
)

// runStream is the operator's workload, in rounds. Each round opens a
// registry on an empty directory, bulk-loads the seed keys with
// SubmitBatch, closes and reopens it (set-up), then one closed-loop
// client makes the stream's single-key Submit calls. The measured
// operation is one Submit. A traced run alternates untraced and traced
// rounds, as tracedTurn orders them. Like the scans' operations, every
// round draws its own keys from the seed.
func runStream(e *env, s streamSpec) (*outcome, error) {
	seeds := rand.New(rand.NewSource(e.seed))
	var genS float64
	rounds := 0
	defer func() {
		fmt.Fprintf(e.log, "streams: %d of %d seed keys and %d submissions generated in %.2fs (not timed)\n",
			rounds, s.SeedKeys, s.Stream, genS)
	}()

	o := newOutcome(e.traced)
	var setups, lats, wallSetups, wallLats, traced []float64
	var layers []map[string]float64
	var streamTime float64
	min := minOps
	if e.traced {
		min = 2 // one untraced and one traced round
	}
	var c *streamCorpus
	var buildErr error
	err := repeat(e.budget, min, func(n int) error {
		// A traced run orders rounds U T T U ..., and each stream
		// runs once each way.
		if !e.traced || n%2 == 0 {
			t := time.Now()
			c, buildErr = buildStreamCorpus(e.pool, s, seeds.Int63())
			if buildErr != nil {
				return buildErr
			}
			genS += time.Since(t).Seconds()
			rounds++
		}
		tracedRound := e.traced && tracedTurn(n)
		r, err := streamRound(e, c, o, n+1, tracedRound)
		if err != nil {
			return err
		}
		if tracedRound {
			traced = append(traced, r.lats...)
			layers = append(layers, r.layers)
			return nil
		}
		wallLats = append(wallLats, r.lats...)
		wallSetups = append(wallSetups, r.setup)
		setups = append(setups, r.setupF*r.setup)
		lats = append(lats, r.latsN...)
		streamTime += r.wallN
		return nil
	})
	if buildErr != nil {
		return nil, buildErr
	}
	if err != nil {
		return o, nil // the failure is counted in o
	}
	logOps(e.log, "untraced Submit", wallLats)
	logOps(e.log, "set-up", wallSetups)
	if !e.traced {
		logOps(e.log, "untraced Submit at nominal speed", lats)
		logOps(e.log, "set-up at nominal speed", setups)
		o.values["setup_s"] = median(setups)
		o.values["keys_per_s"] = float64(len(lats)) / streamTime
		o.values["verdict_p50_ms"] = 1000 * median(lats)
		o.values["max_rss_mb"] = maxRSSMB()
		return o, nil
	}
	logOps(e.log, "traced Submit", traced)
	o.values = medians(layers)
	o.values["registry.submit_p95_ms"] = 1000 * quantile(wallLats, 0.95)
	o.values["host.speed"] = e.clock.speed()
	traceOverhead(o, wallLats, traced)
	return o, nil
}

// roundResult is one registry round's measurements.
type roundResult struct {
	setup  float64   // open + bulk load + close + reopen, seconds
	lats   []float64 // per-Submit wall times, seconds
	wall   float64   // stream wall time, seconds
	layers map[string]float64
	// At nominal host speed: setupF scales the set-up; latsN and wallN
	// are lats and wall scaled chunk by chunk.
	setupF float64
	latsN  []float64
	wallN  float64
}

// refChunk is how many stream submissions run between two reference
// timings. Within one process, a round's median Submit time varies by
// about a fifth from round to round; timing the reference loop only
// around whole rounds left most of that in.
const refChunk = 64

// streamRound runs one round in a fresh directory. Every facade call is
// one checked operation; a call that errors ends the round, and the
// error is returned after it is counted.
func streamRound(e *env, c *streamCorpus, o *outcome, round int, traced bool) (roundResult, error) {
	var res roundResult
	dir, err := os.MkdirTemp(e.dir, "registry-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	// The reopened registry's metric snapshot, written by its Close,
	// covers the stream's submissions only.
	var snap bytes.Buffer
	opts := []bulkgcd.Option{bulkgcd.WithWorkers(e.workers)}
	streamOpts := opts
	var tr *tracer
	if traced {
		tr = o.tr
		streamOpts = append(opts[:1:1], bulkgcd.WithMetrics(&snap))
	}
	fail := func(err error) (roundResult, error) {
		o.check(err)
		return res, err
	}

	e.clock.start()
	t0 := time.Now()
	root := tr.begin(round, 0, "round")
	sp := tr.begin(round, root, "registry.open")
	reg, err := bulkgcd.OpenRegistry(dir, opts...)
	openS := tr.end(sp)
	if err != nil {
		return fail(err)
	}
	o.check(nil)
	seedSp := tr.begin(round, root, "registry.seed")
	seed := c.SeedModuli()
	for lo := 0; lo < len(seed); lo += c.spec.Batch {
		hi := min(lo+c.spec.Batch, len(seed))
		sp := tr.begin(round, seedSp, "registry.submit_batch")
		vs, err := reg.SubmitBatch(seed[lo:hi])
		tr.end(sp)
		if err != nil {
			reg.Close()
			return fail(err)
		}
		o.check(checkBatch(c.Seed[lo:hi], lo, vs))
	}
	seedS := tr.end(seedSp)
	sp = tr.begin(round, root, "registry.close")
	err = reg.Close()
	tr.end(sp)
	if err != nil {
		return fail(err)
	}
	o.check(nil)
	sp = tr.begin(round, root, "registry.open")
	reg, err = bulkgcd.OpenRegistry(dir, streamOpts...)
	openS += tr.end(sp)
	if err != nil {
		return fail(err)
	}
	o.check(nil)
	res.setup = time.Since(t0).Seconds()
	res.setupF = e.clock.split()

	statsBefore, procBefore := reg.Stats(), sampleProc()
	streamSp := tr.begin(round, root, "registry.stream")
	t1, from := time.Now(), 0
	for i, sub := range c.Stream {
		sp := tr.begin(round, streamSp, "registry.submit")
		t := time.Now()
		v, err := reg.Submit(sub.Key.N)
		res.lats = append(res.lats, time.Since(t).Seconds())
		tr.end(sp)
		if err != nil {
			reg.Close()
			return fail(err)
		}
		o.check(checkVerdict(sub, v))
		if (i+1)%refChunk == 0 || i+1 == len(c.Stream) {
			w := time.Since(t1).Seconds()
			f := e.clock.split()
			res.wall += w
			res.wallN += f * w
			for _, l := range res.lats[from:] {
				res.latsN = append(res.latsN, f*l)
			}
			t1, from = time.Now(), i+1
		}
	}
	tr.end(streamSp)
	statsAfter, procAfter := reg.Stats(), sampleProc()
	files := countFiles(dir)
	sp = tr.begin(round, root, "registry.close")
	err = reg.Close()
	tr.end(sp)
	tr.end(root)
	if err != nil {
		return fail(err)
	}
	o.check(nil)
	if !traced {
		return res, nil
	}

	n := float64(len(c.Stream))
	m := parseProm(snap.String())
	compute := m["registry_submit_seconds_sum"]
	var submitWall float64
	for _, l := range res.lats {
		submitWall += l
	}
	res.layers = map[string]float64{
		"registry.open_s":         openS,
		"registry.seed_s":         seedS,
		"registry.compute_s":      compute / n,
		"registry.sync_s":         (submitWall - compute) / n,
		"registry.spine_mults":    float64(statsAfter.SpineMults-statsBefore.SpineMults) / n,
		"registry.node_loads":     float64(statsAfter.NodeLoads-statsBefore.NodeLoads) / n,
		"registry.node_builds":    float64(statsAfter.NodeBuilds-statsBefore.NodeBuilds) / n,
		"registry.node_files":     float64(files),
		"registry.write_syscalls": (procAfter.syscw - procBefore.syscw) / n,
		"registry.write_bytes":    (procAfter.wchar - procBefore.wchar) / n,
		"proc.cpu_s":              (procAfter.cpu - procBefore.cpu) / n,
		"proc.gc_pause_s":         (procAfter.gcPause - procBefore.gcPause) / n,
	}
	return res, nil
}

// countFiles counts the regular files under dir; unreadable entries
// are skipped, as the count is only reported.
func countFiles(dir string) int {
	n := 0
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			n++
		}
		return nil
	})
	return n
}
