package bulk

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bulkgcd/internal/checkpoint"
	"bulkgcd/internal/engine"
	"bulkgcd/internal/mpnat"
	"bulkgcd/internal/obs"
)

// unitPool is the scaffolding the two bulk engines — all-pairs blocks
// and hybrid cells — share around the work-stealing
// scheduler (engine.RunStats): lazily built per-worker pairRunner
// arenas (worker indices are stable, so every arena stays pinned to one
// goroutine and the per-pair zero-alloc guarantees survive), resume
// skips, fault-injection hooks, checkpoint journaling with
// abort-on-error, per-unit metrics and tracing, and serialized
// progress. Units are claimed grain-1 from per-worker deques and
// rebalanced by steal-half, so a straggler unit (one dense block, one
// hot cell) no longer strands the rest of a statically partitioned
// pool; findings stay byte-identical at every pool size because each
// unit's output is accumulated per worker and merged+sorted exactly as
// before.
type unitPool struct {
	cfg     *Config
	moduli  []*mpnat.Nat
	maxBits int
	metrics *runMetrics
	runSpan *obs.Span
	// spanName names the per-unit child span and its index attribute
	// ("block" or "cell").
	spanName string
	// spanAttrs, when non-nil, supplies extra attributes for unit i's span.
	spanAttrs func(i int) []any
	resumed   map[int]checkpoint.Record
	total     int64
	resumed0  int64 // pairs restored from the resume journal
	// run computes unit i into blk using the worker's pairRunner and
	// must leave the runner's lane batch drained (pr.flush).
	run func(pr *pairRunner, i int, blk *blockOut)
	// observeUnit, when non-nil, sees each completed unit's duration
	// (the hybrid engine's cell histogram).
	observeUnit func(d time.Duration)
}

// execute runs n units across the scheduler and returns the per-worker
// outputs plus pool statistics. A checkpoint append error cancels the
// pool and is returned; ctx cancellation is not an error here (the
// caller reports a partial Result with Canceled set).
func (up *unitPool) execute(ctx context.Context, n, workers int) ([]blockOut, engine.PoolStats, error) {
	progress := obs.SerializeProgress(up.cfg.Progress)
	var done atomic.Int64
	done.Store(up.resumed0)
	if progress != nil && up.resumed0 > 0 {
		progress(up.resumed0, up.total)
	}
	var pairSeq atomic.Int64
	var ckptOnce sync.Once
	var ckptErr error

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	outs := make([]blockOut, workers)
	runners := make([]*pairRunner, workers)
	st, _ := engine.RunStats(runCtx, n, engine.PoolOptions{Workers: workers, Metrics: up.cfg.Metrics}, func(i, w int) {
		if _, ok := up.resumed[i]; ok {
			return // completed by the interrupted run
		}
		up.cfg.Fault.OnBlock(i)
		pr := runners[w]
		if pr == nil {
			r := newPairRunner(up.cfg, up.maxBits, up.moduli, &pairSeq, up.metrics)
			pr = &r
			runners[w] = pr
		}
		unitStart := time.Now()
		attrs := []any{up.spanName, i, "worker", w}
		if up.spanAttrs != nil {
			attrs = append(attrs, up.spanAttrs(i)...)
		}
		span := up.runSpan.StartChild(up.spanName, attrs...)
		var blk blockOut
		up.run(pr, i, &blk)
		unitDur := time.Since(unitStart)
		if up.cfg.Checkpoint != nil {
			ckStart := time.Now()
			err := up.cfg.Checkpoint.Append(blk.record(i))
			up.metrics.observeCheckpoint(time.Since(ckStart))
			if err != nil {
				ckptOnce.Do(func() { ckptErr = err; cancel() })
				return
			}
		}
		up.metrics.observeBlock(&blk, unitDur)
		if up.observeUnit != nil {
			up.observeUnit(unitDur)
		}
		span.End("pairs", blk.pairs, "factors", len(blk.factors), "bad_pairs", len(blk.bad))
		out := &outs[w]
		out.merge(&blk)
		out.busy += time.Since(unitStart)
		if progress != nil {
			progress(done.Add(blk.pairs), up.total)
		}
	})
	if ckptErr != nil {
		return nil, st, fmt.Errorf("bulk: checkpoint: %w", ckptErr)
	}
	return outs, st, nil
}
