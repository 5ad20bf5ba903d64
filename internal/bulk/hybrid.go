package bulk

import (
	"context"
	"fmt"
	"math/big"
	"time"

	"bulkgcd/internal/checkpoint"
	"bulkgcd/internal/gcd"
	"bulkgcd/internal/mpnat"
	"bulkgcd/internal/subprod"
)

// The hybrid engine sits between the paper's all-pairs computation and
// Bernstein's batch GCD: the corpus is cut into tiles of T moduli, and
// each cross-tile cell (A, B) is first interrogated with one subproduct
// GCD per row modulus,
//
//	g_i = gcd(n_i, Π(tile B) mod n_i)
//
// Any factor n_i shares with any n_j in tile B divides both n_i and
// Π(tile B), hence divides Π(tile B) mod n_i, hence divides g_i — so
// g_i = 1 proves n_i coprime to every modulus of tile B and the whole
// row of T pairs is skipped with one division and one GCD. Only rows
// with g_i > 1 descend to the exact per-pair runner, which is why the
// hybrid's findings are byte-identical to the all-pairs engine at every
// tile size: skipped pairs are proven coprime (the all-pairs engine
// would have reported nothing for them) and descended pairs run the
// identical kernel with the identical options. Diagonal cells (A, A)
// always descend — Π(tile A) ≡ 0 mod n_i makes the filter vacuous
// there.
//
// Tile subproducts are math/big products, built once and cached under
// Config.SubprodBudget (LRU); the filter's division runs on math/big
// too, and its remainder crosses into the word representation only for
// the full GCD, which stays on the paper kernel. The work unit for
// scheduling, checkpointing and cancellation is one cell, so every
// journaled cell is final and an interrupted run resumes exactly like
// the all-pairs engine.

// hybridCell is one tile-pair work unit, A <= B (tile indices).
type hybridCell struct {
	A, B int
}

// hybridPlan is the validated shape of a hybrid run.
type hybridPlan struct {
	active  []int
	bigs    []*big.Int // math/big copy of each active modulus, by input index
	maxBits int
	bad     []Quarantined
	tile    int          // tile width T
	cells   []hybridCell // deterministic row-major order
	total   int64        // covered pairs: len(active)*(len(active)-1)/2
	header  checkpoint.Header
}

// tileSpan returns the active-index range [lo, hi) of tile t.
func (p *hybridPlan) tileSpan(t int) (lo, hi int) {
	lo = t * p.tile
	hi = lo + p.tile
	if hi > len(p.active) {
		hi = len(p.active)
	}
	return lo, hi
}

func (p *hybridPlan) tiles() int {
	return (len(p.active) + p.tile - 1) / p.tile
}

func planHybrid(moduli []*mpnat.Nat, cfg Config) (*hybridPlan, error) {
	if err := validateKernel(cfg); err != nil {
		return nil, err
	}
	active, maxBits, bad, err := validateSet(moduli, cfg.Quarantine)
	if err != nil {
		return nil, err
	}
	if len(active) < 2 {
		return nil, fmt.Errorf("bulk: need at least 2 usable moduli, got %d", len(active))
	}
	t := cfg.TileSize
	if t <= 0 {
		t = 64
	}
	if t > len(active) {
		t = len(active)
	}
	p := &hybridPlan{active: active, bigs: make([]*big.Int, len(moduli)), maxBits: maxBits, bad: bad, tile: t}
	for _, i := range active {
		p.bigs[i] = moduli[i].ToBig()
	}
	nt := p.tiles()
	for a := 0; a < nt; a++ {
		for b := a; b < nt; b++ {
			p.cells = append(p.cells, hybridCell{A: a, B: b})
		}
	}
	m := int64(len(active))
	p.total = m * (m - 1) / 2
	p.header = checkpoint.Header{
		V:           checkpoint.Version,
		Engine:      "hybrid",
		Fingerprint: fingerprint("hybrid", cfg, t, moduli),
		Units:       len(p.cells),
		TotalPairs:  p.total,
	}
	return p, nil
}

// HybridJournalHeader returns the checkpoint header a Hybrid run over
// these inputs writes (the hybrid counterpart of JournalHeader).
func HybridJournalHeader(moduli []*mpnat.Nat, cfg Config) (checkpoint.Header, error) {
	plan, err := planHybrid(moduli, cfg)
	if err != nil {
		return checkpoint.Header{}, err
	}
	return plan.header, nil
}

// filterHit runs the subproduct filter for row modulus n (nb its
// math/big copy): true means the row must descend to per-pair GCDs,
// false proves the whole row coprime. A panic inside the filter
// conservatively descends (the per-pair runner then computes — and
// quarantines — the truth pairwise).
func (p *pairRunner) filterHit(n *mpnat.Nat, nb, prod *big.Int, hm *hybridMetrics) (hit bool) {
	defer func() {
		if r := recover(); r != nil {
			hit = true
			p.scratch = gcd.NewScratch(p.maxBits)
			p.cfg.Trace.Event("bad_filter", "err", fmt.Sprint(r))
		}
	}()
	start := time.Now()
	defer func() { hm.observeFilter(time.Since(start)) }()
	p.filterQuo.QuoRem(prod, nb, &p.filterRem)
	r := p.filterNat.SetBig(&p.filterRem)
	if r.IsZero() {
		return true // n divides the subproduct: duplicate or fully shared
	}
	r.RshiftStrip(r) // n is odd, so stripping 2s from r preserves the gcd
	if r.IsOne() {
		return false
	}
	// Full GCD, never early-terminated: a false "coprime" here would
	// silently drop a finding, so the filter takes no shortcuts.
	g, _ := p.scratch.Compute(p.cfg.Algorithm, n, r, gcd.Options{})
	return g == nil || !g.IsOne()
}

// runCell computes one cell into blk: diagonal cells run their
// triangular half pairwise, cross cells filter each row against the
// column tile's subproduct and descend only on hits. Descended pairs go
// through the kernel dispatch, so under the lanes kernel a cell's hit
// rows accumulate into one lockstep batch drained before the cell is
// sealed for journaling.
func (p *pairRunner) runCell(plan *hybridPlan, c hybridCell, cache *subprod.Cache, hm *hybridMetrics, blk *blockOut) {
	aLo, aHi := plan.tileSpan(c.A)
	if c.A == c.B {
		for k := aLo; k < aHi; k++ {
			for u := k + 1; u < aHi; u++ {
				p.pair(plan.active[k], plan.active[u], blk)
			}
		}
		p.flush(blk)
		return
	}
	bLo, bHi := plan.tileSpan(c.B)
	prod := cache.Get(c.B, func() *big.Int {
		ms := make([]*big.Int, 0, bHi-bLo)
		for u := bLo; u < bHi; u++ {
			ms = append(ms, plan.bigs[plan.active[u]])
		}
		return subprod.Product(ms)
	})
	for k := aLo; k < aHi; k++ {
		i := plan.active[k]
		if p.filterHit(p.moduli[i], plan.bigs[i], prod, hm) {
			hm.observeRow(true, int64(bHi-bLo))
			for u := bLo; u < bHi; u++ {
				p.pair(i, plan.active[u], blk)
			}
		} else {
			hm.observeRow(false, int64(bHi-bLo))
			blk.pairs += int64(bHi - bLo) // proven coprime, accounted as done
		}
	}
	p.flush(blk)
}

// Hybrid runs the tiled product-filter engine; see HybridContext.
func Hybrid(moduli []*mpnat.Nat, cfg Config) (*Result, error) {
	return HybridContext(context.Background(), moduli, cfg)
}

// HybridContext computes the same Result as AllPairsContext — identical
// Factors, BadPairs, Quarantined and pair totals — using the tiled
// subproduct filter to avoid the vast majority of per-pair GCDs on
// sparse corpora. Result.Stats covers only the descended per-pair GCDs
// (filter divisions and GCDs are reported through the bulk_hybrid_*
// metrics instead). Cancellation, checkpointing and resume follow the
// all-pairs contract with one cell as the work unit.
func HybridContext(ctx context.Context, moduli []*mpnat.Nat, cfg Config) (*Result, error) {
	plan, err := planHybrid(moduli, cfg)
	if err != nil {
		return nil, err
	}
	resumedFactors, resumedBad, resumedPairs, resumed, err := prepareJournal(plan.header, &cfg)
	if err != nil {
		return nil, err
	}

	workers := cfg.EffectiveWorkers()

	metrics := newRunMetrics(cfg.Metrics, cfg.Algorithm)
	hm := newHybridMetrics(cfg.Metrics)
	metrics.begin(workers, len(plan.bad), resumedPairs)
	for _, q := range plan.bad {
		cfg.Trace.Event("quarantine", "index", q.Index, "reason", q.Reason)
	}
	runSpan := cfg.Trace.StartSpan("run",
		"engine", "hybrid", "algorithm", cfg.Algorithm.String(), "early", cfg.Early,
		"moduli", len(moduli), "workers", workers, "tile", plan.tile,
		"cells", len(plan.cells), "total_pairs", plan.total)

	// The tile-subproduct cache is probed from every worker's hot filter
	// loop, so it is sharded to roughly one lock per worker.
	cache := subprod.NewCacheShards(cfg.SubprodBudget, workers)

	start := time.Now()
	up := &unitPool{
		cfg: &cfg, moduli: moduli, maxBits: plan.maxBits, metrics: metrics,
		runSpan: runSpan, spanName: "cell",
		spanAttrs: func(i int) []any { return []any{"a", plan.cells[i].A, "b", plan.cells[i].B} },
		resumed:   resumed, total: plan.total, resumed0: resumedPairs,
		run: func(pr *pairRunner, i int, blk *blockOut) {
			pr.runCell(plan, plan.cells[i], cache, hm, blk)
		},
		observeUnit: hm.observeCell,
	}
	outs, _, err := up.execute(ctx, len(plan.cells), workers)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Elapsed:      time.Since(start),
		Workers:      workers,
		Canceled:     ctx.Err() != nil,
		ResumedPairs: resumedPairs,
		Quarantined:  plan.bad,
		Pairs:        resumedPairs,
		Total:        plan.total,
		Factors:      resumedFactors,
		BadPairs:     resumedBad,
	}
	var busy time.Duration
	for i := range outs {
		res.Pairs += outs[i].pairs
		res.Stats.Add(&outs[i].stats)
		res.Factors = append(res.Factors, outs[i].factors...)
		res.BadPairs = append(res.BadPairs, outs[i].bad...)
		busy += outs[i].busy
	}
	sortFactors(res.Factors)
	sortBadPairs(res.BadPairs)
	metrics.finish(res, busy)
	hm.finish(cache.Stats())
	runSpan.End("pairs", res.Pairs, "factors", len(res.Factors),
		"bad_pairs", len(res.BadPairs), "canceled", res.Canceled)
	if !res.Canceled && res.Pairs != plan.total {
		return nil, fmt.Errorf("bulk: internal error: covered %d pairs, want %d", res.Pairs, plan.total)
	}
	return res, nil
}
