package bulk

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/big"
	"sort"
	"sync/atomic"
	"time"

	"bulkgcd/internal/checkpoint"
	"bulkgcd/internal/corpus"
	"bulkgcd/internal/engine"
	"bulkgcd/internal/gcd"
	"bulkgcd/internal/mpnat"
)

// Factor is one non-trivial GCD found by the all-pairs computation.
type Factor struct {
	// I, J are the indices of the moduli sharing the factor, I < J.
	I, J int
	// P is gcd(n_I, n_J) > 1.
	P *mpnat.Nat
}

// BadPair is one pair whose GCD computation panicked: the panic is
// recovered, the pair quarantined here, and the run continues. I < J.
type BadPair struct {
	I, J int
	Err  string
}

// Quarantined is one input modulus excluded from a run in quarantine
// mode, with the validation reason ("zero", "even").
type Quarantined struct {
	Index  int
	Reason string
}

// Config controls an all-pairs or hybrid bulk run. The cross-engine
// surface (Workers, Progress, Metrics, Trace, Checkpoint/Resume, Fault)
// is the embedded engine.Config; this struct adds the knobs specific to
// the pairwise engines. Progress counts completed pairs at work-unit
// granularity (blocks for AllPairs, tile cells for Hybrid; the hybrid
// counts filter-skipped pairs as done — they are proven coprime).
type Config struct {
	engine.Config

	// Algorithm selects the GCD algorithm (the paper's GPU kernels use
	// Approximate; Binary and FastBinary are the baselines of Table V).
	Algorithm gcd.Algorithm

	// Early enables the early-terminate variant with threshold s/2, where
	// s is the pair's smaller modulus size. This is the mode the paper
	// recommends for RSA moduli (Section V).
	Early bool

	// GroupSize is the paper's r (threads per CUDA block, 64 there);
	// 0 means 64. It only affects work partitioning, not results.
	GroupSize int

	// Quarantine, when true, skips zero/even/nil moduli — reporting them
	// in Result.Quarantined with index and reason — instead of failing
	// the whole run. Factor indices always refer to the original slice.
	Quarantine bool

	// TileSize is the hybrid engine's tile width T: the corpus is cut
	// into tiles of T moduli, each cross-tile cell is filtered with one
	// subproduct GCD per row modulus, and only filter hits descend to
	// per-pair GCDs. 0 means 64. Findings are identical at every value.
	TileSize int

	// SubprodBudget caps the bytes of tile subproducts the hybrid engine
	// caches (LRU); 0 means unlimited. Evictions trade recompute time
	// for memory, never results.
	SubprodBudget int64

	// Kernel selects the per-pair GCD executor for the pairs and hybrid
	// engines: the scalar kernel (the default) or the lane-batched
	// lockstep kernel of internal/lanes, which requires Algorithm ==
	// Approximate. Findings are identical across kernels; Result.Stats
	// differs in iteration and memory accounting because the lane kernel
	// packs two words per limb. The kernel is not part of the journal
	// fingerprint, so a run checkpointed under one kernel resumes under
	// the other.
	Kernel engine.KernelKind

	// LaneWidth is the lane count L of the lanes kernel; 0 means
	// lanes.DefaultWidth. It only affects throughput, never results.
	LaneWidth int
}

// validateKernel rejects configurations the selected kernel cannot honor.
func validateKernel(cfg Config) error {
	if cfg.Kernel == engine.KernelLanes && cfg.Algorithm != gcd.Approximate {
		return fmt.Errorf("bulk: the lanes kernel implements only the %v algorithm (got %v)",
			gcd.Approximate, cfg.Algorithm)
	}
	return nil
}

// Result reports an all-pairs bulk run.
type Result struct {
	// Factors lists every pair with gcd > 1, ordered by (I, J).
	Factors []Factor
	// Stats aggregates the per-GCD statistics over all freshly computed
	// pairs (pairs replayed from a resume journal are not re-measured).
	Stats gcd.Stats
	// Pairs is the number of GCDs accounted for, including pairs restored
	// from the resume journal and quarantined BadPairs. A complete run
	// reaches the schedule's total.
	Pairs int64
	// Total is the schedule's pair count; Pairs == Total unless Canceled.
	Total int64
	// Elapsed is the wall-clock time of the parallel computation.
	Elapsed time.Duration
	// Workers is the pool size actually used.
	Workers int
	// Canceled reports cooperative cancellation: the context was canceled
	// and Factors/Pairs cover only the blocks completed before workers
	// stopped. All completed work is checkpointed and kept.
	Canceled bool
	// ResumedPairs counts the pairs restored from Config.Resume.
	ResumedPairs int64
	// BadPairs lists quarantined pairs (panic recovery), ordered by (I, J).
	BadPairs []BadPair
	// Quarantined lists input moduli excluded in quarantine mode.
	Quarantined []Quarantined
}

// PairsPerSecond returns the aggregate GCD throughput.
func (r *Result) PairsPerSecond() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Pairs) / r.Elapsed.Seconds()
}

// validateSet scans the modulus slice. Valid moduli land in active by
// index; in quarantine mode bad ones are reported in bad, otherwise the
// first bad modulus fails the run (the legacy contract).
func validateSet(moduli []*mpnat.Nat, quarantine bool) (active []int, maxBits int, bad []Quarantined, err error) {
	active = make([]int, 0, len(moduli))
	for i, n := range moduli {
		reason := ""
		switch {
		case n == nil || n.IsZero():
			reason = "zero"
		case n.IsEven():
			reason = "even"
		case n.BitLen() > corpus.MaxModulusBits:
			reason = "oversize"
		}
		if reason != "" {
			if !quarantine {
				return nil, 0, nil, fmt.Errorf("bulk: modulus %d is %s", i, reason)
			}
			bad = append(bad, Quarantined{Index: i, Reason: reason})
			continue
		}
		if b := n.BitLen(); b > maxBits {
			maxBits = b
		}
		active = append(active, i)
	}
	return active, maxBits, bad, nil
}

// fingerprint hashes the run identity: engine, config knobs that change
// the unit decomposition or findings, and every input modulus (bad ones
// included — quarantine is deterministic, so the raw input is the
// canonical identity).
func fingerprint(engine string, cfg Config, groupSize int, moduli []*mpnat.Nat) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%s|early=%t|quarantine=%t|r=%d", engine, cfg.Algorithm, cfg.Early, cfg.Quarantine, groupSize)
	fmt.Fprintf(h, "|set=%d", len(moduli))
	for _, n := range moduli {
		if n == nil {
			fmt.Fprint(h, "|nil")
		} else {
			fmt.Fprint(h, "|", n.Hex())
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// allPairsPlan is the validated shape of an all-pairs run: the active
// index set (quarantine applied), its schedule, and the journal header.
type allPairsPlan struct {
	active  []int
	maxBits int
	bad     []Quarantined
	sched   *Schedule
	header  checkpoint.Header
}

func planAllPairs(moduli []*mpnat.Nat, cfg Config) (*allPairsPlan, error) {
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
	r := cfg.GroupSize
	if r == 0 {
		r = 64
	}
	if r > len(active) {
		r = len(active)
	}
	sched, err := NewSchedule(len(active), r)
	if err != nil {
		return nil, err
	}
	return &allPairsPlan{
		active:  active,
		maxBits: maxBits,
		bad:     bad,
		sched:   sched,
		header: checkpoint.Header{
			V:           checkpoint.Version,
			Engine:      "allpairs",
			Fingerprint: fingerprint("allpairs", cfg, r, moduli),
			Units:       len(sched.Blocks()),
			TotalPairs:  sched.TotalPairs(),
		},
	}, nil
}

// JournalHeader returns the checkpoint header an AllPairs run over these
// inputs writes, letting callers decide whether an existing journal can
// be resumed before starting the run.
func JournalHeader(moduli []*mpnat.Nat, cfg Config) (checkpoint.Header, error) {
	plan, err := planAllPairs(moduli, cfg)
	if err != nil {
		return checkpoint.Header{}, err
	}
	return plan.header, nil
}

// blockOut accumulates one work unit's results; the unit is journaled
// only once all of these are final, which is what makes a journal record
// equivalent to having computed the block.
type blockOut struct {
	factors []Factor
	bad     []BadPair
	stats   gcd.Stats
	pairs   int64
	// busy accumulates the worker's in-block wall time (compute plus
	// journal appends), feeding the utilization gauge.
	busy time.Duration
}

// record converts a completed unit to its journal form.
func (b *blockOut) record(unit int) checkpoint.Record {
	rec := checkpoint.Record{Unit: unit, Pairs: b.pairs}
	for _, f := range b.factors {
		rec.Factors = append(rec.Factors, checkpoint.Factor{I: f.I, J: f.J, P: f.P.Hex()})
	}
	for _, bp := range b.bad {
		rec.Bad = append(rec.Bad, checkpoint.BadPair{I: bp.I, J: bp.J, Err: bp.Err})
	}
	return rec
}

// pairRunner computes single pairs with panic quarantine. One per worker;
// the scratch is rebuilt after a recovered panic because the kernel may
// have been interrupted mid-update. When Config.Kernel selects the
// lane-batched kernel, lanes is non-nil and pairs queue up for lockstep
// execution instead of running inline (see lanes.go).
type pairRunner struct {
	scratch *gcd.Scratch
	lanes   *laneBatcher
	maxBits int
	cfg     *Config
	moduli  []*mpnat.Nat
	seq     *atomic.Int64
	metrics *runMetrics

	// The hybrid filter's reusable division scratch (math/big) and the
	// remainder's word form the kernel reads.
	filterQuo, filterRem big.Int
	filterNat            mpnat.Nat
}

// newPairRunner builds one worker's runner for the configured kernel.
func newPairRunner(cfg *Config, maxBits int, moduli []*mpnat.Nat, seq *atomic.Int64, metrics *runMetrics) pairRunner {
	pr := pairRunner{
		scratch: gcd.NewScratch(maxBits),
		maxBits: maxBits,
		cfg:     cfg,
		moduli:  moduli,
		seq:     seq,
		metrics: metrics,
	}
	if cfg.Kernel == engine.KernelLanes {
		pr.lanes = newLaneBatcher(cfg.LaneWidth, maxBits, newLanesMetrics(cfg.Metrics))
	}
	return pr
}

// quarantine records a recovered per-pair panic: the pair is reported as
// bad (and accounted, keeping pair totals exact) and the scalar scratch
// is rebuilt because the kernel may have been interrupted mid-update.
func (p *pairRunner) quarantine(a, b int, r any, out *blockOut) {
	out.bad = append(out.bad, BadPair{I: a, J: b, Err: fmt.Sprint(r)})
	out.pairs++
	p.scratch = gcd.NewScratch(p.maxBits)
	p.cfg.Trace.Event("bad_pair", "i", a, "j", b, "err", fmt.Sprint(r))
}

func (p *pairRunner) run(a, b int, out *blockOut) {
	defer func() {
		if r := recover(); r != nil {
			p.quarantine(a, b, r, out)
		}
	}()
	if h := p.cfg.Fault; h != nil {
		h.OnPair(p.seq.Add(1)-1, a, b)
	}
	p.computePair(a, b, out)
}

// computePair runs the scalar kernel on one pair. It carries no fault
// hook and no recover: run wraps it for the inline path, and the lane
// batcher's fallback wraps it separately (the hook already fired at
// enqueue there, and must not fire twice).
func (p *pairRunner) computePair(a, b int, out *blockOut) {
	x, y := p.moduli[a], p.moduli[b]
	opt := gcd.Options{}
	if p.cfg.Early {
		opt.EarlyBits = earlyBitsFor(x, y)
	}
	g, st := p.scratch.Compute(p.cfg.Algorithm, x, y, opt)
	p.metrics.observePair(&st)
	out.stats.Add(&st)
	out.pairs++
	if g != nil && !g.IsOne() {
		out.factors = append(out.factors, Factor{I: a, J: b, P: g})
	}
}

// earlyBitsFor is the paper's s/2 threshold, s the smaller bit length.
func earlyBitsFor(x, y *mpnat.Nat) int {
	s := x.BitLen()
	if yb := y.BitLen(); yb < s {
		s = yb
	}
	return s / 2
}

// restoreJournal converts a verified resume state back into engine terms.
// BadCell records — units a fleet coordinator quarantined instead of
// completing — are skipped, so a local resume recomputes those units.
func restoreJournal(st *checkpoint.State) (factors []Factor, bad []BadPair, pairs int64, err error) {
	for _, rec := range st.Done {
		if rec.BadCell != "" {
			continue
		}
		pairs += rec.Pairs
		for _, f := range rec.Factors {
			p, perr := mpnat.ParseHex(f.P)
			if perr != nil {
				return nil, nil, 0, fmt.Errorf("bulk: resume: factor (%d,%d): %w", f.I, f.J, perr)
			}
			factors = append(factors, Factor{I: f.I, J: f.J, P: p})
		}
		for _, bp := range rec.Bad {
			bad = append(bad, BadPair{I: bp.I, J: bp.J, Err: bp.Err})
		}
	}
	return factors, bad, pairs, nil
}

// AllPairs computes the GCD of every pair of moduli with the block
// decomposition of Section VI executed on a host worker pool. All moduli
// must be odd and positive (RSA moduli are) unless Quarantine is set.
func AllPairs(moduli []*mpnat.Nat, cfg Config) (*Result, error) {
	return AllPairsContext(context.Background(), moduli, cfg)
}

// AllPairsContext is AllPairs with cooperative cancellation: when ctx is
// canceled, workers finish the block they hold (so every journaled block
// is complete), stop claiming new ones, and the partial Result comes back
// with Canceled set instead of an error.
func AllPairsContext(ctx context.Context, moduli []*mpnat.Nat, cfg Config) (*Result, error) {
	plan, err := planAllPairs(moduli, cfg)
	if err != nil {
		return nil, err
	}
	sched := plan.sched
	blocks := sched.Blocks()
	total := sched.TotalPairs()

	resumedFactors, resumedBad, resumedPairs, resumed, err := prepareJournal(plan.header, &cfg)
	if err != nil {
		return nil, err
	}

	workers := cfg.EffectiveWorkers()

	metrics := newRunMetrics(cfg.Metrics, cfg.Algorithm)
	metrics.begin(workers, len(plan.bad), resumedPairs)
	for _, q := range plan.bad {
		cfg.Trace.Event("quarantine", "index", q.Index, "reason", q.Reason)
	}
	runSpan := cfg.Trace.StartSpan("run",
		"engine", "allpairs", "algorithm", cfg.Algorithm.String(), "early", cfg.Early,
		"moduli", len(moduli), "workers", workers, "blocks", len(blocks), "total_pairs", total)

	start := time.Now()
	up := &unitPool{
		cfg: &cfg, moduli: moduli, maxBits: plan.maxBits, metrics: metrics,
		runSpan: runSpan, spanName: "block",
		resumed: resumed, total: total, resumed0: resumedPairs,
		run: func(pr *pairRunner, i int, blk *blockOut) {
			sched.BlockPairs(blocks[i], func(a, b int) {
				pr.pair(plan.active[a], plan.active[b], blk)
			})
			pr.flush(blk) // drain the lane batch before the unit is sealed
		},
	}
	outs, _, err := up.execute(ctx, len(blocks), workers)
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
		Total:        total,
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
	runSpan.End("pairs", res.Pairs, "factors", len(res.Factors),
		"bad_pairs", len(res.BadPairs), "canceled", res.Canceled)
	if !res.Canceled && res.Pairs != total {
		return nil, fmt.Errorf("bulk: internal error: computed %d pairs, want %d", res.Pairs, total)
	}
	return res, nil
}

// prepareJournal verifies and restores cfg.Resume, and writes (or
// verifies) the header on cfg.Checkpoint.
func prepareJournal(hdr checkpoint.Header, cfg *Config) (factors []Factor, bad []BadPair, pairs int64, resumed map[int]checkpoint.Record, err error) {
	resumed = map[int]checkpoint.Record{}
	if cfg.Resume != nil {
		if err := cfg.Resume.Verify(hdr); err != nil {
			return nil, nil, 0, nil, fmt.Errorf("bulk: resume: %w", err)
		}
		factors, bad, pairs, err = restoreJournal(cfg.Resume)
		if err != nil {
			return nil, nil, 0, nil, err
		}
		for u, rec := range cfg.Resume.Done {
			if rec.BadCell != "" {
				continue // fleet-quarantined unit: recompute it locally
			}
			resumed[u] = rec
		}
	}
	if cfg.Checkpoint != nil {
		if err := cfg.Checkpoint.Begin(hdr); err != nil {
			return nil, nil, 0, nil, err
		}
	}
	return factors, bad, pairs, resumed, nil
}

// merge folds a completed unit into the worker's accumulator.
func (b *blockOut) merge(blk *blockOut) {
	b.factors = append(b.factors, blk.factors...)
	b.bad = append(b.bad, blk.bad...)
	b.stats.Add(&blk.stats)
	b.pairs += blk.pairs
}

// sortFactors orders factors by (I, J) so results are deterministic
// regardless of worker interleaving.
func sortFactors(fs []Factor) {
	sort.Slice(fs, func(a, b int) bool { return less(fs[a], fs[b]) })
}

func less(a, b Factor) bool {
	if a.I != b.I {
		return a.I < b.I
	}
	return a.J < b.J
}

func sortBadPairs(bs []BadPair) {
	sort.Slice(bs, func(a, b int) bool {
		if bs[a].I != bs[b].I {
			return bs[a].I < bs[b].I
		}
		return bs[a].J < bs[b].J
	})
}

// Sequential computes the same all-pairs GCDs on a single goroutine; it is
// the repository's stand-in for the paper's CPU measurements (Table V's
// Xeon column) and doubles as the oracle for testing AllPairs.
func Sequential(moduli []*mpnat.Nat, alg gcd.Algorithm, early bool) (*Result, error) {
	cfg := Config{Config: engine.Config{Workers: 1}, Algorithm: alg, Early: early, GroupSize: len(moduli)}
	return AllPairs(moduli, cfg)
}
