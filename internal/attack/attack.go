// Package attack is the weak-RSA-key attack pipeline: it runs the bulk
// all-pairs GCD over a corpus of moduli, interprets every non-trivial GCD,
// and reconstructs the broken private keys - the complete workflow the
// paper motivates ("we may break weak RSA keys by computing the GCDs of
// all pairs of two moduli in the Web").
package attack

import (
	"context"
	"fmt"
	"math/big"
	"sort"
	"time"

	"bulkgcd/internal/batchgcd"
	"bulkgcd/internal/bulk"
	"bulkgcd/internal/checkpoint"
	"bulkgcd/internal/corpus"
	"bulkgcd/internal/engine"
	"bulkgcd/internal/gcd"
	"bulkgcd/internal/mpnat"
	"bulkgcd/internal/obs"
	"bulkgcd/internal/rsakey"
)

// Options configures an attack run. The cross-engine surface (Workers,
// Progress, Metrics, Trace, Checkpoint/Resume, Fault) is the embedded
// engine.Config; Progress counts pairs for the pairs and hybrid engines
// and tree operations for batch GCD. Checkpoint/Resume require the
// pairs or hybrid engine.
type Options struct {
	engine.Config

	// Algorithm selects the GCD kernel; the default (zero value requires
	// explicit choice, so Run defaults to Approximate when unset via
	// DefaultOptions) is the paper's Approximate Euclidean.
	Algorithm gcd.Algorithm

	// Early enables s/2 early termination (on by default in
	// DefaultOptions; it is safe for RSA moduli and halves the work).
	Early bool

	// GroupSize is passed to the pairs engine only (the paper's r).
	GroupSize int

	// Exponent is the public exponent for private-key recovery.
	Exponent uint64

	// Engine selects the attack engine: engine.Pairs (default) is the
	// paper's all-pairs computation, engine.Batch the Bernstein
	// product-tree baseline (Algorithm, Early and GroupSize are ignored
	// there), engine.Hybrid the tiled product-filter engine.
	Engine engine.Kind

	// Quarantine makes the pairs and hybrid engines skip zero, even and
	// oversized moduli and report them per-index in Report.Quarantined
	// instead of failing the whole run. Ignored in batch mode (the
	// product tree has no way to excise an input without changing the
	// fingerprint of the run).
	Quarantine bool

	// TileSize is the hybrid engine's tile width; 0 means 64. Findings
	// are identical at every value.
	TileSize int

	// SubprodBudget caps the hybrid engine's cached subproduct bytes
	// (LRU); 0 means unlimited.
	SubprodBudget int64

	// Kernel selects the per-pair GCD executor of the pairs and hybrid
	// engines (the batch engine ignores it): engine.KernelScalar (the
	// default) or engine.KernelLanes, the lane-batched lockstep kernel,
	// which requires Algorithm == Approximate. Findings are identical.
	Kernel engine.KernelKind

	// LaneWidth is the lanes kernel's lane count; 0 means the default.
	LaneWidth int
}

// bulkConfig maps the Options onto the bulk engines' configuration.
func (o Options) bulkConfig() bulk.Config {
	return bulk.Config{
		Config:        o.Config,
		Algorithm:     o.Algorithm,
		Early:         o.Early,
		GroupSize:     o.GroupSize,
		Quarantine:    o.Quarantine,
		TileSize:      o.TileSize,
		SubprodBudget: o.SubprodBudget,
		Kernel:        o.Kernel,
		LaneWidth:     o.LaneWidth,
	}
}

// BulkConfig is the exported form of bulkConfig for callers that drive
// the bulk engines directly — the fleet worker runs bulk.CellRunner on
// attack Options and must map them exactly as RunContext would.
func (o Options) BulkConfig() bulk.Config { return o.bulkConfig() }

// Interpret turns a raw bulk result into the attack report exactly as
// RunContext does after the engine returns — duplicates detected, moduli
// factored, private keys recovered. The fleet coordinator uses it to
// interpret a Result assembled from journal records instead of computed
// in-process.
func Interpret(moduli []*mpnat.Nat, res *bulk.Result, opt Options) (*Report, error) {
	if opt.Exponent == 0 {
		opt.Exponent = rsakey.DefaultExponent
	}
	return interpretFactors(moduli, res, opt)
}

// DefaultOptions returns the recommended configuration: Approximate
// Euclidean with early termination and e = 65537.
func DefaultOptions() Options {
	return Options{
		Algorithm: gcd.Approximate,
		Early:     true,
		Exponent:  rsakey.DefaultExponent,
	}
}

// BrokenKey is one factored modulus.
type BrokenKey struct {
	// Index is the modulus position in the input corpus.
	Index int
	// N is the modulus.
	N *big.Int
	// P and Q are the recovered factors, P <= Q.
	P, Q *big.Int
	// D is the recovered private exponent, nil when the factors are not
	// both prime (possible only with synthetic pseudo-moduli) or e is not
	// invertible.
	D *big.Int
	// FoundWith is the index of the other modulus of the revealing pair,
	// or -1 when the batch-GCD engine found the factor (it has no notion
	// of a revealing pair).
	FoundWith int
}

// Report is the attack outcome.
type Report struct {
	// Broken lists factored keys ordered by Index (one entry per modulus,
	// even when several pairs reveal it).
	Broken []BrokenKey
	// Duplicates lists pairs of identical moduli (gcd = modulus), which
	// are compromised but not factored by the GCD attack.
	Duplicates [][2]int
	// Bulk carries the underlying bulk-run measurements.
	Bulk *bulk.Result
	// Moduli is the corpus size.
	Moduli int
	// Canceled reports that the run was interrupted: Broken/Duplicates
	// cover only the completed work units.
	Canceled bool
	// BadPairs lists pair computations quarantined after a worker panic.
	BadPairs []bulk.BadPair
	// Quarantined lists input moduli skipped under Options.Quarantine.
	Quarantined []bulk.Quarantined
}

// Run executes the attack over the corpus.
func Run(moduli []*mpnat.Nat, opt Options) (*Report, error) {
	return RunContext(context.Background(), moduli, opt)
}

// RunContext is Run with cooperative cancellation: on cancel the report
// covers the completed work units and Report.Canceled is set.
func RunContext(ctx context.Context, moduli []*mpnat.Nat, opt Options) (*Report, error) {
	if opt.Exponent == 0 {
		opt.Exponent = rsakey.DefaultExponent
	}
	var res *bulk.Result
	var err error
	switch opt.Engine {
	case engine.Batch:
		return runBatch(ctx, moduli, opt)
	case engine.Hybrid:
		res, err = bulk.HybridContext(ctx, moduli, opt.bulkConfig())
	case engine.Pairs:
		res, err = bulk.AllPairsContext(ctx, moduli, opt.bulkConfig())
	default:
		return nil, fmt.Errorf("attack: unknown engine %v", opt.Engine)
	}
	if err != nil {
		return nil, err
	}
	return interpretFactors(moduli, res, opt)
}

// JournalHeader returns the checkpoint header an all-pairs attack over
// this corpus writes, for verifying a journal before resuming.
func JournalHeader(moduli []*mpnat.Nat, opt Options) (checkpoint.Header, error) {
	switch opt.Engine {
	case engine.Batch:
		return checkpoint.Header{}, fmt.Errorf("attack: checkpointing requires the pairs or hybrid engine")
	case engine.Hybrid:
		return bulk.HybridJournalHeader(moduli, opt.bulkConfig())
	default:
		return bulk.JournalHeader(moduli, opt.bulkConfig())
	}
}

// interpretFactors turns raw pair factors into the attack report:
// duplicates detected, moduli factored, private keys recovered. The
// first factor in res.Factors order that factors an index sets its P and
// FoundWith.
func interpretFactors(moduli []*mpnat.Nat, res *bulk.Result, opt Options) (*Report, error) {
	rep := &Report{
		Bulk:        res,
		Moduli:      len(moduli),
		Canceled:    res.Canceled,
		BadPairs:    res.BadPairs,
		Quarantined: res.Quarantined,
	}
	var jobs []keyJob
	planned := map[int]bool{}
	for _, f := range res.Factors {
		g := f.P.ToBig()
		nI := moduli[f.I].ToBig()
		nJ := moduli[f.J].ToBig()
		if g.Cmp(nI) == 0 && g.Cmp(nJ) == 0 {
			rep.Duplicates = append(rep.Duplicates, [2]int{f.I, f.J})
			continue
		}
		for _, side := range []keyJob{{f.I, nI, g, f.J}, {f.J, nJ, g, f.I}} {
			if planned[side.idx] {
				continue
			}
			if g.Cmp(side.n) >= 0 {
				continue // g equals this modulus; it factors only the other side
			}
			planned[side.idx] = true
			jobs = append(jobs, side)
		}
	}
	var err error
	if rep.Broken, err = recoverKeys(jobs, opt); err != nil {
		return nil, err
	}
	recordOutcome(opt, rep)
	return rep, nil
}

// recordOutcome folds the attack-level verdict into the metrics
// registry (nil-safe: a disabled registry hands out nil counters).
func recordOutcome(opt Options, rep *Report) {
	opt.Metrics.Counter("attack_broken_keys_total").Add(int64(len(rep.Broken)))
	opt.Metrics.Counter("attack_duplicate_pairs_total").Add(int64(len(rep.Duplicates)))
}

// runBatch is the batch-GCD (product/remainder tree) variant of the
// attack: same Report, different engine. Findings whose gcd equals the
// whole modulus resolve to duplicates; proper divisors factor the key.
func runBatch(ctx context.Context, moduli []*mpnat.Nat, opt Options) (*Report, error) {
	if opt.Checkpoint != nil || opt.Resume != nil {
		return nil, fmt.Errorf("attack: checkpointing requires the pairs or hybrid engine")
	}
	if len(moduli) < 2 {
		return nil, fmt.Errorf("attack: need at least 2 moduli, got %d", len(moduli))
	}
	big_ := make([]*big.Int, len(moduli))
	for i, m := range moduli {
		if m == nil || m.IsZero() {
			return nil, fmt.Errorf("attack: modulus %d is zero", i)
		}
		if m.BitLen() > corpus.MaxModulusBits {
			return nil, fmt.Errorf("attack: modulus %d is oversize", i)
		}
		big_[i] = m.ToBig()
	}
	cfg := batchgcd.Config{Config: opt.Config}
	start := time.Now()
	findings, err := batchgcd.RunContext(ctx, big_, cfg)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Moduli: len(moduli),
		Bulk:   &bulk.Result{Elapsed: time.Since(start), Workers: cfg.EffectiveWorkers()},
	}
	// A finding records only its smallest duplicate partner, so regroup
	// identical moduli into classes and emit every pair within a class,
	// matching what the all-pairs engine reports for the same corpus.
	dupClass := map[string][]int{}
	var jobs []keyJob
	for _, f := range findings {
		n := big_[f.Index]
		if f.Factor.Cmp(n) < 0 {
			jobs = append(jobs, keyJob{f.Index, n, f.Factor, -1})
		}
		if f.DuplicateOf >= 0 {
			key := n.Text(16)
			dupClass[key] = append(dupClass[key], f.Index)
		}
	}
	for _, class := range dupClass {
		for a := 0; a < len(class); a++ {
			for b := a + 1; b < len(class); b++ {
				rep.Duplicates = append(rep.Duplicates, [2]int{class[a], class[b]})
			}
		}
	}
	if rep.Broken, err = recoverKeys(jobs, opt); err != nil {
		return nil, err
	}
	sort.Slice(rep.Duplicates, func(i, j int) bool {
		if rep.Duplicates[i][0] != rep.Duplicates[j][0] {
			return rep.Duplicates[i][0] < rep.Duplicates[j][0]
		}
		return rep.Duplicates[i][1] < rep.Duplicates[j][1]
	})
	recordOutcome(opt, rep)
	return rep, nil
}

// keyJob is one broken key awaiting recovery: modulus n at index idx
// and the non-trivial divisor g that revealed it, found together with
// modulus other (-1 from the batch engine).
type keyJob struct {
	idx   int
	n, g  *big.Int
	other int
}

// recoverKeys turns the planned jobs, at most one per index, into the
// report's Broken list ordered by index. The plan is serial: each
// cofactor comes from one QuoRem, and a divisor that does not divide its
// modulus fails the run naming the lowest such index. Each distinct
// factor value is then tested once with ProbablyPrime(20), and D is
// recovered for every key whose two factors both pass, both fanned out
// on the work-stealing pool. The pool runs under context.Background: a
// canceled scan still recovers every key its completed units broke.
func recoverKeys(jobs []keyJob, opt Options) ([]BrokenKey, error) {
	start := time.Now()
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].idx < jobs[b].idx })
	var broken []BrokenKey
	distinct := map[string]int{} // factor bytes -> slot in values
	var values []*big.Int
	slot := func(v *big.Int) int {
		k := string(v.Bytes())
		i, ok := distinct[k]
		if !ok {
			i = len(values)
			distinct[k] = i
			values = append(values, v)
		}
		return i
	}
	factorSlots := make([][2]int, len(jobs))
	for i, j := range jobs {
		q, rem := new(big.Int).QuoRem(j.n, j.g, new(big.Int))
		if rem.Sign() != 0 {
			return nil, fmt.Errorf("attack: modulus %d: gcd %v does not divide modulus", j.idx, j.g)
		}
		p := new(big.Int).Set(j.g)
		if p.Cmp(q) > 0 {
			p, q = q, p
		}
		broken = append(broken, BrokenKey{Index: j.idx, N: j.n, P: p, Q: q, FoundWith: j.other})
		factorSlots[i] = [2]int{slot(p), slot(q)}
	}

	sp := opt.Trace.StartSpan("recover", "keys", len(jobs), "tests", len(values))
	pool := engine.PoolOptions{Workers: opt.EffectiveWorkers()}
	prime := make([]bool, len(values))
	// Background is never canceled, so neither Run returns an error.
	_ = engine.Run(context.Background(), len(values), pool, func(i, _ int) {
		prime[i] = values[i].ProbablyPrime(20)
	})
	_ = engine.Run(context.Background(), len(broken), pool, func(i, _ int) {
		bk := &broken[i]
		if !prime[factorSlots[i][0]] || !prime[factorSlots[i][1]] {
			return
		}
		if d, _, err := rsakey.RecoverPrivate(bk.N, bk.P, opt.Exponent); err == nil {
			bk.D = d
		}
	})
	sp.End()
	opt.Metrics.Counter("attack_primality_tests_total").Add(int64(len(values)))
	opt.Metrics.Histogram("attack_recover_seconds", obs.DurationBuckets()).Observe(time.Since(start).Seconds())
	return broken, nil
}
