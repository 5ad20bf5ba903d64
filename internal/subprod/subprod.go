// Package subprod holds the subproduct machinery shared by the two
// product-based attack engines: the level-parallel product tree that
// batch GCD (internal/batchgcd) builds over the whole corpus, and the
// per-tile subproducts that the hybrid product-filter engine
// (internal/bulk) caches under a memory budget.
//
// Both engines (and the streaming registry's forest) reduce the same
// primitive — multiply a set of moduli into one integer so a single
// division+GCD can interrogate all of them at once — so the
// construction lives here and is configured by the caller: per-level
// hooks for batch GCD's observability, plain products for the hybrid
// engine's tile filter. Every tree runs on math/big, whose assembly
// inner loops and subquadratic multiply and divide are what make the
// baseline fast (DESIGN.md section 5f); the paper's word-level mpnat
// substrate stays with the GCD kernels.
package subprod

import (
	"context"
	"fmt"
	"math/big"
	"math/bits"

	"bulkgcd/internal/engine"
	"bulkgcd/internal/obs"
)

// ParallelEach runs fn(i, worker) for every i in [0, n) on up to workers
// goroutines over the shared work-stealing scheduler (engine.Run): the
// index space is statically partitioned across per-worker deques and
// rebalanced by steal-half, so a run of slow items (one huge tree node,
// one dense tile) cannot strand the rest of the pool the way a static
// split would. With one worker (or fewer) or one item it runs inline on
// the caller's goroutine. Workers check ctx at item granularity and
// stop cooperatively; the ctx error (if any) is returned once all
// workers have drained.
func ParallelEach(ctx context.Context, n, workers int, fn func(i, worker int)) error {
	if workers < 1 {
		workers = 1
	}
	return engine.Run(ctx, n, engine.PoolOptions{Workers: workers}, fn)
}

// Tree holds the levels of a product tree: level 0 is the input slice,
// the last level is the single full product. An odd node at the end of a
// level is promoted unchanged, so parent i covers children 2i and 2i+1.
type Tree struct {
	Levels [][]*big.Int
}

// Root returns the product of all leaves.
func (t *Tree) Root() *big.Int {
	top := t.Levels[len(t.Levels)-1]
	return top[0]
}

// BuildOptions configures Build. The zero value builds serially with no
// hooks.
type BuildOptions struct {
	// Workers is the fan-out width within each level (the level's
	// multiplications are independent); <= 1 runs inline.
	Workers int
	// OnLevel, when non-nil, wraps each level's computation: level is the
	// 1-based index of the level being built, nodes the number of
	// multiplications in it. The hook must invoke run exactly once and
	// propagate its error (batch GCD threads its tracing/timing phase
	// wrapper through here).
	OnLevel func(level, nodes int, run func() error) error
	// OnNode, when non-nil, is called once per completed multiplication
	// (possibly concurrently from several workers).
	OnNode func()
	// Metrics, when non-nil, instruments the per-level scheduler pools
	// (engine_steals_total and friends).
	Metrics *obs.Registry
}

// Mults returns the number of multiplications a tree over m leaves
// performs.
func Mults(m int) int64 {
	var total int64
	for l := m; l > 1; l = (l + 1) / 2 {
		total += int64(l / 2)
	}
	return total
}

// Build constructs the product tree of the leaves bottom-up:
// pair-and-promote, each level's multiplications fanned out over the
// work-stealing pool, with the OnLevel/OnNode observability hooks
// threaded through. Level 0 is a copy of the leaf slice; the leaves are
// never modified, and every product is freshly allocated (an odd node
// is promoted by reference).
func Build(ctx context.Context, leaves []*big.Int, opt BuildOptions) (*Tree, error) {
	if len(leaves) == 0 {
		return nil, fmt.Errorf("subprod: empty input")
	}
	level := append([]*big.Int(nil), leaves...)
	levels := [][]*big.Int{level}
	workers := opt.Workers
	if workers < 1 {
		workers = 1
	}
	for len(level) > 1 {
		pairs := len(level) / 2
		next := make([]*big.Int, (len(level)+1)/2)
		src := level
		run := func() error {
			return engine.Run(ctx, pairs, engine.PoolOptions{Workers: workers, Metrics: opt.Metrics}, func(i, _ int) {
				next[i] = new(big.Int).Mul(src[2*i], src[2*i+1])
				if opt.OnNode != nil {
					opt.OnNode()
				}
			})
		}
		var err error
		if opt.OnLevel != nil {
			err = opt.OnLevel(len(levels), pairs, run)
		} else {
			err = run()
		}
		if err != nil {
			return nil, err
		}
		if len(level)%2 == 1 {
			next[pairs] = level[len(level)-1] // odd node promotes unchanged
		}
		levels = append(levels, next)
		level = next
	}
	return &Tree{Levels: levels}, nil
}

// Product multiplies the moduli into a single integer by balanced
// pairwise reduction on the same path as Build (balanced operands keep
// math/big's multiplier in its subquadratic regime). An empty slice
// yields 1. The inputs are never modified and the result never aliases
// them, so cached products are safe to share read-only across workers.
func Product(ms []*big.Int) *big.Int {
	switch len(ms) {
	case 0:
		return big.NewInt(1)
	case 1:
		return new(big.Int).Set(ms[0])
	}
	t, err := Build(context.Background(), ms, BuildOptions{})
	if err != nil {
		// Unreachable: the input is non-empty and a background context
		// with no hooks cannot fail.
		panic("subprod: Product: " + err.Error())
	}
	return t.Root()
}

// Bytes returns the in-memory size the cache accounts for a value.
func Bytes(v *big.Int) int64 {
	return int64(len(v.Bits())) * bits.UintSize / 8
}
