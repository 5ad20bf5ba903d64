package attack

import (
	"fmt"
	"testing"

	"bulkgcd/internal/engine"
	"bulkgcd/internal/gcd"
	"bulkgcd/internal/rsakey"
)

// TestDifferentialWorkerCounts pins the work-stealing pool's core
// contract: findings are byte-identical at every pool width. The widths
// deliberately include 1 (the inline no-pool path), 2 (one thief), 7
// (odd, so the static split is ragged and steal-half rebalancing kicks
// in) and 16 (far more workers than this machine has cores, so deques
// drain in arbitrary interleavings). Each width runs the three engines
// the scheduler now drives — all-pairs, hybrid cells, batch GCD's
// tree levels — and every report must match the brute-force
// math/big oracle and the width-1 report exactly, FoundWith included
// wherever the engine defines it.
func TestDifferentialWorkerCounts(t *testing.T) {
	moduli := differentialCorpus(t, 77)
	wantBroken, wantDups := naiveReference(moduli)

	engines := []struct {
		name      string
		opt       Options
		foundWith bool // batch GCD has no revealing pair
	}{
		{"pairs", Options{
			Algorithm: gcd.Approximate, Early: true,
			Exponent: rsakey.DefaultExponent,
		}, true},
		{"pairs-lanes", Options{
			Algorithm: gcd.Approximate, Early: true,
			Kernel: engine.KernelLanes, LaneWidth: 4,
			Exponent: rsakey.DefaultExponent,
		}, true},
		{"hybrid", Options{
			Engine:    engine.Hybrid,
			Algorithm: gcd.Approximate, Early: true, TileSize: 4,
			Exponent: rsakey.DefaultExponent,
		}, true},
		// The engine takes the corpus as mpnat Nats and converts it
		// once to math/big, where its product and remainder trees run.
		{"batch-nat", Options{
			Engine:   engine.Batch,
			Exponent: rsakey.DefaultExponent,
		}, false},
	}

	for _, eng := range engines {
		eng := eng
		t.Run(eng.name, func(t *testing.T) {
			var base *Report
			for _, w := range []int{1, 2, 7, 16} {
				opt := eng.opt
				opt.Config.Workers = w
				rep, err := Run(moduli, opt)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				checkAgainstNaive(t, moduli, rep, wantBroken, wantDups)
				if base == nil {
					base = rep
					continue
				}
				t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
					checkReportsIdentical(t, base, rep)
					if eng.foundWith {
						checkFoundWithIdentical(t, base, rep)
					}
				})
			}
		})
	}
}
