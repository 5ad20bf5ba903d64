package bulk

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"bulkgcd/internal/checkpoint"
	"bulkgcd/internal/engine"
	"bulkgcd/internal/faultinject"
	"bulkgcd/internal/gcd"
	"bulkgcd/internal/obs"
)

// lanesCfg returns a lanes-kernel Config over the given width.
func lanesCfg(width int) Config {
	return Config{
		Algorithm: gcd.Approximate, Early: true,
		Kernel: engine.KernelLanes, LaneWidth: width,
	}
}

// TestLanesMatchesScalarFindings is the wiring-level identity check: the
// all-pairs and hybrid engines produce byte-identical factor lists under
// the lanes kernel at several lane widths — including L=1 and group/tile
// sizes that leave the final lockstep batches ragged.
func TestLanesMatchesScalarFindings(t *testing.T) {
	c := weakCorpus(t, 24, 96, 4, 51)
	moduli := c.Moduli()
	scalar, err := AllPairs(moduli, Config{Algorithm: gcd.Approximate, Early: true, GroupSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(scalar.Factors) == 0 {
		t.Fatal("corpus planted no factors")
	}
	for _, width := range []int{1, 4, 16, 64} {
		for _, early := range []bool{false, true} {
			t.Run(fmt.Sprintf("pairs/width=%d/early=%v", width, early), func(t *testing.T) {
				cfg := lanesCfg(width)
				cfg.Early = early
				cfg.Workers = 3
				cfg.GroupSize = 5
				res, err := AllPairs(moduli, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.Pairs != scalar.Pairs {
					t.Fatalf("covered %d pairs, want %d", res.Pairs, scalar.Pairs)
				}
				sameFactors(t, res.Factors, scalar.Factors)
			})
		}
		t.Run(fmt.Sprintf("hybrid/width=%d", width), func(t *testing.T) {
			cfg := lanesCfg(width)
			cfg.Workers = 2
			cfg.TileSize = 7
			res, err := Hybrid(moduli, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Pairs != scalar.Pairs {
				t.Fatalf("covered %d pairs, want %d", res.Pairs, scalar.Pairs)
			}
			sameFactors(t, res.Factors, scalar.Factors)
		})
	}
}

// TestLanesRequiresApproximate: the lanes kernel implements only the
// Approximate algorithm, and every engine front-end rejects the rest.
func TestLanesRequiresApproximate(t *testing.T) {
	c := weakCorpus(t, 6, 64, 1, 52)
	moduli := c.Moduli()
	cfg := Config{Algorithm: gcd.Binary, Kernel: engine.KernelLanes}
	if _, err := AllPairs(moduli, cfg); err == nil {
		t.Error("AllPairs accepted lanes kernel with Binary algorithm")
	}
	if _, err := Hybrid(moduli, cfg); err == nil {
		t.Error("Hybrid accepted lanes kernel with Binary algorithm")
	}
}

// TestLanesPanicQuarantine: a panic injected mid-batch — at the enqueue
// fault point of a targeted pair — quarantines exactly that pair while
// every other pair of the same lockstep batch still gets its exact
// verdict, so the findings match a clean run's.
func TestLanesPanicQuarantine(t *testing.T) {
	c := weakCorpus(t, 16, 64, 2, 53)
	moduli := c.Moduli()
	clean, err := AllPairs(moduli, Config{Algorithm: gcd.Approximate, Early: true, GroupSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	planted := map[[2]int]bool{}
	for _, pp := range c.Planted {
		planted[[2]int{pp.I, pp.J}] = true
	}
	target := [2]int{-1, -1}
	for i := 0; i < 16 && target[0] < 0; i++ {
		for j := i + 1; j < 16; j++ {
			if !planted[[2]int{i, j}] {
				target = [2]int{i, j}
				break
			}
		}
	}
	plan := faultinject.NewPlan()
	plan.PanicAtIJ = &target
	cfg := lanesCfg(8)
	cfg.Workers = 3
	cfg.GroupSize = 4
	cfg.Fault = plan.Hook()
	res, err := AllPairs(moduli, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pairs != clean.Pairs {
		t.Fatalf("computed %d pairs, want %d", res.Pairs, clean.Pairs)
	}
	if len(res.BadPairs) != 1 || res.BadPairs[0].I != target[0] || res.BadPairs[0].J != target[1] {
		t.Fatalf("BadPairs = %+v, want exactly the injected %v", res.BadPairs, target)
	}
	sameFactors(t, res.Factors, clean.Factors)

	// The ordinal variant must also be absorbed without crashing.
	for _, at := range []int64{0, 7, 33} {
		plan := faultinject.NewPlan()
		plan.PanicAtPair = at
		cfg := lanesCfg(4)
		cfg.Workers = 2
		cfg.GroupSize = 4
		cfg.Fault = plan.Hook()
		res, err := AllPairs(moduli, cfg)
		if err != nil {
			t.Fatalf("panic at ordinal %d: %v", at, err)
		}
		if res.Pairs != clean.Pairs || len(res.BadPairs) != 1 {
			t.Fatalf("panic at ordinal %d: pairs=%d bad=%+v", at, res.Pairs, res.BadPairs)
		}
	}
}

// TestLanesJournalResumeAcrossKernels: the kernel is deliberately not
// part of the journal fingerprint, so a run checkpointed under the
// scalar kernel resumes under the lanes kernel (and vice versa) with
// findings identical to an uninterrupted run.
func TestLanesJournalResumeAcrossKernels(t *testing.T) {
	c := weakCorpus(t, 20, 64, 3, 54)
	moduli := c.Moduli()
	base := Config{Algorithm: gcd.Approximate, Early: true, GroupSize: 4}
	clean, err := AllPairs(moduli, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, firstLanes := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "run.jsonl")
		w, err := checkpoint.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		plan := faultinject.NewPlan()
		plan.CancelAtPair = 40
		plan.Cancel = cancel
		kcfg := base
		if firstLanes {
			kcfg.Kernel = engine.KernelLanes
			kcfg.LaneWidth = 4
		}
		kcfg.Workers = 3
		kcfg.Checkpoint = w
		kcfg.Fault = plan.Hook()
		res, err := AllPairsContext(ctx, moduli, kcfg)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if !res.Canceled {
			t.Fatal("run completed before the cancel fired")
		}

		st, err := checkpoint.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		w2, err := checkpoint.OpenAppend(path)
		if err != nil {
			t.Fatal(err)
		}
		rcfg := base
		if !firstLanes { // resume under the other kernel
			rcfg.Kernel = engine.KernelLanes
			rcfg.LaneWidth = 16
		}
		rcfg.Resume = st
		rcfg.Checkpoint = w2
		resumed, err := AllPairs(moduli, rcfg)
		if err != nil {
			t.Fatalf("resume (firstLanes=%v): %v", firstLanes, err)
		}
		if err := w2.Close(); err != nil {
			t.Fatal(err)
		}
		if resumed.Canceled || resumed.Pairs != clean.Pairs {
			t.Fatalf("resumed: canceled=%v pairs=%d want %d", resumed.Canceled, resumed.Pairs, clean.Pairs)
		}
		if resumed.ResumedPairs != res.Pairs {
			t.Fatalf("replayed %d pairs, journal had %d", resumed.ResumedPairs, res.Pairs)
		}
		sameFactors(t, resumed.Factors, clean.Factors)
	}
}

// TestLanesMetrics: a lanes run populates the bulk_lanes_* instruments
// with self-consistent values; a scalar run leaves them untouched.
func TestLanesMetrics(t *testing.T) {
	c := weakCorpus(t, 16, 64, 2, 55)
	moduli := c.Moduli()
	reg := obs.NewRegistry()
	cfg := lanesCfg(8)
	cfg.Workers = 2
	cfg.Metrics = reg
	res, err := AllPairs(moduli, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	retired := snap.Counters["bulk_lanes_retirements_total"]
	if retired != res.Pairs {
		t.Errorf("bulk_lanes_retirements_total = %d, want %d retired pairs", retired, res.Pairs)
	}
	if snap.Counters["bulk_lanes_batches_total"] <= 0 {
		t.Error("bulk_lanes_batches_total not populated")
	}
	if snap.Counters["bulk_lanes_supersteps_total"] <= 0 {
		t.Error("bulk_lanes_supersteps_total not populated")
	}
	if occ := snap.Gauges["bulk_lanes_occupancy"]; occ <= 0 || occ > 1 {
		t.Errorf("bulk_lanes_occupancy = %v, want in (0, 1]", occ)
	}

	scalarReg := obs.NewRegistry()
	if _, err := AllPairs(moduli, Config{
		Config:    engine.Config{Metrics: scalarReg},
		Algorithm: gcd.Approximate, Early: true,
	}); err != nil {
		t.Fatal(err)
	}
	if n := scalarReg.Snapshot().Counters["bulk_lanes_batches_total"]; n != 0 {
		t.Errorf("scalar run incremented bulk_lanes_batches_total to %d", n)
	}
}
