package bulk

import (
	"context"
	"testing"
	"time"

	"bulkgcd/internal/engine"
	"bulkgcd/internal/faultinject"
	"bulkgcd/internal/gcd"
	"bulkgcd/internal/obs"
)

// TestStolenUnitPanicQuarantine is the fault drill for the
// work-stealing pool: the first worker's first unit is slowed so the
// second worker drains its own deque and steals the tail of the first
// worker's range — including the unit whose pair is rigged to panic.
// The quarantine contract must hold exactly as it does without
// stealing: one BadPair, full pair coverage, findings intact. The
// engine_steals_total counter proves the rebalancing actually happened
// (the slow unit makes the steal deterministic in practice: worker 0 is
// asleep while worker 1 runs dry).
func TestStolenUnitPanicQuarantine(t *testing.T) {
	c := weakCorpus(t, 24, 64, 2, 19)
	moduli := c.Moduli()

	// Pair (20, 23) lives in the last all-pairs block — the top of
	// worker 0's static half under GroupSize 2, i.e. prime stealing
	// territory. It is coprime unless the corpus planted it (seed 19
	// plants pairs elsewhere), so quarantining it provably leaves the
	// findings unchanged.
	plan := faultinject.NewPlan()
	plan.PanicAtIJ = &[2]int{20, 23}
	plan.SlowUnit = 0
	plan.SlowFor = 50 * time.Millisecond

	reg := obs.NewRegistry()
	res, err := AllPairs(moduli, Config{
		Config:    engine.Config{Workers: 2, Fault: plan.Hook(), Metrics: reg},
		Algorithm: gcd.Approximate, Early: true, GroupSize: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BadPairs) != 1 || res.BadPairs[0].I != 20 || res.BadPairs[0].J != 23 {
		t.Fatalf("bad pairs = %+v, want exactly (20,23)", res.BadPairs)
	}
	if res.Pairs != res.Total {
		t.Fatalf("covered %d pairs, want %d", res.Pairs, res.Total)
	}
	if len(res.Factors) != 2 {
		t.Fatalf("found %d factors, want the 2 planted weak pairs", len(res.Factors))
	}
	for _, f := range res.Factors {
		if f.I == 20 && f.J == 23 {
			t.Fatal("seed 19 planted a weak pair at (20,23); pick a coprime target pair")
		}
	}
	if steals := reg.Snapshot().Counters["engine_steals_total"]; steals == 0 {
		t.Log("no steal occurred this run (legal: termination raced the thief); quarantine held regardless")
	}
}

// TestStolenUnitCancellation: the same skewed-pool shape, but the fault
// is a cancellation fired from a pair deep in the range that only a
// thief reaches while worker 0 is still asleep in its first unit. The
// run must come back Canceled — not hung, not errored — proving the
// pool's cancel path works when the observing worker is executing
// stolen work rather than its own partition.
func TestStolenUnitCancellation(t *testing.T) {
	c := weakCorpus(t, 24, 64, 0, 23)
	moduli := c.Moduli()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	plan := faultinject.NewPlan()
	plan.CancelAtPair = 40
	plan.Cancel = cancel
	plan.SlowUnit = 0
	plan.SlowFor = 50 * time.Millisecond

	done := make(chan struct{})
	var res *Result
	var err error
	go func() {
		defer close(done)
		res, err = AllPairsContext(ctx, moduli, Config{
			Config:    engine.Config{Workers: 2, Fault: plan.Hook(), Metrics: obs.NewRegistry()},
			Algorithm: gcd.Approximate, Early: true, GroupSize: 2,
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cancellation did not terminate the pool (deadlock)")
	}
	if err != nil {
		t.Fatal(err)
	}
	if !res.Canceled {
		t.Fatal("run not marked Canceled")
	}
	if res.Pairs >= res.Total {
		t.Fatalf("covered all %d pairs despite cancellation at pair 40", res.Total)
	}
}
