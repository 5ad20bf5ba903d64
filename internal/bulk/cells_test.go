package bulk

import (
	"context"
	"fmt"
	"testing"

	"bulkgcd/internal/checkpoint"
	"bulkgcd/internal/engine"
	"bulkgcd/internal/faultinject"
	"bulkgcd/internal/gcd"
)

// TestCellRunnerMatchesHybrid: running every cell individually through
// the exported CellRunner and assembling the records must reproduce the
// in-process hybrid run exactly — the property that makes a fleet of
// CellRunners equivalent to one local scan.
func TestCellRunnerMatchesHybrid(t *testing.T) {
	c := weakCorpus(t, 40, 64, 4, 91)
	ms := c.Moduli()
	cfg := Config{Algorithm: gcd.Approximate, Early: true, TileSize: 8}
	base, err := Hybrid(ms, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Factors) == 0 {
		t.Fatal("corpus with planted pairs produced no factors")
	}

	r, err := NewCellRunner(ms, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := HybridJournalHeader(ms, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Header() != hdr {
		t.Fatalf("Header() = %+v, want %+v", r.Header(), hdr)
	}
	if r.Units() != hdr.Units || r.TotalPairs() != hdr.TotalPairs {
		t.Fatalf("Units/TotalPairs = %d/%d, header %d/%d",
			r.Units(), r.TotalPairs(), hdr.Units, hdr.TotalPairs)
	}

	records := map[int]checkpoint.Record{}
	for u := r.Units() - 1; u >= 0; u-- { // any order: cells are independent
		rec, err := r.RunUnit(context.Background(), u)
		if err != nil {
			t.Fatalf("cell %d: %v", u, err)
		}
		if rec.Unit != u {
			t.Fatalf("cell %d recorded as unit %d", u, rec.Unit)
		}
		records[u] = rec
	}
	res, err := r.Assemble(records)
	if err != nil {
		t.Fatal(err)
	}
	sameFactors(t, res.Factors, base.Factors)
	if res.Pairs != base.Pairs || res.Total != base.Total {
		t.Fatalf("pairs %d/%d, hybrid %d/%d", res.Pairs, res.Total, base.Pairs, base.Total)
	}
	if len(res.BadPairs) != 0 || len(res.Quarantined) != 0 {
		t.Fatalf("unexpected bad pairs %v or quarantined %v", res.BadPairs, res.Quarantined)
	}
}

// TestCellRunnerPanicRecovery: a panic injected into a cell surfaces as
// an error from RunUnit — the fleet's poisoned-cell signal — and the
// runner stays usable: retrying the same cell after the fault clears
// produces the correct record.
func TestCellRunnerPanicRecovery(t *testing.T) {
	c := weakCorpus(t, 24, 64, 2, 92)
	ms := c.Moduli()
	failures := 0
	hook := &faultinject.Hook{Block: func(u int) {
		if u == 1 && failures < 2 {
			failures++
			panic(fmt.Sprintf("injected cell fault %d", failures))
		}
	}}
	cfg := Config{
		Config:    engine.Config{Fault: hook},
		Algorithm: gcd.Approximate, Early: true, TileSize: 6,
	}
	r, err := NewCellRunner(ms, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for attempt := 0; attempt < 2; attempt++ {
		if _, err := r.RunUnit(context.Background(), 1); err == nil {
			t.Fatalf("attempt %d: injected panic did not surface", attempt)
		}
	}
	rec, err := r.RunUnit(context.Background(), 1)
	if err != nil {
		t.Fatalf("after faults cleared: %v", err)
	}
	clean, err := NewCellRunner(ms, Config{Algorithm: gcd.Approximate, Early: true, TileSize: 6})
	if err != nil {
		t.Fatal(err)
	}
	want, err := clean.RunUnit(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Pairs != want.Pairs || len(rec.Factors) != len(want.Factors) {
		t.Fatalf("post-recovery record %+v, want %+v", rec, want)
	}
}

func TestCellRunnerEdges(t *testing.T) {
	c := weakCorpus(t, 12, 64, 0, 93)
	r, err := NewCellRunner(c.Moduli(), Config{Algorithm: gcd.Approximate, TileSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunUnit(context.Background(), -1); err == nil {
		t.Fatal("negative unit accepted")
	}
	if _, err := r.RunUnit(context.Background(), r.Units()); err == nil {
		t.Fatal("out-of-range unit accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.RunUnit(ctx, 0); err != context.Canceled {
		t.Fatalf("canceled ctx: %v", err)
	}
}
