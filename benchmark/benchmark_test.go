package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"math/big"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"bulkgcd"
)

// testPool is a small pool of 128-bit primes, quick to generate.
func testPool(t *testing.T) []*big.Int {
	t.Helper()
	primes, err := generatePool(poolSpec{Bits: 128, Count: 160, Seed: 7}, 2)
	if err != nil {
		t.Fatal(err)
	}
	return primes
}

// small shrinks every workload to a few dozen keys.
var small = map[string]workload{
	"scan-batch": {name: "scan-batch", scan: &scanSpec{Keys: 24, Pairs: 2, Dups: 1}, opts: workloads[0].opts},
	"scan-pairs": {name: "scan-pairs", scan: &scanSpec{Keys: 20, Pairs: 2, Dups: 1}, opts: workloads[1].opts},
	"registry-stream": {name: "registry-stream", stream: &streamSpec{
		SeedKeys: 16, Batch: 4, Stream: 24, Shared: 2, Dups: 1, Malformed: 1}},
}

func testEnv(t *testing.T, pool []*big.Int, seed int64, traced bool) *env {
	return &env{pool: pool, seed: seed, traced: traced, workers: 2, clock: newHostClock(2), dir: t.TempDir(), log: io.Discard}
}

func corpusBytes(t *testing.T, pool []*big.Int, seed int64) []byte {
	t.Helper()
	c, err := buildScanCorpus(pool, *small["scan-batch"].scan, seed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := bulkgcd.WriteCorpus(&buf, c.Moduli(), "test"); err != nil {
		t.Fatal(err)
	}
	s, err := buildStreamCorpus(pool, *small["registry-stream"].stream, seed)
	if err != nil {
		t.Fatal(err)
	}
	var stream []*big.Int
	for _, sub := range s.Stream {
		stream = append(stream, sub.Key.N)
	}
	for _, ms := range [][]*big.Int{s.SeedModuli(), stream} {
		for _, m := range ms {
			buf.WriteString(m.Text(16) + "\n")
		}
	}
	return buf.Bytes()
}

func TestCorpusDeterministic(t *testing.T) {
	pool := testPool(t)
	again, err := generatePool(poolSpec{Bits: 128, Count: 160, Seed: 7}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pool {
		if pool[i].Cmp(again[i]) != 0 {
			t.Fatalf("prime %d differs between 2 workers and 1", i)
		}
	}
	a, b := corpusBytes(t, pool, 1), corpusBytes(t, pool, 1)
	if !bytes.Equal(a, b) {
		t.Error("the same seed gave two different corpora")
	}
	if bytes.Equal(a, corpusBytes(t, pool, 2)) {
		t.Error("two seeds gave the same corpus")
	}
}

var regenPool = flag.Bool("regen-pool", false, "regenerate the shipped prime pool file (minutes)")

// TestShippedPool checks the shipped pool file: it verifies, it holds
// what the generator makes, and a doctored copy does not load. With
// -regen-pool it first writes the file afresh from the generator.
func TestShippedPool(t *testing.T) {
	data := poolFile
	if *regenPool {
		primes, err := generatePool(pool, runtime.NumCPU())
		if err != nil {
			t.Fatal(err)
		}
		data = formatPool(pool, primes)
		if err := os.WriteFile(poolFileName(pool), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	primes, err := loadPool(data, pool)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1, 2047, pool.Count - 1} {
		if primes[i].Cmp(poolPrime(pool, i)) != 0 {
			t.Errorf("shipped prime %d is not the generator's", i)
		}
	}
	if !bytes.Equal(formatPool(pool, primes), data) {
		t.Error("the shipped file is not in formatPool's form")
	}

	lines := strings.Split(string(data), "\n")
	lines[5] = lines[1] // a valid prime, but not this line's
	if _, err := loadPool([]byte(strings.Join(lines, "\n")), pool); err == nil {
		t.Error("a doctored pool loaded")
	}
	other := pool
	other.Seed++
	if _, err := loadPool(data, other); err == nil {
		t.Error("a pool of another spec loaded")
	}
}

func TestOracleRejectsDoctoredScan(t *testing.T) {
	pool := testPool(t)
	c, err := buildScanCorpus(pool, *small["scan-batch"].scan, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads[:2] {
		rep, err := bulkgcd.New(w.opts...).Run(context.Background(), c.Moduli())
		if err != nil {
			t.Fatal(err)
		}
		if err := checkScan(c, rep); err != nil {
			t.Fatalf("%s: true report rejected: %v", w.name, err)
		}
	}
	rep, err := bulkgcd.New(workloads[0].opts...).Run(context.Background(), c.Moduli())
	if err != nil {
		t.Fatal(err)
	}
	clean := 0
	for clean < len(c.Keys) {
		if _, planted := c.Partner[clean]; !planted && clean != c.Dups[0][0] && clean != c.Dups[0][1] {
			break
		}
		clean++
	}
	doctor := map[string]func(r *bulkgcd.Report){
		"dropped finding": func(r *bulkgcd.Report) { r.Broken = r.Broken[1:] },
		"extra finding": func(r *bulkgcd.Report) {
			k := c.Keys[clean]
			r.Broken = append(r.Broken, bulkgcd.BrokenKey{Index: clean, N: k.N, P: k.P, Q: k.Q, FoundWith: r.Broken[0].Index})
		},
		"wrong partner":     func(r *bulkgcd.Report) { r.Broken[0].FoundWith = clean },
		"wrong factor":      func(r *bulkgcd.Report) { r.Broken[0].P = big.NewInt(3) },
		"wrong exponent":    func(r *bulkgcd.Report) { r.Broken[0].D = big.NewInt(3) },
		"dropped duplicate": func(r *bulkgcd.Report) { r.Duplicates = nil },
		"extra duplicate":   func(r *bulkgcd.Report) { r.Duplicates = append(r.Duplicates, [2]int{0, clean}) },
	}
	for name, f := range doctor {
		r := *rep
		r.Broken = append([]bulkgcd.BrokenKey(nil), rep.Broken...)
		r.Duplicates = append([][2]int(nil), rep.Duplicates...)
		f(&r)
		if err := checkScan(c, &r); err == nil {
			t.Errorf("%s: doctored report accepted", name)
		}
	}
}

func TestOracleRejectsDoctoredVerdicts(t *testing.T) {
	pool := testPool(t)
	c, err := buildStreamCorpus(pool, *small["registry-stream"].stream, 5)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := bulkgcd.OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	vs, err := reg.SubmitBatch(c.SeedModuli())
	if err != nil {
		t.Fatal(err)
	}
	if err := checkBatch(c.Seed, 0, vs); err != nil {
		t.Fatalf("true bulk-load verdicts rejected: %v", err)
	}
	kinds := map[string]int{}
	for _, sub := range c.Stream {
		v, err := reg.Submit(sub.Key.N)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkVerdict(sub, v); err != nil {
			t.Fatalf("true verdict rejected: %v", err)
		}
		kinds[sub.Kind]++
		if sub.Kind == "malformed" {
			continue
		}
		doctor := map[string]func(v *bulkgcd.KeyVerdict){
			"wrong kind":  func(v *bulkgcd.KeyVerdict) { v.Kind = (v.Kind + 1) % 3 },
			"wrong index": func(v *bulkgcd.KeyVerdict) { v.Index++ },
			"extra partner": func(v *bulkgcd.KeyVerdict) {
				v.Partners = append(v.Partners, bulkgcd.KeyPartner{Index: 0, Factor: big.NewInt(3)})
			},
		}
		if len(v.Partners) > 0 {
			doctor["dropped partner"] = func(v *bulkgcd.KeyVerdict) { v.Partners = v.Partners[1:] }
			doctor["wrong factor"] = func(v *bulkgcd.KeyVerdict) {
				v.Partners = append([]bulkgcd.KeyPartner(nil), v.Partners...)
				v.Partners[0].Factor = big.NewInt(3)
			}
		}
		for name, f := range doctor {
			d := v
			f(&d)
			if err := checkVerdict(sub, d); err == nil {
				t.Errorf("%s verdict with %s accepted", sub.Kind, name)
			}
		}
	}
	want := map[string]int{"clean": 20, "shared": 2, "duplicate": 1, "malformed": 1}
	for k, n := range want {
		if kinds[k] < n {
			t.Errorf("stream has %d %s submissions, want at least %d", kinds[k], k, n)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the command must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBoundsMatchReadme checks every end-to-end bound in BENCHMARK.json
// against the last column of the README's end-to-end table, and the
// reverse.
func TestBoundsMatchReadme(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, _ := strings.Cut(string(data), "## End-to-end metrics")
	table, _, _ = strings.Cut(table, "\n## ")
	documented := map[string]string{}
	for _, line := range strings.Split(table, "\n") {
		cells := strings.Split(strings.Trim(line, "|"), "|")
		first := strings.TrimSpace(cells[0])
		if len(cells) < 2 || !strings.HasPrefix(first, "`") {
			continue
		}
		documented[strings.Trim(first, "`")] = strings.TrimSpace(cells[len(cells)-1])
	}
	bf := readBenchmarkFile(t)
	for _, m := range bf.EndToEnd {
		got, ok := documented[m.Name]
		if !ok {
			t.Errorf("README's end-to-end table has no row for %s", m.Name)
			continue
		}
		if want := strconv.FormatFloat(m.Bound, 'g', -1, 64); got != want {
			t.Errorf("%s: README bound %q, BENCHMARK.json %s", m.Name, got, want)
		}
		delete(documented, m.Name)
	}
	for name := range documented {
		t.Errorf("README's end-to-end table lists %s, BENCHMARK.json does not", name)
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if strings.Join(names, ",") != strings.Join(ours, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, command has %v", names, ours)
	}
	want := [2]map[string]string{{}, {}}
	for _, m := range bf.EndToEnd {
		want[0][m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		want[1][m.Name] = m.Unit
	}

	pool := testPool(t)
	for _, name := range names {
		for trace := 0; trace < 2; trace++ {
			res := runSmall(t, pool, name, 2, trace == 1)
			got := map[string]string{}
			for k, m := range res.Metrics {
				got[k] = m.Unit
				if trace == 0 && m.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, want > 0", name, k, m.Value)
				}
			}
			if a, b := keys(got), keys(want[trace]); a != b {
				t.Errorf("%s trace=%d: command prints %s\nBENCHMARK.json lists %s", name, trace, a, b)
			}
			for k, u := range want[trace] {
				if got[k] != u {
					t.Errorf("%s: %s unit %q, BENCHMARK.json says %q", name, k, got[k], u)
				}
			}
		}
	}
}

// runSmall runs the small version of a workload once and checks that
// every operation succeeded.
func runSmall(t *testing.T, pool []*big.Int, name string, workers int, traced bool) result {
	t.Helper()
	e := testEnv(t, pool, 9, traced)
	e.workers = workers
	o, err := runWorkload(e, small[name])
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	res, err := o.result(traced)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: %d of %d operations failed: %v", name, res.Failed, res.Attempted, o.firstErr)
	}
	return res
}

// TestExactCountsRepeat runs each traced workload twice on one seed. The
// tree, pair and spine counts do not depend on the schedule. The lane
// kernel's iteration and memory-operation counts do: its Lehmer batch
// depth adapts per worker, so with several workers they move with the
// work a steal hands over. They repeat exactly with one worker.
func TestExactCountsRepeat(t *testing.T) {
	pool := testPool(t)
	for _, c := range []struct {
		workers int
		counts  []string
	}{
		{2, []string{"batchgcd.tree_ops", "bulk.pairs", "registry.spine_mults"}},
		{1, []string{"gcd.iterations", "gcd.memops"}},
	} {
		for _, w := range workloads {
			a := runSmall(t, pool, w.name, c.workers, true)
			b := runSmall(t, pool, w.name, c.workers, true)
			for _, k := range c.counts {
				if x, y := a.Metrics[k].Value, b.Metrics[k].Value; x != y {
					t.Errorf("%s with %d workers: %s = %v, then %v", w.name, c.workers, k, x, y)
				}
			}
		}
	}
}

func keys(m map[string]string) string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return strings.Join(ks, " ")
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "scan-batch", "--trace", "2"},
		{"--workload", "scan-batch", "--bogus"},
	} {
		var out bytes.Buffer
		if code := run(args, &out, io.Discard); code == 0 || out.Len() != 0 {
			t.Errorf("%q: exit %d, output %q", args, code, out.String())
		}
	}
}
