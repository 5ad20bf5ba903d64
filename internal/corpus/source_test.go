package corpus

import (
	"math/big"
	"strconv"
	"strings"
	"testing"

	"bulkgcd/internal/mpnat"
	"bulkgcd/internal/pemkeys"
)

func TestSourceHexStreaming(t *testing.T) {
	in := "# comment\n\nff\n  09  \n# tail\n15\n"
	src := NewSource(strings.NewReader(in))
	var got []string
	var lines []int
	for src.Next() {
		rec := src.Record()
		if rec.Index != len(got) {
			t.Fatalf("record %d has Index %d", len(got), rec.Index)
		}
		if rec.PEM != nil {
			t.Fatal("hex record carries PEM provenance")
		}
		got = append(got, rec.N.Hex())
		lines = append(lines, rec.Line)
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, ",") != "ff,9,15" {
		t.Fatalf("moduli = %v", got)
	}
	if lines[0] != 3 || lines[1] != 4 || lines[2] != 6 {
		t.Fatalf("lines = %v", lines)
	}
	if src.Count() != 3 || len(src.Skipped()) != 0 {
		t.Fatalf("count %d skipped %d", src.Count(), len(src.Skipped()))
	}
}

func TestSourceStrictVsLenient(t *testing.T) {
	in := "ff\n10\n" // 0x10 is even
	src := NewSource(strings.NewReader(in))
	n := 0
	for src.Next() {
		n++
	}
	if err := src.Err(); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("strict source: %d records, err %v", n, err)
	}

	src = NewLenientSource(strings.NewReader(in))
	n = 0
	for src.Next() {
		n++
	}
	if src.Err() != nil || n != 2 {
		t.Fatalf("lenient source: %d records, err %v", n, src.Err())
	}
}

func TestSourceBadHexStopsWithLine(t *testing.T) {
	src := NewSource(strings.NewReader("ff\nnot-hex\n"))
	for src.Next() {
	}
	if err := src.Err(); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v", err)
	}
	// Err is sticky: Next stays false.
	if src.Next() {
		t.Fatal("Next advanced past an error")
	}
}

func TestSourcePEM(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("junk preamble outside any armour\n")
	n1 := new(big.Int).SetInt64(0xC5) // odd
	n2 := new(big.Int).SetInt64(0xE3)
	if err := pemkeys.WritePublicKey(&sb, n1, 65537); err != nil {
		t.Fatal(err)
	}
	sb.WriteString("-----BEGIN GARBAGE-----\nAAAA\n-----END GARBAGE-----\n")
	if err := pemkeys.WritePublicKey(&sb, n2, 3); err != nil {
		t.Fatal(err)
	}

	src := NewSource(strings.NewReader(sb.String()))
	var recs []Record
	for src.Next() {
		recs = append(recs, src.Record())
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("records = %+v", recs)
	}
	if recs[0].N.Hex() != "c5" || recs[1].N.Hex() != "e3" {
		t.Fatalf("moduli = %s,%s", recs[0].N.Hex(), recs[1].N.Hex())
	}
	if recs[0].PEM == nil || recs[1].PEM == nil || recs[1].PEM.E != 3 {
		t.Fatalf("PEM provenance missing: %+v", recs)
	}
	skips := src.Skipped()
	if len(skips) != 1 || skips[0].Label != "GARBAGE" || skips[0].Reason == "" {
		t.Fatalf("Skipped() = %+v", skips)
	}
}

func TestSourcePEMStrictEven(t *testing.T) {
	var sb strings.Builder
	if err := pemkeys.WritePublicKey(&sb, new(big.Int).SetInt64(0xC4), 65537); err != nil {
		t.Fatal(err)
	}
	src := NewSource(strings.NewReader(sb.String()))
	for src.Next() {
	}
	if err := src.Err(); err == nil || !strings.Contains(err.Error(), "even modulus") {
		t.Fatalf("strict PEM: %v", err)
	}
	src = NewLenientSource(strings.NewReader(sb.String()))
	n := 0
	for src.Next() {
		n++
	}
	if src.Err() != nil || n != 1 {
		t.Fatalf("lenient PEM: %d records, err %v", n, src.Err())
	}
}

func TestValidate(t *testing.T) {
	if r := Validate(mpnat.FromBig(big.NewInt(0))); !strings.Contains(r, "zero") {
		t.Fatalf("zero: %q", r)
	}
	if r := Validate(mpnat.FromBig(big.NewInt(4))); !strings.Contains(r, "even") {
		t.Fatalf("even: %q", r)
	}
	if r := Validate(mpnat.FromBig(big.NewInt(15))); r != "" {
		t.Fatalf("odd: %q", r)
	}
}

// TestValidateCeiling: the oversize reason names the ceiling, and both
// integer types agree at and above it.
func TestValidateCeiling(t *testing.T) {
	if !strings.Contains(ReasonOversize, strconv.Itoa(MaxModulusBits)) {
		t.Fatalf("ReasonOversize %q does not name the %d-bit ceiling", ReasonOversize, MaxModulusBits)
	}
	for _, tc := range []struct {
		bits int
		want string
	}{{MaxModulusBits, ""}, {MaxModulusBits + 1, ReasonOversize}} {
		n := new(big.Int).Lsh(big.NewInt(1), uint(tc.bits-1))
		n.Add(n, big.NewInt(1))
		if got := Validate(n); got != tc.want {
			t.Errorf("big.Int of %d bits: %q, want %q", tc.bits, got, tc.want)
		}
		if got := Validate(mpnat.FromBig(n)); got != tc.want {
			t.Errorf("mpnat.Nat of %d bits: %q, want %q", tc.bits, got, tc.want)
		}
	}
}
