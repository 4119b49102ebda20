package main

import (
	"hash/fnv"
	"math"
	"reflect"
	"testing"
)

func digest(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// TestGeneratorsPinned pins the generated inputs: a seed must name the
// same rows forever, or runs of different commits stop being comparable.
func TestGeneratorsPinned(t *testing.T) {
	n := genNLTCS(7, 500)
	a := genAdult(7, 500)
	if !reflect.DeepEqual(n, genNLTCS(7, 500)) || !reflect.DeepEqual(a, genAdult(7, 500)) {
		t.Fatal("same seed gave different rows")
	}
	if reflect.DeepEqual(n.Rows, genNLTCS(8, 500).Rows) {
		t.Fatal("different seeds gave the same rows")
	}
	// Regenerate these only when the benchmark's inputs change on purpose;
	// that resets every baseline.
	const wantNLTCS, wantAdult = 0x4747e7eb1dba62bd, 0x827bc4a22910c0f
	if got := digest(ndjson(n.Schema, n.Rows)); got != wantNLTCS {
		t.Errorf("NLTCS digest = %#x, want %#x", got, uint64(wantNLTCS))
	}
	if got := digest(ndjson(a.Schema, a.Rows)); got != wantAdult {
		t.Errorf("Adult digest = %#x, want %#x", got, uint64(wantAdult))
	}
}

// TestGeneratorShapes checks the properties the workloads rely on: tuple
// values in range, the NLTCS ADL items rarer than the IADL items, and the
// Adult domain encoding to 23 bits.
func TestGeneratorShapes(t *testing.T) {
	n := genNLTCS(3, 20000)
	var adl, iadl float64
	for _, row := range n.Rows {
		for j, v := range row {
			if v != 0 && v != 1 {
				t.Fatalf("NLTCS value %d", v)
			}
			if j < 6 {
				adl += float64(v) / 6
			} else {
				iadl += float64(v) / 10
			}
		}
	}
	if adl >= iadl {
		t.Errorf("ADL rate %.0f not below IADL rate %.0f", adl, iadl)
	}
	a := genAdult(3, 20000)
	bitsUsed := 0
	for _, at := range a.Schema {
		bitsUsed += at.bitWidth()
	}
	if bitsUsed != 23 {
		t.Errorf("Adult encodes to %d bits, want 23", bitsUsed)
	}
	for _, row := range a.Rows {
		for j, v := range row {
			if v < 0 || v >= a.Schema[j].Cardinality {
				t.Fatalf("Adult attribute %d value %d out of range", j, v)
			}
		}
	}
}

// TestMarginalHandComputed checks the truth tally against a small case
// worked by hand, including a non-power-of-two attribute whose padding
// cells stay empty.
func TestMarginalHandComputed(t *testing.T) {
	schema := []attr{{"a", 2}, {"b", 3}, {"c", 2}}
	rows := [][]int{{0, 0, 1}, {1, 2, 0}, {1, 2, 1}, {0, 1, 1}, {1, 0, 0}}
	// {a, b}: a in bit 0, b in bits 1-2; cell = a | b<<1.
	want := []float64{
		1, // a0 b0
		1, // a1 b0
		1, // a0 b1
		0, // a1 b1
		0, // a0 b2
		2, // a1 b2
		0, // padding b3
		0,
	}
	if got := marginal(schema, rows, []int{0, 1}); !reflect.DeepEqual(got, want) {
		t.Errorf("marginal {a,b} = %v, want %v", got, want)
	}
	// {a, c}: cell = a | c<<1.
	if got, want := marginal(schema, rows, []int{0, 2}), []float64{0, 2, 2, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("marginal {a,c} = %v, want %v", got, want)
	}
	if got := relativeError([]float64{2, 2}, []float64{3, 1.5}); math.Abs(got-0.375) > 1e-12 {
		t.Errorf("relativeError = %v, want 0.375", got)
	}
}

func TestPercentileRule(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, descending
	}
	if v, ok := percentile(xs, 0.99, 10); v != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %v (ok=%v), want 990 with 10 samples beyond", v, ok)
	}
	if _, ok := percentile(xs[:999], 0.99, 10); ok {
		t.Error("p99 of 999 samples accepted; it has only 9 samples beyond it")
	}
	if v, _ := percentile(xs, 0.5, 0); v != 500 {
		t.Errorf("p50 = %v, want 500", v)
	}
	// A failed request is +Inf and counts as missing every limit.
	withFail := []float64{1, 2, math.Inf(1)}
	if v, _ := percentile(withFail, 0.99, 0); !math.IsInf(v, 1) {
		t.Errorf("p99 with a failure = %v, want +Inf", v)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// TestQuartilesMatchPython compares against statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9, 4, 7.75}, [3]float64{2.375, 4.0, 8.375}},
		{[]float64{2, 8}, [3]float64{0.5, 5.0, 9.5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
}
