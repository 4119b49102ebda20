package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"repro"
)

// edgeFloats are the values where encoding/json's float formatting changes
// shape: signed zeros, subnormals, the 'f'/'e' switch at 1e-6 and 1e21 on
// both sides, exponents that need the e-0N cleanup, and the extremes.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 0.5, 1.5, 100, 1e20, 123456789.125,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	2.225073858507201e-308, 2.2250738585072014e-308,
	1e-6, -1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), 1e-7, 1.5e-9, 9.99e-7,
	1e21, -1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), 1e22, 1.2345e100,
	math.MaxFloat64, -math.MaxFloat64, 1.0000000000000002, 0.30000000000000004,
}

// randomFloat draws finite floats across every exponent, plus plain
// decimals of the magnitudes released cells have.
func randomFloat(rng *rand.Rand) float64 {
	if rng.Intn(2) == 0 {
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-3))
	}
	for {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			return f
		}
	}
}

// sameAsJSON fails unless got/gotErr is exactly json.Marshal(v): the same
// bytes, or an error of the same type and message.
func sameAsJSON(t testing.TB, what string, v any, got []byte, gotErr error) {
	t.Helper()
	want, wantErr := json.Marshal(v)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s: error %v, json.Marshal %v", what, gotErr, wantErr)
	}
	if wantErr != nil {
		if reflect.TypeOf(gotErr) != reflect.TypeOf(wantErr) || gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: error %T %q, json.Marshal %T %q", what, gotErr, gotErr, wantErr, wantErr)
		}
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s:\n got %s\nwant %s", what, got, want)
	}
}

// bodyTables builds tables covering nil and empty attrs and cells around
// a run of the given cell values.
func bodyTables(cells []float64) []marginalJSON {
	return []marginalJSON{
		{Attrs: nil, Cells: nil, Variance: 0},
		{Attrs: []int{}, Cells: []float64{}, Variance: 1},
		{Attrs: []int{0, 3, 12, 1234567}, Cells: cells, Variance: 2.5e-7},
		{Attrs: []int{-1}, Cells: cells[:min(1, len(cells))], Variance: math.MaxFloat64},
	}
}

// TestReleaseBodyMatchesJSONMarshal: releaseBody.marshal is json.Marshal
// byte for byte over edge and random floats, nil and empty tables, attrs
// and cells, and strategy names that need escaping — and refuses NaN and
// ±Inf with json.Marshal's error wherever they sit.
func TestReleaseBodyMatchesJSONMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	cells := append([]float64(nil), edgeFloats...)
	for i := 0; i < 20000; i++ {
		cells = append(cells, randomFloat(rng))
	}
	for _, name := range []string{"F", "", "Q+", `<F&"\` + "\n\u2028é\xff>", "C"} {
		for _, tables := range [][]marginalJSON{nil, {}, bodyTables(cells)} {
			b := releaseBody{Strategy: name, TotalVariance: 12.5, Tables: tables}
			got, err := b.marshal()
			sameAsJSON(t, "release "+name, b, got, err)
		}
	}
	for _, v := range edgeFloats {
		b := releaseBody{Strategy: "F", TotalVariance: v}
		got, err := b.marshal()
		sameAsJSON(t, "total variance", b, got, err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, b := range []releaseBody{
			{Strategy: "F", TotalVariance: bad},
			{Strategy: "F", Tables: []marginalJSON{{Cells: []float64{1, bad}}}},
			{Strategy: "F", Tables: []marginalJSON{{Variance: bad}}},
			// The first bad value in field order names the error.
			{Strategy: "F", TotalVariance: -bad, Tables: []marginalJSON{{Variance: bad}}},
		} {
			got, err := b.marshal()
			sameAsJSON(t, "non-finite", b, got, err)
			var uv *json.UnsupportedValueError
			if !errors.As(err, &uv) {
				t.Fatalf("non-finite %v: error %v", bad, err)
			}
		}
	}
}

// budgetBytes returns what writeSpliced writes for b: bodyWriter.budget's
// output, or its first error.
func budgetBytes(b budgetJSON) ([]byte, error) {
	w := newBodyWriter(budgetBound)
	defer w.free()
	w.budget(b)
	return w.bytes()
}

// TestBudgetMatchesJSONMarshal: the budget tail spliced onto every
// release-shaped response is json.Marshal(budgetJSON) byte for byte over
// edge floats and release counts, and refuses NaN and ±Inf in any field
// with json.Marshal's error.
func TestBudgetMatchesJSONMarshal(t *testing.T) {
	vals := append(append([]float64(nil), edgeFloats...), math.NaN(), math.Inf(1), math.Inf(-1))
	for i, v := range vals {
		for _, b := range []budgetJSON{
			{EpsilonSpent: v, EpsilonCap: 10, DeltaSpent: 1e-9, DeltaCap: 1e-6, Releases: i},
			{EpsilonSpent: 0.5, EpsilonCap: v, DeltaSpent: 0, DeltaCap: 0, Releases: -i},
			{EpsilonSpent: 0.5, EpsilonCap: 1, DeltaSpent: v, DeltaCap: 1e-5, Releases: math.MaxInt},
			{EpsilonSpent: v, EpsilonCap: v, DeltaSpent: v, DeltaCap: v, Releases: math.MinInt},
		} {
			got, err := budgetBytes(b)
			sameAsJSON(t, "budget", b, got, err)
		}
	}
}

// TestCubeBodyMatchesJSONMarshal is TestReleaseBodyMatchesJSONMarshal for
// cube bodies.
func TestCubeBodyMatchesJSONMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cells := append([]float64(nil), edgeFloats...)
	for i := 0; i < 20000; i++ {
		cells = append(cells, randomFloat(rng))
	}
	for _, order := range []int{0, 1, 2, 16, -3} {
		for _, cuboids := range [][]marginalJSON{nil, {}, bodyTables(cells)} {
			b := cubeBody{MaxOrder: order, TotalVariance: 3, Cuboids: cuboids}
			got, err := b.marshal()
			sameAsJSON(t, "cube", b, got, err)
		}
	}
	for _, v := range append(edgeFloats, math.NaN(), math.Inf(1), math.Inf(-1)) {
		for _, b := range []cubeBody{
			{MaxOrder: 2, TotalVariance: v},
			{MaxOrder: 2, Cuboids: []marginalJSON{{Attrs: []int{}, Cells: []float64{v}, Variance: v}}},
		} {
			got, err := b.marshal()
			sameAsJSON(t, "cube value", b, got, err)
		}
	}
}

// FuzzReleaseBodyMarshal: for any strategy name and any float bits split
// into tables, releaseBody.marshal equals json.Marshal — bytes or error —
// and so does the budget tail built from the first four floats.
func FuzzReleaseBodyMarshal(f *testing.F) {
	seed := make([]byte, 0, 8*len(edgeFloats))
	for _, v := range edgeFloats {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add("F", seed, uint8(3))
	f.Add(`<"\`, binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN())), uint8(1))
	f.Fuzz(func(t *testing.T, name string, raw []byte, split uint8) {
		var vals []float64
		for ; len(raw) >= 8; raw = raw[8:] {
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(raw)))
		}
		b := releaseBody{Strategy: name}
		if len(vals) > 0 {
			b.TotalVariance = vals[0]
		}
		per := int(split%8) + 1
		for i := 0; i < len(vals); i += per {
			cells := vals[i:min(i+per, len(vals))]
			b.Tables = append(b.Tables, marginalJSON{Attrs: []int{i, per}, Cells: cells, Variance: cells[0]})
		}
		got, err := b.marshal()
		sameAsJSON(t, "fuzz", b, got, err)
		var budget budgetJSON
		for i, p := range []*float64{&budget.EpsilonSpent, &budget.EpsilonCap, &budget.DeltaSpent, &budget.DeltaCap} {
			if i < len(vals) {
				*p = vals[i]
			}
		}
		budget.Releases = len(vals)*int(split) - 1000
		got, err = budgetBytes(budget)
		sameAsJSON(t, "fuzz budget", budget, got, err)
	})
}

// BenchmarkRenderBody encodes the response bodies of a Fourier Q2 and Q3
// release and of a 2-way cube over NLTCS-shaped data (d = 16), through
// encoding/json and through the reflection-free marshal.
func BenchmarkRenderBody(b *testing.B) {
	tab := repro.SyntheticNLTCS(1, 21574)
	opts := repro.Options{Epsilon: 1, Seed: 3}
	bodies := map[string]interface{ marshal() ([]byte, error) }{}
	for _, k := range []int{2, 3} {
		res, err := repro.Release(tab, repro.AllKWayMarginals(tab.Schema, k), opts)
		if err != nil {
			b.Fatal(err)
		}
		bodies[map[int]string{2: "fourier-q2", 3: "fourier-q3"}[k]] = releaseBody{
			Strategy: res.Strategy, TotalVariance: res.TotalVariance, Tables: tablesJSON(res),
		}
	}
	cube, err := repro.ReleaseCube(tab, 2, opts)
	if err != nil {
		b.Fatal(err)
	}
	bodies["cube-2"] = cubeBody{MaxOrder: 2, TotalVariance: cube.TotalVariance, Cuboids: cuboidsJSON(cube)}
	for _, name := range []string{"fourier-q2", "fourier-q3", "cube-2"} {
		body := bodies[name]
		b.Run(name+"/encoding-json", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := json.Marshal(body); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/marshal", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := body.marshal(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// noisyCounts draws floats shaped like released cells: counts in the
// tens to tens of thousands plus Gaussian noise, all 15–17 significant
// digits.
func noisyCounts(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(rng.Intn(20000)) + rng.NormFloat64()*40
	}
	return out
}

// kernelEdgeFloats is every binade boundary and every power of ten in
// the normal range, each with its neighbours one ulp away, both signs,
// plus the values the body tests pin.
func kernelEdgeFloats() []float64 {
	var out []float64
	add := func(f float64) {
		for _, g := range []float64{f, math.Nextafter(f, 0), math.Nextafter(f, math.Inf(1))} {
			out = append(out, g, -g)
		}
	}
	for e := uint64(1); e < 0x7ff; e++ {
		add(math.Float64frombits(e << 52))
		add(math.Float64frombits(e<<52 | (1<<52 - 1)))
	}
	for p := -308; p <= 308; p++ {
		f, err := strconv.ParseFloat("1e"+strconv.Itoa(p), 64)
		if err != nil {
			panic(err)
		}
		add(f)
	}
	return append(out, edgeFloats...)
}

// sameAsStrconv fails unless appendJSONFloat(f) is jsonFloatStrconv(f):
// the same bytes, or an error of the same type and message.
func sameAsStrconv(t testing.TB, f float64) {
	t.Helper()
	got, gotErr := appendJSONFloat([]byte("x"), f)
	want, wantErr := jsonFloatStrconv([]byte("x"), f)
	if !bytes.Equal(got, want) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) ||
		reflect.TypeOf(gotErr) != reflect.TypeOf(wantErr) {
		t.Fatalf("%v (%#016x): kernel %q %v, strconv %q %v", f, math.Float64bits(f), got, gotErr, want, wantErr)
	}
}

// TestJSONFloatMatchesStrconv: the Schubfach kernel writes what
// strconv's shortest formatting writes, byte for byte, on every binade
// boundary and power of ten ±1 ulp, on the non-finite values, and on
// random bit patterns, noisy counts, integers and ratios.
func TestJSONFloatMatchesStrconv(t *testing.T) {
	for _, f := range kernelEdgeFloats() {
		sameAsStrconv(t, f)
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		sameAsStrconv(t, f)
	}
	rng := rand.New(rand.NewSource(25))
	for _, f := range noisyCounts(rng, 100_000) {
		sameAsStrconv(t, f)
	}
	for i := 0; i < 100_000; i++ {
		sameAsStrconv(t, math.Float64frombits(rng.Uint64()))
		sameAsStrconv(t, float64(rng.Int63n(1<<uint(rng.Intn(62)+1))))
		sameAsStrconv(t, float64(rng.Intn(1e5)+1)/float64(rng.Intn(1e5)+1))
		// A short decimal, read back: the float nearest a few digits.
		f, err := strconv.ParseFloat(fmt.Sprintf("%de%d", rng.Int63n(1e6), rng.Intn(640)-330), 64)
		if err == nil {
			sameAsStrconv(t, f)
		}
	}
}

// TestSchubfachLogApproximations checks the kernel's fixed-point
// logarithms against exact integer arithmetic over every exponent it
// evaluates them at, and every power-of-ten table entry against its
// definition.
func TestSchubfachLogApproximations(t *testing.T) {
	// floorLog10 returns ⌊log10(num/den)⌋ for positive num, den.
	floorLog10 := func(num, den *big.Int) int {
		r := new(big.Rat).SetFrac(num, den)
		ten := big.NewRat(10, 1)
		k, p := 0, big.NewRat(1, 1)
		if r.Cmp(p) >= 0 {
			for ; new(big.Rat).Mul(p, ten).Cmp(r) <= 0; k++ {
				p.Mul(p, ten)
			}
			return k
		}
		for ; p.Cmp(r) > 0; k-- {
			p.Quo(p, ten)
		}
		return k
	}
	pow2 := func(q int) (num, den *big.Int) {
		num, den = big.NewInt(1), big.NewInt(1)
		if q >= 0 {
			num.Lsh(num, uint(q))
		} else {
			den.Lsh(den, uint(-q))
		}
		return num, den
	}
	for q := -1074; q <= 971; q++ {
		num, den := pow2(q)
		if got, want := floorLog10Pow2(q), floorLog10(num, den); got != want {
			t.Fatalf("floorLog10Pow2(%d) = %d, want %d", q, got, want)
		}
		num.Mul(num, big.NewInt(3))
		den.Mul(den, big.NewInt(4))
		if got, want := floorLog10ThreeQuartersPow2(q), floorLog10(num, den); got != want {
			t.Fatalf("floorLog10ThreeQuartersPow2(%d) = %d, want %d", q, got, want)
		}
	}
	for K := pow10Min; K <= pow10Max; K++ {
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(abs(K))), nil)
		want := p.BitLen() - 1 // ⌊log2(10^K)⌋ for K ≥ 0
		if K < 0 {
			want = -p.BitLen() // 10^|K| is no power of two
		}
		if got := floorLog2Pow10(K); got != want {
			t.Fatalf("floorLog2Pow10(%d) = %d, want %d", K, got, want)
		}
	}
	// Every table entry is ⌊β⌋+1 with 10^K = β·2^r, β in [2^127, 2^128):
	// (g-1)·2^r ≤ 10^K < g·2^r, checked in exact rationals.
	for K := pow10Min; K <= pow10Max; K++ {
		e := pow10Table[K-pow10Min]
		g := new(big.Int).Lsh(new(big.Int).SetUint64(e.hi), 64)
		g.Or(g, new(big.Int).SetUint64(e.lo))
		if g.BitLen() != 128 {
			t.Fatalf("g(%d) has %d bits", K, g.BitLen())
		}
		pow10 := new(big.Rat).SetInt(new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(abs(K))), nil))
		if K < 0 {
			pow10.Inv(pow10)
		}
		num, den := pow2(floorLog2Pow10(K) - 127) // 2^r
		scale := new(big.Rat).SetFrac(num, den)
		hi := new(big.Rat).Mul(new(big.Rat).SetInt(g), scale)
		lo := new(big.Rat).Mul(new(big.Rat).SetInt(new(big.Int).Sub(g, big.NewInt(1))), scale)
		if lo.Cmp(pow10) > 0 || hi.Cmp(pow10) <= 0 {
			t.Fatalf("g(%d) = %#x does not bound 10^%d from above within one unit", K, g, K)
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// FuzzJSONFloat: for any 64-bit pattern the kernel writes what strconv
// writes, or fails with its error.
func FuzzJSONFloat(f *testing.F) {
	for _, v := range edgeFloats {
		f.Add(math.Float64bits(v))
	}
	f.Add(math.Float64bits(math.NaN()))
	f.Fuzz(func(t *testing.T, u uint64) {
		sameAsStrconv(t, math.Float64frombits(u))
	})
}

// BenchmarkJSONFloat writes noisy-count floats through the Schubfach
// kernel and through strconv, the oracle it replaced: ns/op is per float.
func BenchmarkJSONFloat(b *testing.B) {
	vals := noisyCounts(rand.New(rand.NewSource(3)), 4096)
	for _, c := range []struct {
		name string
		fn   func([]byte, float64) ([]byte, error)
	}{{"schubfach", appendJSONFloat}, {"strconv", jsonFloatStrconv}} {
		b.Run(c.name, func(b *testing.B) {
			buf := make([]byte, 0, 64)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf, _ = c.fn(buf[:0], vals[i%len(vals)])
			}
		})
	}
}
