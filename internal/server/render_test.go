package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"reflect"
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
// into tables, releaseBody.marshal equals json.Marshal — bytes or error.
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
