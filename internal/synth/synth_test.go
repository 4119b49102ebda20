package synth

import (
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"sort"
	"testing"

	"repro/internal/bits"
	"repro/internal/consistency"
	"repro/internal/dataset"
	"repro/internal/marginal"
	"repro/internal/noise"
	"repro/internal/transform"
)

func TestMaterializeVectorRoundTrip(t *testing.T) {
	// Full coefficient set reproduces x exactly.
	rng := rand.New(rand.NewSource(1))
	d := 5
	n := 1 << d
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(rng.Intn(7))
	}
	theta := transform.WHTCopy(x)
	support := make([]bits.Mask, n)
	for b := range support {
		support[b] = bits.Mask(b)
	}
	got, err := MaterializeVector(d, support, theta)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(got[i]-x[i]) > 1e-9 {
			t.Fatalf("cell %d: %v vs %v", i, got[i], x[i])
		}
	}
}

func TestMaterializeVectorPartialSupportPreservesMarginals(t *testing.T) {
	// With only the workload's coefficients, the materialised vector still
	// reproduces the workload's marginals exactly (Theorem 4.1: a marginal
	// depends only on its dominated coefficients).
	rng := rand.New(rand.NewSource(2))
	d := 6
	n := 1 << d
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(rng.Intn(5))
	}
	w := marginal.AllKWay(d, 2)
	theta := transform.WHTCopy(x)
	support := w.FourierSupport()
	coeff := make([]float64, len(support))
	for c, b := range support {
		coeff[c] = theta[b]
	}
	xhat, err := MaterializeVector(d, support, coeff)
	if err != nil {
		t.Fatal(err)
	}
	truth := w.Eval(x)
	got := w.Eval(xhat)
	for i := range truth {
		if math.Abs(got[i]-truth[i]) > 1e-8 {
			t.Fatalf("marginal cell %d: %v vs %v", i, got[i], truth[i])
		}
	}
}

func TestMaterializeValidation(t *testing.T) {
	if _, err := MaterializeVector(40, nil, nil); err == nil {
		t.Fatal("dimension 40 accepted")
	}
	if _, err := MaterializeVector(2, []bits.Mask{0b111}, []float64{1}); err == nil {
		t.Fatal("out-of-dimension coefficient accepted")
	}
	if _, err := MaterializeVector(2, []bits.Mask{0, 0b01}, []float64{1}); err == nil {
		t.Fatal("coefficients not aligned with the support accepted")
	}
}

func TestRoundToCountsPreservesTotalAndNonNegativity(t *testing.T) {
	x := []float64{3.6, -2.0, 0.4, 1.9, 0.1}
	counts := RoundToCounts(x)
	var total int64
	for _, c := range counts {
		if c < 0 {
			t.Fatalf("negative count %d", c)
		}
		total += c
	}
	if total != 6 { // clamped mass = 3.6+0.4+1.9+0.1 = 6.0
		t.Fatalf("total %d, want 6", total)
	}
	if counts[1] != 0 {
		t.Fatal("negative cell must round to 0")
	}
}

func TestRoundToCountsLargestRemainder(t *testing.T) {
	x := []float64{1.7, 1.6, 0.7} // total 4.0
	counts := RoundToCounts(x)
	if counts[0]+counts[1]+counts[2] != 4 {
		t.Fatalf("total %v, want 4", counts)
	}
	// Largest remainders (0.7 twice, then 0.6) get the spare units:
	// floors are 1,1,0 (sum 2), two units to distribute → cells 0 and 2.
	if counts[0] != 2 || counts[1] != 1 || counts[2] != 1 {
		t.Fatalf("apportionment %v, want [2 1 1]", counts)
	}
}

func TestRoundToCountsAllNegative(t *testing.T) {
	counts := RoundToCounts([]float64{-1, -2})
	if counts[0] != 0 || counts[1] != 0 {
		t.Fatalf("all-negative input should yield zeros: %v", counts)
	}
}

// roundToCountsReference is the sort-based apportionment RoundToCounts
// replaced, kept verbatim as its oracle. sort.Slice is not stable, so
// fractions tied across the cut are ordered arbitrarily here; everywhere
// else the two pick the same cells.
func roundToCountsReference(x []float64) []int64 {
	clamped := make([]float64, len(x))
	total := 0.0
	for i, v := range x {
		if v > 0 {
			clamped[i] = v
			total += v
		}
	}
	target := int64(math.Round(total))
	if target < 0 {
		target = 0
	}
	out := make([]int64, len(x))
	var assigned int64
	type frac struct {
		idx int
		f   float64
	}
	fracs := make([]frac, 0, len(x))
	for i, v := range clamped {
		fl := math.Floor(v)
		out[i] = int64(fl)
		assigned += int64(fl)
		if v > fl {
			fracs = append(fracs, frac{i, v - fl})
		}
	}
	sort.Slice(fracs, func(a, b int) bool { return fracs[a].f > fracs[b].f })
	for i := 0; assigned < target && i < len(fracs); i++ {
		out[fracs[i].idx]++
		assigned++
	}
	// If clamping removed too much mass relative to the rounded target,
	// top up the largest cells (keeps totals exact).
	for i := 0; assigned < target && len(out) > 0; i = (i + 1) % len(out) {
		out[i]++
		assigned++
	}
	return out
}

// roundToCountsStable is the reference with a stable sort: tied fractions
// keep ascending cell order, the rule RoundToCounts promises. It is the
// exact oracle, ties straddling the cut included.
func roundToCountsStable(x []float64) []int64 {
	out := make([]int64, len(x))
	total := 0.0
	var assigned int64
	var fracs []int
	for i, v := range x {
		if v > 0 {
			total += v
			out[i] = int64(math.Floor(v))
			assigned += out[i]
			if v > math.Floor(v) {
				fracs = append(fracs, i)
			}
		}
	}
	target := max(int64(math.Round(total)), 0)
	frac := func(i int) float64 { return x[i] - math.Floor(x[i]) }
	sort.SliceStable(fracs, func(a, b int) bool { return frac(fracs[a]) > frac(fracs[b]) })
	for i := 0; assigned < target && i < len(fracs); i++ {
		out[fracs[i]]++
		assigned++
	}
	for i := 0; assigned < target && len(out) > 0; i = (i + 1) % len(out) {
		out[i]++
		assigned++
	}
	return out
}

// tieStraddlesCut reports whether the k-th and (k+1)-th largest fractions
// are equal, the one case where the unstable reference may pick other
// cells than RoundToCounts.
func tieStraddlesCut(x []float64) bool {
	total := 0.0
	var assigned int64
	var fracs []float64
	for _, v := range x {
		if v > 0 {
			total += v
			fl := math.Floor(v)
			assigned += int64(fl)
			if v > fl {
				fracs = append(fracs, v-fl)
			}
		}
	}
	k := max(int64(math.Round(total)), 0) - assigned
	if k <= 0 || k >= int64(len(fracs)) {
		return false
	}
	slices.Sort(fracs)
	slices.Reverse(fracs)
	return fracs[k-1] == fracs[k]
}

// checkRoundToCounts holds RoundToCounts to both oracles and to its
// contract: non-negative counts summing to the rounded clamped mass.
func checkRoundToCounts(t testing.TB, x []float64) {
	t.Helper()
	got := RoundToCounts(x)
	mass := 0.0
	for _, v := range x {
		if v > 0 {
			mass += v
		}
	}
	var total int64
	for i, c := range got {
		if c < 0 {
			t.Fatalf("cell %d: negative count %d", i, c)
		}
		total += c
	}
	if want := max(int64(math.Round(mass)), 0); len(x) > 0 && total != want {
		t.Fatalf("total %d, want round(clamped mass %v) = %d", total, mass, want)
	}
	if want := roundToCountsStable(x); !slices.Equal(got, want) {
		t.Fatalf("RoundToCounts(%v)\n = %v\nwant %v (ascending-index ties)", x, got, want)
	}
	if !tieStraddlesCut(x) {
		if want := roundToCountsReference(x); !slices.Equal(got, want) {
			t.Fatalf("RoundToCounts(%v)\n = %v\nreference %v", x, got, want)
		}
	}
}

// TestRoundToCountsMatchesReference runs random vectors mixing negatives,
// zeros, exact integers, repeated fractions and tiny and large values, so
// k = 0, k ≥ #fractions and ties all come up.
func TestRoundToCountsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pool := []float64{0.5, 0.25, 0.75, 1.0 / 3, 0.1}
	var straddles int
	for trial := 0; trial < 3000; trial++ {
		x := make([]float64, rng.Intn(200))
		for i := range x {
			switch rng.Intn(7) {
			case 0:
				x[i] = -rng.Float64() * 10
			case 1:
				x[i] = 0
			case 2:
				x[i] = float64(rng.Intn(20))
			case 3:
				x[i] = float64(rng.Intn(5)) + pool[rng.Intn(len(pool))]
			case 4:
				x[i] = rng.Float64() * 1e-3
			case 5:
				x[i] = rng.Float64() * 1e6
			default:
				x[i] = rng.NormFloat64() * 3
			}
		}
		if tieStraddlesCut(x) {
			straddles++
		}
		checkRoundToCounts(t, x)
	}
	if straddles == 0 {
		t.Fatal("no trial had a tie across the cut; the tie rule went unexercised")
	}
}

// TestRoundToCountsEdges: no cells, no spare units (k = 0), every fraction
// rounded up (k = #fractions), and all-integer input.
func TestRoundToCountsEdges(t *testing.T) {
	for _, tc := range []struct {
		x    []float64
		want []int64
	}{
		{nil, []int64{}},
		{[]float64{0.2, 0.2, -3}, []int64{0, 0, 0}},
		{[]float64{0.9, 1.9}, []int64{1, 2}},
		{[]float64{0.7}, []int64{1}},
		{[]float64{3, 0, -1, 2}, []int64{3, 0, 0, 2}},
	} {
		checkRoundToCounts(t, tc.x)
		if got := RoundToCounts(tc.x); !slices.Equal(got, tc.want) {
			t.Errorf("RoundToCounts(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

// TestRoundToCountsTieAcrossCut pins the tie rule: four cells share the
// fraction 0.5 and two spare units remain, so the two lowest-indexed of
// them take the units, whatever order a sort would leave them in.
func TestRoundToCountsTieAcrossCut(t *testing.T) {
	x := []float64{-1, 2.5, 0.5, 7, 1.5, 0.5, 0.75}
	// Clamped mass 12.75 → 13; floors 2+0+7+1+0+0 = 10; the 0.75 takes
	// one unit, the 0.5s at cells 1 and 2 the other two.
	if !tieStraddlesCut(x) {
		t.Fatal("fixture no longer straddles the cut")
	}
	want := []int64{0, 3, 1, 7, 1, 0, 1}
	if got := RoundToCounts(x); !slices.Equal(got, want) {
		t.Fatalf("RoundToCounts = %v, want %v", got, want)
	}
	checkRoundToCounts(t, x)
}

// TestRoundToCountsTopUp reaches the cyclic top-up: above 2^53 the float
// sum rounds up past the true mass (2^53+2 + 1 + 3 sums to 2^53+8), so
// the target exceeds the floors with no fraction left to round up.
func TestRoundToCountsTopUp(t *testing.T) {
	x := []float64{1<<53 + 2, 1, 3}
	want := []int64{1<<53 + 3, 2, 3}
	if got := RoundToCounts(x); !slices.Equal(got, want) {
		t.Fatalf("RoundToCounts = %v, want %v", got, want)
	}
	checkRoundToCounts(t, x)
}

// TestKthLargestAdversarial drives the radix select with keys built to
// stall a selection: all equal, two values, long shared prefixes differing
// only in the last bits, one outlier over a plateau, and the fractions a
// d = 24 vector of nextafter steps would carry. Every k is checked on the
// small sets against a sort.
func TestKthLargestAdversarial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	base := math.Float64bits(0.5)
	sets := map[string][]uint64{}
	add := func(name string, n int, key func(i int) uint64) {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = key(i)
		}
		sets[name] = keys
	}
	add("equal", 300, func(int) uint64 { return base })
	add("two-values", 300, func(i int) uint64 { return base + uint64(i%2) })
	add("low-bits", 300, func(int) uint64 { return base + uint64(rng.Intn(4)) })
	add("outlier", 300, func(i int) uint64 {
		if i == 150 {
			return math.Float64bits(0.9)
		}
		return base
	})
	add("ascending", 300, func(i int) uint64 { return base + uint64(i) })
	add("descending", 300, func(i int) uint64 { return base - uint64(i) })
	add("random", 300, func(int) uint64 { return math.Float64bits(rng.Float64()) + 1 })
	add("subnormal", 300, func(int) uint64 { return uint64(rng.Intn(1<<20)) + 1 })
	for name, keys := range sets {
		sorted := slices.Clone(keys)
		slices.Sort(sorted)
		slices.Reverse(sorted)
		for k := 1; k < len(keys); k++ {
			got, ties := kthLargest(slices.Clone(keys), int64(k))
			want := sorted[k-1]
			above := int64(0)
			for _, b := range sorted {
				if b > want {
					above++
				}
			}
			if got != want || ties != int64(k)-above {
				t.Fatalf("%s k=%d: got (%x, %d), want (%x, %d)", name, k, got, ties, want, int64(k)-above)
			}
		}
	}
	// d = 24: 2^24 fractions within 2^24 ulps of each other share every
	// bit above the last 24, the worst case for a selection that pivots
	// on values. The select overwrites its keys, so regenerate them and
	// check the rank by counting rather than against a sorted copy.
	if testing.Short() || raceEnabled {
		t.Skip("the d = 24 case holds 128 MiB of keys")
	}
	keys := make([]uint64, 1<<24)
	fill := func() {
		rng := rand.New(rand.NewSource(24))
		for i := range keys {
			keys[i] = base + uint64(rng.Intn(1<<24))
		}
	}
	fill()
	k := int64(len(keys) / 3)
	got, ties := kthLargest(keys, k)
	fill()
	var above, equal int64
	for _, b := range keys {
		if b > got {
			above++
		} else if b == got {
			equal++
		}
	}
	if above >= k || above+equal < k || ties != k-above {
		t.Fatalf("d=24: key %x has %d above and %d equal for k=%d, %d ties taken", got, above, equal, k, ties)
	}
}

// FuzzRoundToCounts: no panic, non-negative counts summing to the rounded
// clamped mass, equal to the ascending-index oracle always and to the
// sort-based reference whenever no tie straddles the cut. Mode 0 decodes
// 3-byte values as int16/2^s (exact integers and ties abound); mode 1
// decodes raw float64 bits, zeroing +Inf and values above 2^52, outside
// the documented domain.
func FuzzRoundToCounts(f *testing.F) {
	f.Add(uint8(0), []byte{1, 0, 1, 255, 255, 0, 3, 0, 2})
	f.Add(uint8(1), []byte{0, 0, 0, 0, 0, 0, 0xf8, 0x3f, 0, 0, 0, 0, 0, 0, 0xe0, 0x3f})
	f.Fuzz(func(t *testing.T, mode uint8, raw []byte) {
		var x []float64
		if mode%2 == 0 {
			for ; len(raw) >= 3 && len(x) < 4096; raw = raw[3:] {
				num := int16(uint16(raw[0]) | uint16(raw[1])<<8)
				x = append(x, math.Ldexp(float64(num), -int(raw[2]%16)))
			}
		} else {
			for ; len(raw) >= 8 && len(x) < 4096; raw = raw[8:] {
				var b uint64
				for i := 7; i >= 0; i-- {
					b = b<<8 | uint64(raw[i])
				}
				v := math.Float64frombits(b)
				if v > 1<<52 {
					v = 0
				}
				x = append(x, v)
			}
		}
		checkRoundToCounts(t, x)
	})
}

// TestSampleTuplesAllocsFlat: the sampler's allocations do not grow with
// the number of rows it emits. GC is paused: a collection the large
// sample triggers would count the runtime's own allocations.
func TestSampleTuplesAllocsFlat(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s := dataset.NLTCSSchema()
	allocs := func(rows int64) float64 {
		counts := make([]int64, s.DomainSize())
		for i := int64(0); i < rows; i++ {
			counts[(i*7919)%int64(len(counts))]++
		}
		return testing.AllocsPerRun(5, func() {
			if tab, _ := SampleTuples(s, counts, 3); int64(tab.Count()) != rows {
				t.Fatalf("%d rows, want %d", tab.Count(), rows)
			}
		})
	}
	if small, large := allocs(1000), allocs(30000); small != large {
		t.Fatalf("SampleTuples allocates %v times for 1k rows, %v for 30k", small, large)
	}
}

// TestSampleTuplesRowsDoNotAlias: rows share one backing array, but an
// append to row i must not write into row i+1.
func TestSampleTuplesRowsDoNotAlias(t *testing.T) {
	s := dataset.MustSchema([]dataset.Attribute{{Name: "a", Cardinality: 3}, {Name: "b", Cardinality: 2}})
	tab, _ := SampleTuples(s, []int64{2, 1, 1, 0, 3, 2, 0, 0}, 4)
	for i := 0; i+1 < len(tab.Rows); i++ {
		next := slices.Clone(tab.Rows[i+1])
		tab.Rows[i] = append(tab.Rows[i], 99)
		if !slices.Equal(tab.Rows[i+1], next) {
			t.Fatalf("append to row %d changed row %d: %v → %v", i, i+1, next, tab.Rows[i+1])
		}
	}
}

func TestSampleTuplesMatchesCounts(t *testing.T) {
	s := dataset.MustSchema([]dataset.Attribute{
		{Name: "a", Cardinality: 2},
		{Name: "b", Cardinality: 2},
	})
	counts := []int64{3, 0, 2, 1}
	tab, skipped := SampleTuples(s, counts, 9)
	if skipped != 0 {
		t.Fatalf("skipped %d", skipped)
	}
	if tab.Count() != 6 {
		t.Fatalf("%d rows, want 6", tab.Count())
	}
	x, err := tab.Vector()
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if x[i] != float64(c) {
			t.Fatalf("cell %d: %v rows, want %d", i, x[i], c)
		}
	}
}

func TestSampleTuplesSkipsPaddingCells(t *testing.T) {
	s := dataset.MustSchema([]dataset.Attribute{{Name: "a", Cardinality: 3}}) // 2 bits, code 3 invalid
	counts := []int64{1, 1, 1, 5}
	tab, skipped := SampleTuples(s, counts, 1)
	if skipped != 5 {
		t.Fatalf("skipped %d, want 5", skipped)
	}
	if tab.Count() != 3 {
		t.Fatalf("%d rows, want 3", tab.Count())
	}
}

// End-to-end: noisy consistent release → synthetic microdata whose
// marginals track the release.
func TestSyntheticDataEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := 6
	n := 1 << d
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(rng.Intn(30))
	}
	w := marginal.AllKWay(d, 1)
	noisy := w.Eval(x)
	src := noise.NewSource(4)
	for i := range noisy {
		noisy[i] += src.Laplace(2)
	}
	res, err := consistency.L2(w, noisy)
	if err != nil {
		t.Fatal(err)
	}
	xhat, err := MaterializeVector(d, w.FourierSupport(), res.Coefficients)
	if err != nil {
		t.Fatal(err)
	}
	counts := RoundToCounts(xhat)
	// Each marginal of the synthetic data stays close to the consistent
	// release (rounding adds at most ~1 per cell beyond clamping effects,
	// clamping is bounded by the noise scale).
	offsets := w.Offsets()
	for mi, m := range w.Marginals {
		target := res.Answers[offsets[mi] : offsets[mi]+m.Cells()]
		l1 := MarginalL1(d, m.Alpha, counts, target)
		if l1 > 150 { // total mass ≈ 64·15 ≈ 930; allow modest drift
			t.Fatalf("marginal %v drifted by %v from the release", m.Alpha, l1)
		}
	}
	// And the synthetic table is real microdata.
	schema := dataset.MustSchema([]dataset.Attribute{
		{Name: "b0", Cardinality: 2}, {Name: "b1", Cardinality: 2},
		{Name: "b2", Cardinality: 2}, {Name: "b3", Cardinality: 2},
		{Name: "b4", Cardinality: 2}, {Name: "b5", Cardinality: 2},
	})
	tab, skipped := SampleTuples(schema, counts, 5)
	if skipped != 0 {
		t.Fatalf("binary schema cannot have padding cells, skipped %d", skipped)
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	if int64(tab.Count()) != total {
		t.Fatalf("synthetic rows %d != counts %d", tab.Count(), total)
	}
}

func BenchmarkMaterializeD16(b *testing.B) {
	w := marginal.AllKWay(16, 2)
	support := w.FourierSupport()
	coeff := make([]float64, len(support))
	rng := rand.New(rand.NewSource(6))
	for c := range coeff {
		coeff[c] = rng.NormFloat64() * 100
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MaterializeVector(16, support, coeff); err != nil {
			b.Fatal(err)
		}
	}
}
