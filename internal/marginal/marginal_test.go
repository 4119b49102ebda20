package marginal

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bits"
	"repro/internal/dataset"
	"repro/internal/transform"
)

const tol = 1e-9

// paperX is the Figure 1(a) vector with the paper's linearisation: the
// example orders cells 000..111 with A the most significant bit. Our
// encoding is attribute-0-at-LSB, so with attributes (C, B, A) this package
// reproduces exactly the paper's order.
var paperX = []float64{1, 2, 0, 1, 0, 0, 1, 0}

func TestEvalPaperExample(t *testing.T) {
	// Marginal over A = bit 2 (MSB in the paper's order): counts 4 and 1.
	mA := Marginal{Alpha: 0b100}
	got := mA.Eval(paperX)
	if got[0] != 4 || got[1] != 1 {
		t.Fatalf("marginal A = %v, want [4 1]", got)
	}
	// Marginal over A,B = bits 2,1: cells (A=0,B=0)=3, (0,1)=1, (1,0)=0, (1,1)=1.
	mAB := Marginal{Alpha: 0b110}
	got = mAB.Eval(paperX)
	want := []float64{3, 1, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("marginal AB = %v, want %v", got, want)
		}
	}
}

func TestEvalTotalMarginal(t *testing.T) {
	m := Marginal{Alpha: 0}
	got := m.Eval(paperX)
	if len(got) != 1 || got[0] != 5 {
		t.Fatalf("C∅ = %v, want [5]", got)
	}
}

func TestEvalFullMarginalIsIdentity(t *testing.T) {
	m := Marginal{Alpha: bits.Full(3)}
	got := m.Eval(paperX)
	for i := range paperX {
		if got[i] != paperX[i] {
			t.Fatalf("full marginal differs at %d", i)
		}
	}
}

func TestRowsMatchEval(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := 4
	x := make([]float64, 1<<d)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for _, alpha := range []bits.Mask{0b0000, 0b0101, 0b1111, 0b0010} {
		m := Marginal{Alpha: alpha}
		rows := m.Rows(d)
		direct := m.Eval(x)
		for i, row := range rows {
			dot := 0.0
			for j, v := range row {
				dot += v * x[j]
			}
			if math.Abs(dot-direct[i]) > tol {
				t.Fatalf("α=%v row %d: matrix %v vs direct %v", alpha, i, dot, direct[i])
			}
		}
	}
}

// TestEvalFromFourierMatchesDirect: every marginal evaluated by Theorem 4.1
// from the coefficients its Fourier column index selects equals the direct
// marginal.
func TestEvalFromFourierMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := 6
	x := make([]float64, 1<<d)
	for i := range x {
		x[i] = float64(rng.Intn(5))
	}
	theta := transform.WHTCopy(x)
	w := MustWorkload(d, []bits.Mask{0b000011, 0b101010, 0b111111})
	support, cols, offsets := w.FourierSupport(), w.FourierColumns(), w.Offsets()
	for i, m := range w.Marginals {
		got := make([]float64, m.Cells())
		for j := range got {
			got[j] = theta[support[cols[offsets[i]+j]]]
		}
		transform.MarginalFromCoefficients(d, got)
		want := m.Eval(x)
		for c := range want {
			if math.Abs(got[c]-want[c]) > 1e-8 {
				t.Fatalf("α=%v cell %d: %v vs %v", m.Alpha, c, got[c], want[c])
			}
		}
	}
}

// TestFourierColumns: the column index has one entry per released cell,
// and the entry of marginal i's packed cell j names the support column of
// the β ⪯ α_i packed at j — duplicates and the empty marginal included.
func TestFourierColumns(t *testing.T) {
	w := MustWorkload(5, []bits.Mask{0b00110, 0, 0b10101, 0b00110, 0b11111})
	support, cols, offsets := w.FourierSupport(), w.FourierColumns(), w.Offsets()
	if len(cols) != w.TotalCells() {
		t.Fatalf("%d columns for %d cells", len(cols), w.TotalCells())
	}
	for i, m := range w.Marginals {
		for j := 0; j < m.Cells(); j++ {
			if got, want := support[cols[offsets[i]+j]], bits.CellMask(m.Alpha, j); got != want {
				t.Fatalf("marginal %d cell %d: column names %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestWorkloadEvalConcatenates(t *testing.T) {
	w := MustWorkload(3, []bits.Mask{0b100, 0b110})
	got := w.Eval(paperX)
	want := []float64{4, 1, 3, 1, 0, 1}
	if len(got) != len(want) {
		t.Fatalf("Eval = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Eval = %v, want %v", got, want)
		}
	}
	if w.TotalCells() != 6 {
		t.Fatalf("TotalCells = %d, want 6", w.TotalCells())
	}
}

func TestEvalSinglePassMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := 8
	x := make([]float64, 1<<d)
	for i := range x {
		x[i] = float64(rng.Intn(3))
	}
	w := AllKWay(d, 2)
	a := w.Eval(x)
	b := w.EvalSinglePass(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("single-pass differs at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestWorkloadValidation(t *testing.T) {
	if _, err := NewWorkload(3, []bits.Mask{0b1000}); err == nil {
		t.Error("mask outside dimension accepted")
	}
	if _, err := NewWorkload(33, nil); err == nil {
		t.Error("dimension 33 accepted")
	}
}

func TestAllKWay(t *testing.T) {
	w := AllKWay(5, 2)
	if len(w.Marginals) != 10 {
		t.Fatalf("Q2 over d=5 has %d marginals, want 10", len(w.Marginals))
	}
	for _, m := range w.Marginals {
		if m.Order() != 2 {
			t.Fatalf("marginal %v has order %d", m.Alpha, m.Order())
		}
	}
	if w.TotalCells() != 40 {
		t.Fatalf("TotalCells = %d, want 40", w.TotalCells())
	}
}

func TestFourierSupportSize(t *testing.T) {
	// For all k-way marginals over d, |F| = Σ_{i≤k} C(d,i).
	d, k := 6, 2
	w := AllKWay(d, k)
	want := int(bits.Binomial(d, 0) + bits.Binomial(d, 1) + bits.Binomial(d, 2))
	if got := len(w.FourierSupport()); got != want {
		t.Fatalf("|F| = %d, want %d", got, want)
	}
}

func TestSchemaKWayWorkloads(t *testing.T) {
	s := dataset.MustSchema([]dataset.Attribute{
		{Name: "a", Cardinality: 3}, // 2 bits
		{Name: "b", Cardinality: 2}, // 1 bit
		{Name: "c", Cardinality: 5}, // 3 bits
		{Name: "d", Cardinality: 2}, // 1 bit
	})
	q1 := SchemaKWay(s, 1)
	if len(q1.Marginals) != 4 {
		t.Fatalf("Q1 over 4 attrs has %d marginals", len(q1.Marginals))
	}
	// The marginal over attribute c must aggregate its full 3-bit group.
	if q1.Marginals[2].Alpha != s.AttrMask(2) {
		t.Fatalf("marginal mask %v != attr mask %v", q1.Marginals[2].Alpha, s.AttrMask(2))
	}
	q2 := SchemaKWay(s, 2)
	if len(q2.Marginals) != 6 {
		t.Fatalf("Q2 has %d marginals, want C(4,2)=6", len(q2.Marginals))
	}
	q1star := SchemaKWayStar(s, 1)
	if len(q1star.Marginals) != 4+3 { // 4 + half of 6
		t.Fatalf("Q1* has %d marginals, want 7", len(q1star.Marginals))
	}
	q1a := SchemaKWayAnchored(s, 1, 0)
	if len(q1a.Marginals) != 4+3 { // 4 + C(3,1) 2-way sets containing attr 0
		t.Fatalf("Q1a has %d marginals, want 7", len(q1a.Marginals))
	}
	for _, m := range q1a.Marginals[4:] {
		if m.Alpha&s.AttrMask(0) != s.AttrMask(0) {
			t.Fatalf("anchored marginal %v misses anchor", m.Alpha)
		}
	}
}

func TestSchemaWorkloadSizesMatchPaper(t *testing.T) {
	adult := dataset.AdultSchema()
	if got := len(SchemaKWay(adult, 1).Marginals); got != 8 {
		t.Errorf("Adult Q1 size %d, want 8", got)
	}
	if got := len(SchemaKWay(adult, 2).Marginals); got != 28 {
		t.Errorf("Adult Q2 size %d, want 28", got)
	}
	if got := len(SchemaKWayStar(adult, 2).Marginals); got != 28+28 {
		t.Errorf("Adult Q2* size %d, want 56", got)
	}
	if got := len(SchemaKWayAnchored(adult, 2, 0).Marginals); got != 28+21 {
		t.Errorf("Adult Q2a size %d, want 49", got)
	}
	nltcs := dataset.NLTCSSchema()
	if got := len(SchemaKWay(nltcs, 2).Marginals); got != 120 {
		t.Errorf("NLTCS Q2 size %d, want 120", got)
	}
	if got := len(SchemaKWayStar(nltcs, 2).Marginals); got != 120+280 {
		t.Errorf("NLTCS Q2* size %d, want 400", got)
	}
	if got := len(SchemaKWayAnchored(nltcs, 2, 3).Marginals); got != 120+105 {
		t.Errorf("NLTCS Q2a size %d, want 225", got)
	}
}

func TestAnchorValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad anchor")
		}
	}()
	SchemaKWayAnchored(dataset.NLTCSSchema(), 1, 99)
}

func TestRelativeError(t *testing.T) {
	truth := []float64{10, 20}
	noisy := []float64{11, 18}
	want := (1.0 + 2.0) / 30.0
	if got := RelativeError(truth, noisy); math.Abs(got-want) > tol {
		t.Fatalf("RelativeError = %v, want %v", got, want)
	}
	if got := RelativeError(truth, truth); got != 0 {
		t.Fatalf("zero-error case = %v", got)
	}
	if !math.IsInf(RelativeError([]float64{0}, []float64{1}), 1) {
		t.Fatal("zero truth should give +Inf")
	}
}

func TestMeanTrueCell(t *testing.T) {
	w := MustWorkload(3, []bits.Mask{0b100})
	// marginal A over paperX = [4, 1] → mean 2.5
	if got := w.MeanTrueCell(paperX); math.Abs(got-2.5) > tol {
		t.Fatalf("MeanTrueCell = %v, want 2.5", got)
	}
}

// Consistency invariant: for any marginal, the cell sums equal the total
// count (mass preservation).
func TestMassPreservation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := 7
	x := make([]float64, 1<<d)
	total := 0.0
	for i := range x {
		x[i] = float64(rng.Intn(4))
		total += x[i]
	}
	for _, k := range []int{0, 1, 2, 3, 7} {
		for _, alpha := range bits.MasksOfWeight(d, k) {
			m := Marginal{Alpha: alpha}
			s := 0.0
			for _, v := range m.Eval(x) {
				s += v
			}
			if math.Abs(s-total) > tol {
				t.Fatalf("marginal %v mass %v, want %v", alpha, s, total)
			}
		}
	}
}

// Coherence invariant: Cβ can be obtained by aggregating Cα when β ⪯ α.
func TestMarginalCoherence(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := 6
	x := make([]float64, 1<<d)
	for i := range x {
		x[i] = rng.Float64()
	}
	alpha := bits.Mask(0b110110)
	beta := bits.Mask(0b100010)
	big := Marginal{Alpha: alpha}.Eval(x)
	small := Marginal{Alpha: beta}.Eval(x)
	agg := make([]float64, len(small))
	alpha.VisitSubsets(func(cell bits.Mask) {
		agg[bits.CellIndex(beta, cell&beta)] += big[bits.CellIndex(alpha, cell)]
	})
	for i := range small {
		if math.Abs(agg[i]-small[i]) > tol {
			t.Fatalf("coherence fails at cell %d: %v vs %v", i, agg[i], small[i])
		}
	}
}

func BenchmarkEvalSinglePassNLTCSQ2(b *testing.B) {
	tab := dataset.SyntheticNLTCS(1, dataset.NLTCSTupleCount)
	x, err := tab.Vector()
	if err != nil {
		b.Fatal(err)
	}
	w := SchemaKWay(tab.Schema, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.EvalSinglePass(x)
	}
}
