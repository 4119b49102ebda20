package recovery

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const denseTol = 1e-9

func randomDense(rng *rand.Rand, rows, cols int) *dense {
	m := newDense(rows, cols)
	for i := range m.data {
		m.data[i] = rng.NormFloat64()
	}
	return m
}

func identity(n int) *dense {
	m := newDense(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// denseMulVec returns m·v through mul, so the residual checks below lean
// only on code under test.
func denseMulVec(m *dense, v []float64) []float64 {
	col := newDense(len(v), 1)
	copy(col.data, v)
	return m.mul(col).data
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomDense(rng, 5, 5)
	if !a.mul(identity(5)).equal(a, denseTol) || !identity(5).mul(a).equal(a, denseTol) {
		t.Fatal("A·I != A")
	}
}

func TestMulKnown(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	b := fromRows([][]float64{{5, 6}, {7, 8}})
	want := fromRows([][]float64{{19, 22}, {43, 50}})
	if got := a.mul(b); !got.equal(want, denseTol) {
		t.Fatalf("mul = %v, want %v", got.toRows(), want.toRows())
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomDense(rng, 3, 7)
	if !a.t().t().equal(a, 0) {
		t.Fatal("transpose is not an involution")
	}
}

func TestSubScaleRowsMaxAbs(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	b := fromRows([][]float64{{4, 3}, {2, 1}})
	if !a.sub(b).equal(fromRows([][]float64{{-3, -1}, {1, 3}}), denseTol) {
		t.Fatal("sub wrong")
	}
	if !a.sub(a).equal(newDense(2, 2), denseTol) {
		t.Fatal("a − a must be zero")
	}
	if !a.scaleRows([]float64{2, -1}).equal(fromRows([][]float64{{2, 4}, {-3, -4}}), denseTol) {
		t.Fatal("scaleRows wrong")
	}
	if got := a.maxAbs(); got != 4 {
		t.Fatalf("maxAbs = %v, want 4", got)
	}
}

func TestCholeskyKnown(t *testing.T) {
	a := fromRows([][]float64{{4, 2}, {2, 3}})
	c, err := choleskyFactor(a)
	if err != nil {
		t.Fatal(err)
	}
	got := denseMulVec(a, c.solve([]float64{2, 1}))
	if math.Abs(got[0]-2) > denseTol || math.Abs(got[1]-1) > denseTol {
		t.Fatalf("Cholesky solve residual: %v", got)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := choleskyFactor(a); err != errNotSPD {
		t.Fatalf("expected errNotSPD, got %v", err)
	}
}

// TestCholeskySolveMatrixInverts: on a random SPD matrix, solveMatrix(I)
// is the inverse, so A·A⁻¹ = I.
func TestCholeskySolveMatrixInverts(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := randomDense(rng, 8, 5)
	a := g.t().mul(g) // SPD with prob. 1
	for i := 0; i < 5; i++ {
		a.data[i*5+i]++
	}
	c, err := choleskyFactor(a)
	if err != nil {
		t.Fatal(err)
	}
	if !a.mul(c.solveMatrix(identity(5))).equal(identity(5), 1e-8) {
		t.Fatal("A·A⁻¹ != I")
	}
}

// Property: (A·B)ᵀ = Bᵀ·Aᵀ for random small matrices.
func TestQuickTransposeProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	fn := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomDense(r, 3+rng.Intn(3), 4)
		b := randomDense(r, 4, 2+rng.Intn(4))
		return a.mul(b).t().equal(b.t().mul(a.t()), 1e-9)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
