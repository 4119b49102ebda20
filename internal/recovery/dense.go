package recovery

import (
	"errors"
	"fmt"
	"math"
)

// errNotSPD is returned by choleskyFactor when the matrix is not symmetric
// positive definite.
var errNotSPD = errors.New("recovery: matrix is not symmetric positive definite")

// dense is a row-major matrix, sized for the reference computations here:
// the explicit S and Q of a d ≤ 6 domain, a few hundred rows by 64 columns.
type dense struct {
	rows, cols int
	data       []float64 // len rows*cols, data[i*cols+j]
}

func newDense(rows, cols int) *dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("recovery: negative dimension %dx%d", rows, cols))
	}
	return &dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// fromRows copies row slices (all of one length) into a matrix.
func fromRows(rows [][]float64) *dense {
	if len(rows) == 0 {
		return newDense(0, 0)
	}
	m := newDense(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			panic(fmt.Sprintf("recovery: ragged row %d: %d != %d", i, len(r), m.cols))
		}
		copy(m.row(i), r)
	}
	return m
}

// toRows copies the matrix out as row slices.
func (m *dense) toRows() [][]float64 {
	out := make([][]float64, m.rows)
	for i := range out {
		out[i] = append([]float64(nil), m.row(i)...)
	}
	return out
}

func (m *dense) at(i, j int) float64 { return m.data[i*m.cols+j] }

// row returns row i, aliasing the matrix storage.
func (m *dense) row(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols] }

// t returns the transpose.
func (m *dense) t() *dense {
	t := newDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j, v := range m.row(i) {
			t.data[j*t.cols+i] = v
		}
	}
	return t
}

// mul returns m·o.
func (m *dense) mul(o *dense) *dense {
	if m.cols != o.rows {
		panic(fmt.Sprintf("recovery: dimension mismatch %dx%d · %dx%d", m.rows, m.cols, o.rows, o.cols))
	}
	out := newDense(m.rows, o.cols)
	for i := 0; i < m.rows; i++ {
		oi := out.row(i)
		for k, mv := range m.row(i) {
			if mv == 0 {
				continue
			}
			for j, ov := range o.row(k) {
				oi[j] += mv * ov
			}
		}
	}
	return out
}

// sub returns m − o.
func (m *dense) sub(o *dense) *dense {
	if m.rows != o.rows || m.cols != o.cols {
		panic(fmt.Sprintf("recovery: shape mismatch %dx%d vs %dx%d", m.rows, m.cols, o.rows, o.cols))
	}
	out := newDense(m.rows, m.cols)
	for i, v := range m.data {
		out.data[i] = v - o.data[i]
	}
	return out
}

// scaleRows multiplies row i by w[i] in place and returns m.
func (m *dense) scaleRows(w []float64) *dense {
	if len(w) != m.rows {
		panic("recovery: scaleRows weight length mismatch")
	}
	for i, wi := range w {
		row := m.row(i)
		for j := range row {
			row[j] *= wi
		}
	}
	return m
}

// maxAbs returns max |m_ij|, 0 for an empty matrix.
func (m *dense) maxAbs() float64 {
	mx := 0.0
	for _, v := range m.data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// equal reports element-wise equality within tol.
func (m *dense) equal(o *dense, tol float64) bool {
	if m.rows != o.rows || m.cols != o.cols {
		return false
	}
	for i, v := range m.data {
		if math.Abs(v-o.data[i]) > tol {
			return false
		}
	}
	return true
}

// cholesky holds the lower-triangular factor L with A = L·Lᵀ.
type cholesky struct {
	l *dense
}

// choleskyFactor factors a symmetric positive definite matrix.
func choleskyFactor(a *dense) (*cholesky, error) {
	if a.rows != a.cols {
		panic("recovery: choleskyFactor requires a square matrix")
	}
	n := a.rows
	l := newDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a.at(i, j)
			li, lj := l.row(i), l.row(j)
			for k := 0; k < j; k++ {
				s -= li[k] * lj[k]
			}
			if i == j {
				if s <= 0 || math.IsNaN(s) {
					return nil, errNotSPD
				}
				li[j] = math.Sqrt(s)
			} else {
				li[j] = s / lj[j]
			}
		}
	}
	return &cholesky{l: l}, nil
}

// solve solves A·x = b by forward then back substitution.
func (c *cholesky) solve(b []float64) []float64 {
	n := c.l.rows
	if len(b) != n {
		panic("recovery: cholesky.solve dimension mismatch")
	}
	// L·y = b
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		row := c.l.row(i)
		s := b[i]
		for j := 0; j < i; j++ {
			s -= row[j] * y[j]
		}
		y[i] = s / row[i]
	}
	// Lᵀ·x = y
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= c.l.at(j, i) * x[j]
		}
		x[i] = s / c.l.at(i, i)
	}
	return x
}

// solveMatrix solves A·X = B column by column.
func (c *cholesky) solveMatrix(b *dense) *dense {
	n := c.l.rows
	out := newDense(n, b.cols)
	col := make([]float64, n)
	for j := 0; j < b.cols; j++ {
		for i := 0; i < n; i++ {
			col[i] = b.at(i, j)
		}
		for i, v := range c.solve(col) {
			out.data[i*out.cols+j] = v
		}
	}
	return out
}
