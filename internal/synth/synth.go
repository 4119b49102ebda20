// Package synth materialises a consistent private release as synthetic
// microdata — the extension sketched in the paper's concluding remarks:
// "it is sometimes required that the query answers correspond to a data set
// in which all counts are integral and non-negative."
//
// Given the consistent Fourier coefficients f̂ produced by the consistency
// step, the estimated contingency vector is x̂ = Σ_β f̂_β·f^β (inverse
// Walsh–Hadamard over the released support). RoundToCounts clamps x̂ to
// non-negative values and apportions the clamped positive mass, rounded to
// an integer, over the largest remainders, ties going to the lower cell
// index. The result is an integral, non-negative table whose marginals
// approximate the released ones; its total is the clamped mass, which
// exceeds the released total by what the negative cells held.
// SampleTuples turns it back into row-level synthetic data.
package synth

import (
	"fmt"
	"math"
	mbits "math/bits"

	"repro/internal/bits"
	"repro/internal/dataset"
	"repro/internal/noise"
	"repro/internal/transform"
)

// MaterializeVector reconstructs the estimated contingency vector from
// Fourier coefficients over a d-bit domain: x̂ = H·θ with coeff[c] the
// coefficient of support[c] (a workload's FourierSupport and the
// consistency step's coefficients) and the unreleased coefficients set to
// zero (their least-squares estimate given no observation).
func MaterializeVector(d int, support []bits.Mask, coeff []float64) ([]float64, error) {
	if err := bits.CheckDim(d); err != nil {
		return nil, err
	}
	if len(coeff) != len(support) {
		return nil, fmt.Errorf("synth: %d coefficients for a support of %d", len(coeff), len(support))
	}
	n := 1 << uint(d)
	x := make([]float64, n)
	for c, beta := range support {
		if !bits.Full(d).Dominates(beta) {
			return nil, fmt.Errorf("synth: coefficient %v outside dimension %d", beta, d)
		}
		x[beta] = coeff[c]
	}
	// The Hadamard transform is an involution: applying it to the
	// coefficient vector returns the spatial-domain estimate.
	transform.WHT(x)
	return x, nil
}

// RoundToCounts converts a real-valued estimated vector into non-negative
// integer counts (largest-remainder apportionment after clamping). The
// result is a valid contingency table whose total is the clamped positive
// mass rounded to the nearest integer, round(Σ max(x_i, 0)), not the round
// of Σx_i: clamping the negative cells adds mass.
//
// Each positive cell first gets its floor. The k = target − Σfloor spare
// units go to the k largest fractional parts: every fraction above the
// k-th largest gets one, and fractions equal to it take the remaining
// units in ascending cell order. Should rounding leave the total short
// even then, the cells are topped up in ascending order, cyclically.
//
// The k-th largest fraction is found by a radix select over the IEEE bits,
// which order like the values for positive floats, so the cost is linear
// in len(x) whatever the data. x must be finite, with a clamped mass below
// 2^62 so the counts fit an int64.
func RoundToCounts(x []float64) []int64 {
	out := make([]int64, len(x))
	total := 0.0
	var assigned int64
	fracs := make([]uint64, 0, len(x))
	for i, v := range x {
		if v > 0 {
			total += v
			fl := math.Floor(v)
			out[i] = int64(fl)
			assigned += int64(fl)
			if v > fl {
				fracs = append(fracs, math.Float64bits(v-fl))
			}
		}
	}
	target := int64(math.Round(total))
	if target < 0 {
		target = 0
	}
	if k := target - assigned; k > 0 {
		// A fraction's key is never 0, so threshold 0 with no ties to
		// share hands a unit to every fractional cell.
		var threshold uint64
		var ties int64
		if k < int64(len(fracs)) {
			threshold, ties = kthLargest(fracs, k)
		}
		for i, v := range x {
			if v <= 0 {
				continue
			}
			b := math.Float64bits(v - math.Floor(v))
			if b > threshold || b == threshold && ties > 0 {
				if b == threshold {
					ties--
				}
				out[i]++
				assigned++
			}
		}
	}
	// If clamping removed too much mass relative to the rounded target,
	// top up the largest cells (keeps totals exact).
	for i := 0; assigned < target && len(out) > 0; i = (i + 1) % len(out) {
		out[i]++
		assigned++
	}
	return out
}

// digitBits is the radix of kthLargest: 2^11 counters fit in 16 KiB.
const digitBits = 11

// kthLargest returns the k-th largest key (1 ≤ k ≤ len(keys)) and how many
// keys equal to it rank among the k largest. It overwrites keys.
//
// Each pass keeps only the bucket holding the k-th largest, so the prefix
// the remaining keys share grows by at least digitBits bits a pass: at
// most six passes over a shrinking set, whatever the distribution.
func kthLargest(keys []uint64, k int64) (uint64, int64) {
	lo, hi := keys[0], keys[0]
	for _, b := range keys {
		lo, hi = min(lo, b), max(hi, b)
	}
	var hist [1 << digitBits]int64
	for lo != hi {
		shift := max(mbits.Len64(lo^hi)-digitBits, 0)
		const mask = 1<<digitBits - 1
		clear(hist[:])
		for _, b := range keys {
			hist[b>>shift&mask]++
		}
		d := uint64(mask)
		for k > hist[d] {
			k -= hist[d]
			d--
		}
		m := 0
		lo, hi = math.MaxUint64, 0
		for _, b := range keys {
			if b>>shift&mask == d {
				keys[m] = b
				m++
				lo, hi = min(lo, b), max(hi, b)
			}
		}
		keys = keys[:m]
	}
	return lo, k
}

// SampleTuples draws row-level synthetic data from integer counts under a
// schema: every unit of count becomes one tuple, emitted in random order.
// Counts on invalid (padding) cells are skipped and reported.
//
// The rows share one backing array, each capped at its own length so an
// append to one row never writes into the next.
func SampleTuples(s *dataset.Schema, counts []int64, seed int64) (*dataset.Table, int64) {
	cells, skipped := SampleCells(s, counts, seed)
	if len(cells) == 0 {
		return &dataset.Table{Schema: s}, skipped
	}
	a := len(s.Attrs)
	back := make([]int, len(cells)*a)
	rows := make([][]int, len(cells))
	for i, idx := range cells {
		row := back[i*a : (i+1)*a : (i+1)*a]
		s.DecodeInto(int(idx), row)
		rows[i] = row
	}
	return &dataset.Table{Schema: s, Rows: rows}, skipped
}

// SampleCells is SampleTuples before decoding: the cell of every sampled
// tuple, in the same random order. Row i of SampleTuples is
// s.Decode(cells[i]); a caller that only writes the rows out can decode
// them one at a time instead of holding them all.
func SampleCells(s *dataset.Schema, counts []int64, seed int64) ([]int32, int64) {
	// noise.NewSource(seed) reproduces rand.New(rand.NewSource(seed))
	// bit-for-bit, so the emitted row order is unchanged by routing the
	// shuffle through the sanctioned Source (seedflow invariant); pinned by
	// TestSampleTuplesBitStable.
	rng := noise.NewSource(seed)
	var n, skipped int64
	for idx, c := range counts {
		if c <= 0 {
			continue
		}
		if !s.IsValid(idx) {
			skipped += c
			continue
		}
		n += c
	}
	if n == 0 {
		return nil, skipped
	}
	// One cell index per unit, in ascending cell order: shuffling these
	// permutes exactly as shuffling the decoded rows would.
	cells := make([]int32, 0, n)
	for idx, c := range counts {
		if c <= 0 || !s.IsValid(idx) {
			continue
		}
		for k := int64(0); k < c; k++ {
			cells = append(cells, int32(idx))
		}
	}
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	return cells, skipped
}

// MarginalL1 computes the L1 distance between a marginal of the synthetic
// counts and a target table — the fidelity metric for synthetic data.
func MarginalL1(d int, alpha bits.Mask, counts []int64, target []float64) float64 {
	got := make([]float64, 1<<uint(alpha.Count()))
	for idx, c := range counts {
		got[bits.CellIndex(alpha, bits.Mask(idx)&alpha)] += float64(c)
	}
	s := 0.0
	for i := range got {
		s += math.Abs(got[i] - target[i])
	}
	return s
}
