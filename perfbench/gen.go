package main

import (
	"bytes"
	"math"
	"strconv"
)

// The benchmark owns its inputs: the generators below copy the shapes of
// the repository's NLTCS and Adult stand-ins (schema, tuple count,
// dependence structure) without calling them, and draw from their own
// PRNG, so no change to the program under test can alter what it is fed.

// attr is one categorical column of a generated relation.
type attr struct {
	Name        string `json:"name"`
	Cardinality int    `json:"cardinality"`
}

// bitWidth is ⌈log₂ cardinality⌉ (at least 1): the bits the column occupies
// in the daemon's binary encoding, and hence in a marginal's cell index.
func (a attr) bitWidth() int {
	w := 0
	for 1<<w < a.Cardinality {
		w++
	}
	if w == 0 {
		w = 1
	}
	return w
}

// relation is a generated table: a schema and its rows.
type relation struct {
	Schema []attr
	Rows   [][]int
}

// rng is splitmix64: tiny, fast, and fixed forever, so a seed names the
// same inputs on every Go release.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform draw from [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform draw from [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// derive mixes a stream label into a seed, so the data, the request seeds
// and the writer batches of one run draw from independent streams.
func derive(seed uint64, stream uint64) uint64 {
	return newRNG(seed ^ stream*0xd6e8feb86659fd93).next()
}

const (
	nltcsRows = 21576
	adultRows = 32561
)

var nltcsNames = []string{
	"adl-eating", "adl-dressing", "adl-toileting", "adl-bathing",
	"adl-mobility-inside", "adl-transferring",
	"iadl-heavy-housework", "iadl-light-housework", "iadl-laundry",
	"iadl-cooking", "iadl-groceries", "iadl-outside-mobility",
	"iadl-travel", "iadl-money", "iadl-telephone", "iadl-medicine",
}

func nltcsSchema() []attr {
	s := make([]attr, len(nltcsNames))
	for i, n := range nltcsNames {
		s[i] = attr{Name: n, Cardinality: 2}
	}
	return s
}

// genNLTCS draws n NLTCS-shaped rows: sixteen binary disability
// indicators driven by one latent severity per person, ADL items (0–5)
// rarer than IADL items (6–15).
func genNLTCS(seed uint64, n int) *relation {
	r := newRNG(seed)
	rows := make([][]int, n)
	for i := range rows {
		sev := r.float()
		row := make([]int, 16)
		for j := range row {
			base := 0.08
			if j >= 6 {
				base = 0.18
			}
			if r.float() < base+0.55*sev*sev {
				row[j] = 1
			}
		}
		rows[i] = row
	}
	return &relation{Schema: nltcsSchema(), Rows: rows}
}

func adultSchema() []attr {
	return []attr{
		{"workclass", 9}, {"education", 16}, {"marital-status", 7},
		{"occupation", 15}, {"relationship", 6}, {"race", 5},
		{"sex", 2}, {"salary", 2},
	}
}

// genAdult draws n Adult-shaped rows: eight Zipf-skewed categorical
// columns (23 bits once encoded) with occupation following workclass,
// relationship following marital status, and salary following education.
func genAdult(seed uint64, n int) *relation {
	s := adultSchema()
	r := newRNG(seed)
	cdfs := make([][]float64, len(s))
	for i, a := range s {
		cdfs[i] = zipfCDF(a.Cardinality, 1.1)
	}
	rows := make([][]int, n)
	for i := range rows {
		row := make([]int, len(s))
		for j := range row {
			row[j] = sampleCDF(r.float(), cdfs[j])
		}
		if r.float() < 0.5 {
			row[3] = row[0] % s[3].Cardinality
		}
		if r.float() < 0.5 {
			row[4] = row[2] % s[4].Cardinality
		}
		if float64(row[1]) > 0.6*float64(s[1].Cardinality) && r.float() < 0.6 {
			row[7] = 1
		}
		rows[i] = row
	}
	return &relation{Schema: s, Rows: rows}
}

func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	total := 0.0
	for i := range cdf {
		total += 1 / math.Pow(float64(i+1), s)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return cdf
}

func sampleCDF(u float64, cdf []float64) int {
	for i, c := range cdf {
		if u < c {
			return i
		}
	}
	return len(cdf) - 1
}

// ndjson renders rows in the daemon's ingest format: a schema header line,
// then one JSON array per row.
func ndjson(schema []attr, rows [][]int) []byte {
	var b bytes.Buffer
	b.WriteString(`{"schema":[`)
	for i, a := range schema {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"name":"`)
		b.WriteString(a.Name)
		b.WriteString(`","cardinality":`)
		b.WriteString(strconv.Itoa(a.Cardinality))
		b.WriteByte('}')
	}
	b.WriteString("]}\n")
	for _, row := range rows {
		b.WriteByte('[')
		for j, v := range row {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(v))
		}
		b.WriteString("]\n")
	}
	return b.Bytes()
}

// marginal tallies the true marginal over the attribute set attrs
// (ascending) in the daemon's cell order: attribute attrs[0] in the least
// significant bits, each attribute taking bitWidth bits, so the table has
// 2^(Σ widths) cells, padding codes included.
func marginal(schema []attr, rows [][]int, attrs []int) []float64 {
	shift := make([]int, len(attrs))
	width := 0
	for j, a := range attrs {
		shift[j] = width
		width += schema[a].bitWidth()
	}
	cells := make([]float64, 1<<width)
	for _, row := range rows {
		idx := 0
		for j, a := range attrs {
			idx |= row[a] << shift[j]
		}
		cells[idx]++
	}
	return cells
}

// relativeError is the paper's Section-5 metric: total absolute cell
// error over total absolute true mass.
func relativeError(truth, noisy []float64) float64 {
	var e, t float64
	for i := range truth {
		e += math.Abs(noisy[i] - truth[i])
		t += math.Abs(truth[i])
	}
	return e / t
}
