// Package dataset models the input relations of the paper: a schema of
// categorical attributes, its encoding into binary attributes (each |A|-ary
// attribute becomes ⌈log₂|A|⌉ bits, Section 4.1), and the materialisation of
// a tuple table as the contingency vector x ∈ R^N with N = 2^d.
//
// Since the original UCI Adult and StatLib NLTCS extracts cannot be shipped,
// the package also provides seeded synthetic generators with the same
// schemas, tuple counts and qualitative dependence structure.
package dataset

import (
	"fmt"

	"repro/internal/bits"
)

// Attribute is one categorical column. The JSON tags fix its wire form —
// the serving layer and the dataset-snapshot metadata both serialise it.
type Attribute struct {
	Name        string `json:"name"`
	Cardinality int    `json:"cardinality"` // number of distinct values, ≥ 2
}

// BitWidth returns ⌈log₂(Cardinality)⌉, the number of binary attributes the
// column becomes.
func (a Attribute) BitWidth() int {
	w := 0
	for (1 << uint(w)) < a.Cardinality {
		w++
	}
	if w == 0 {
		w = 1 // cardinality 1 still occupies one bit so masks stay distinct
	}
	return w
}

// Schema is an ordered list of attributes with a fixed binary encoding:
// attribute i occupies bits [Offset(i), Offset(i)+BitWidth(i)) of the domain
// index, attribute 0 at the least significant position.
type Schema struct {
	Attrs  []Attribute
	layout []field
	dim    int
	padded bool // some attribute's cardinality is not a power of two
}

// field is one attribute's place in the domain index, computed once by
// NewSchema: its code is (idx >> shift) & mask, valid below card.
type field struct {
	shift uint
	mask  int
	card  int
}

// NewSchema validates the attributes and computes the bit layout.
func NewSchema(attrs []Attribute) (*Schema, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("dataset: schema needs at least one attribute")
	}
	s := &Schema{Attrs: append([]Attribute(nil), attrs...)}
	s.layout = make([]field, len(attrs))
	bit := 0
	for i, a := range attrs {
		if a.Cardinality < 1 {
			return nil, fmt.Errorf("dataset: attribute %q has cardinality %d", a.Name, a.Cardinality)
		}
		w := a.BitWidth()
		s.layout[i] = field{shift: uint(bit), mask: 1<<uint(w) - 1, card: a.Cardinality}
		s.padded = s.padded || a.Cardinality != 1<<uint(w)
		bit += w
	}
	s.dim = bit
	if err := bits.CheckDim(bit); err != nil {
		return nil, fmt.Errorf("dataset: schema needs %d bits: %w", bit, err)
	}
	return s, nil
}

// MustSchema is NewSchema for statically known-good schemas.
func MustSchema(attrs []Attribute) *Schema {
	s, err := NewSchema(attrs)
	if err != nil {
		panic(err)
	}
	return s
}

// Dim returns d, the total number of binary attributes.
func (s *Schema) Dim() int { return s.dim }

// Equal reports attribute-level equality: same names and cardinalities in
// the same order. Two schemas can share a bit-width with different
// attribute layouts (one 16-ary column vs two 4-ary ones), so releases and
// dataset appends that must not mislabel marginals check this, not Dim.
func (s *Schema) Equal(o *Schema) bool {
	if len(s.Attrs) != len(o.Attrs) {
		return false
	}
	for i := range s.Attrs {
		if s.Attrs[i] != o.Attrs[i] {
			return false
		}
	}
	return true
}

// DomainSize returns N = 2^d.
func (s *Schema) DomainSize() int { return 1 << uint(s.dim) }

// Offset returns the first bit position of attribute i.
func (s *Schema) Offset(i int) int { return int(s.layout[i].shift) }

// AttrMask returns the bitmask covering attribute i — the marginal over the
// original column i is the marginal over this mask.
func (s *Schema) AttrMask(i int) bits.Mask {
	f := s.layout[i]
	return bits.Mask(f.mask) << f.shift
}

// MaskOf returns the union mask of the named attribute indices: the marginal
// over original columns {i...} is the binary marginal over this mask.
func (s *Schema) MaskOf(attrIdx ...int) bits.Mask {
	var m bits.Mask
	for _, i := range attrIdx {
		m |= s.AttrMask(i)
	}
	return m
}

// Encode maps one tuple (a value per attribute) to its domain index.
func (s *Schema) Encode(tuple []int) (int, error) {
	if len(tuple) != len(s.Attrs) {
		return 0, fmt.Errorf("dataset: tuple has %d values, schema has %d attributes", len(tuple), len(s.Attrs))
	}
	idx := 0
	for i, v := range tuple {
		if v < 0 || v >= s.Attrs[i].Cardinality {
			return 0, fmt.Errorf("dataset: value %d out of range for attribute %q (cardinality %d)",
				v, s.Attrs[i].Name, s.Attrs[i].Cardinality)
		}
		idx |= v << s.layout[i].shift
	}
	return idx, nil
}

// Decode maps a domain index back to a tuple. Indices that address unused
// codes (beyond an attribute's cardinality) are returned as-is; IsValid
// reports whether the index encodes a real tuple.
func (s *Schema) Decode(idx int) []int {
	tuple := make([]int, len(s.layout))
	s.DecodeInto(idx, tuple)
	return tuple
}

// DecodeInto is Decode writing into dst, which must hold one value per
// attribute; it allocates nothing.
func (s *Schema) DecodeInto(idx int, dst []int) {
	dst = dst[:len(s.layout)]
	for i, f := range s.layout {
		dst[i] = idx >> f.shift & f.mask
	}
}

// IsValid reports whether the domain index encodes in-range values for every
// attribute (padding cells of non-power-of-two cardinalities are invalid).
func (s *Schema) IsValid(idx int) bool {
	if !s.padded {
		return true
	}
	for _, f := range s.layout {
		if idx>>f.shift&f.mask >= f.card {
			return false
		}
	}
	return true
}

// Table is a multiset of tuples under a schema.
type Table struct {
	Schema *Schema
	Rows   [][]int
}

// Vector materialises the contingency vector x: x[idx] counts the tuples
// encoding to idx.
func (t *Table) Vector() ([]float64, error) {
	x := make([]float64, t.Schema.DomainSize())
	for r, row := range t.Rows {
		idx, err := t.Schema.Encode(row)
		if err != nil {
			return nil, fmt.Errorf("dataset: row %d: %w", r, err)
		}
		x[idx]++
	}
	return x, nil
}

// Count returns the number of tuples.
func (t *Table) Count() int { return len(t.Rows) }
