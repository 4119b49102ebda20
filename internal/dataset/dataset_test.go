package dataset

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/bits"
)

func TestBitWidth(t *testing.T) {
	cases := map[int]int{1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 15: 4, 16: 4, 17: 5}
	for card, want := range cases {
		a := Attribute{Name: "a", Cardinality: card}
		if got := a.BitWidth(); got != want {
			t.Errorf("BitWidth(%d) = %d, want %d", card, got, want)
		}
	}
}

func TestSchemaLayout(t *testing.T) {
	s := MustSchema([]Attribute{
		{Name: "a", Cardinality: 9}, // 4 bits at offset 0
		{Name: "b", Cardinality: 2}, // 1 bit at offset 4
		{Name: "c", Cardinality: 7}, // 3 bits at offset 5
	})
	if s.Dim() != 8 {
		t.Fatalf("Dim = %d, want 8", s.Dim())
	}
	if s.DomainSize() != 256 {
		t.Fatalf("DomainSize = %d, want 256", s.DomainSize())
	}
	if s.Offset(0) != 0 || s.Offset(1) != 4 || s.Offset(2) != 5 {
		t.Fatalf("offsets wrong: %d %d %d", s.Offset(0), s.Offset(1), s.Offset(2))
	}
	if s.AttrMask(0) != 0b00001111 {
		t.Fatalf("AttrMask(0) = %v", s.AttrMask(0))
	}
	if s.AttrMask(1) != 0b00010000 {
		t.Fatalf("AttrMask(1) = %v", s.AttrMask(1))
	}
	if s.AttrMask(2) != 0b11100000 {
		t.Fatalf("AttrMask(2) = %v", s.AttrMask(2))
	}
	if s.MaskOf(0, 2) != 0b11101111 {
		t.Fatalf("MaskOf(0,2) = %v", s.MaskOf(0, 2))
	}
}

func TestSchemaErrors(t *testing.T) {
	if _, err := NewSchema(nil); err == nil {
		t.Error("empty schema accepted")
	}
	if _, err := NewSchema([]Attribute{{Name: "x", Cardinality: 0}}); err == nil {
		t.Error("cardinality 0 accepted")
	}
	// 31 binary attributes exceed MaxDim.
	attrs := make([]Attribute, 31)
	for i := range attrs {
		attrs[i] = Attribute{Name: "b", Cardinality: 2}
	}
	if _, err := NewSchema(attrs); err == nil {
		t.Error("31-bit schema accepted")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := MustSchema([]Attribute{
		{Name: "a", Cardinality: 5},
		{Name: "b", Cardinality: 3},
		{Name: "c", Cardinality: 2},
	})
	for a := 0; a < 5; a++ {
		for b := 0; b < 3; b++ {
			for c := 0; c < 2; c++ {
				idx, err := s.Encode([]int{a, b, c})
				if err != nil {
					t.Fatal(err)
				}
				back := s.Decode(idx)
				if back[0] != a || back[1] != b || back[2] != c {
					t.Fatalf("round trip (%d,%d,%d) → %d → %v", a, b, c, idx, back)
				}
				if !s.IsValid(idx) {
					t.Fatalf("valid tuple index %d flagged invalid", idx)
				}
			}
		}
	}
}

// TestLayoutMatchesBitWidth: Decode, DecodeInto, IsValid and AttrMask,
// which read the layout NewSchema computed, agree on every cell of a
// mixed-cardinality domain with the same quantities derived from BitWidth
// and Offset.
func TestLayoutMatchesBitWidth(t *testing.T) {
	checkLayout(t, MustSchema([]Attribute{
		{Name: "a", Cardinality: 9}, {Name: "b", Cardinality: 2}, {Name: "c", Cardinality: 7},
		{Name: "d", Cardinality: 1}, {Name: "e", Cardinality: 5}, {Name: "f", Cardinality: 3},
	}))
	// No padding cells: every index is valid.
	checkLayout(t, MustSchema([]Attribute{
		{Name: "a", Cardinality: 8}, {Name: "b", Cardinality: 2}, {Name: "c", Cardinality: 16},
	}))
}

func checkLayout(t *testing.T, s *Schema) {
	t.Helper()
	dst := make([]int, len(s.Attrs))
	for idx := 0; idx < s.DomainSize(); idx++ {
		tuple := s.Decode(idx)
		s.DecodeInto(idx, dst)
		valid := true
		for i, a := range s.Attrs {
			want := idx >> uint(s.Offset(i)) & (1<<uint(a.BitWidth()) - 1)
			if tuple[i] != want || dst[i] != want {
				t.Fatalf("cell %d attribute %d: Decode %d, DecodeInto %d, want %d", idx, i, tuple[i], dst[i], want)
			}
			valid = valid && want < a.Cardinality
		}
		if s.IsValid(idx) != valid {
			t.Fatalf("cell %d: IsValid = %v, want %v", idx, !valid, valid)
		}
	}
	for i, a := range s.Attrs {
		if want := bits.Full(a.BitWidth()) << uint(s.Offset(i)); s.AttrMask(i) != want {
			t.Fatalf("AttrMask(%d) = %v, want %v", i, s.AttrMask(i), want)
		}
	}
}

// TestDecodeIntoAllocFree: decoding into a caller's slice allocates
// nothing.
func TestDecodeIntoAllocFree(t *testing.T) {
	s := AdultSchema()
	dst := make([]int, len(s.Attrs))
	if n := testing.AllocsPerRun(100, func() { s.DecodeInto(0x5a5a5a, dst) }); n != 0 {
		t.Fatalf("DecodeInto allocates %v times", n)
	}
}

func TestEncodeRejectsOutOfRange(t *testing.T) {
	s := MustSchema([]Attribute{{Name: "a", Cardinality: 3}})
	if _, err := s.Encode([]int{3}); err == nil {
		t.Error("out-of-range value accepted")
	}
	if _, err := s.Encode([]int{-1}); err == nil {
		t.Error("negative value accepted")
	}
	if _, err := s.Encode([]int{0, 0}); err == nil {
		t.Error("wrong arity accepted")
	}
}

func TestIsValidPadding(t *testing.T) {
	s := MustSchema([]Attribute{{Name: "a", Cardinality: 3}}) // 2 bits, code 3 unused
	if s.IsValid(3) {
		t.Error("padding cell flagged valid")
	}
	if !s.IsValid(2) {
		t.Error("real cell flagged invalid")
	}
}

func TestTableVector(t *testing.T) {
	// The running example of Figure 1(a): 3 binary attrs, 5 tuples,
	// x = (1,2,0,1,0,0,1,0) with A as the most significant bit in the paper.
	// Our encoding puts attribute 0 at the LSB, so we declare C,B,A to get
	// the same linearisation 000,001,…,111 = (C,B,A) … instead keep natural
	// order and check counts cell-wise.
	s := MustSchema([]Attribute{
		{Name: "A", Cardinality: 2},
		{Name: "B", Cardinality: 2},
		{Name: "C", Cardinality: 2},
	})
	tab := &Table{Schema: s, Rows: [][]int{
		{0, 0, 1}, {0, 1, 1}, {0, 0, 0}, {0, 0, 1}, {1, 1, 0},
	}}
	x, err := tab.Vector()
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, v := range x {
		total += v
	}
	if total != 5 {
		t.Fatalf("total mass %v, want 5", total)
	}
	// Cell (A=0,B=0,C=1) = index 1<<2 = 4 under LSB-first encoding.
	if x[4] != 2 {
		t.Fatalf("x[A=0,B=0,C=1] = %v, want 2", x[4])
	}
	if x[0] != 1 { // (0,0,0)
		t.Fatalf("x[0,0,0] = %v, want 1", x[0])
	}
	if x[1+2] != 1 { // (A=1,B=1,C=0) = 1 + 2
		t.Fatalf("x[1,1,0] = %v, want 1", x[3])
	}
}

func TestAdultSchemaShape(t *testing.T) {
	s := AdultSchema()
	if len(s.Attrs) != 8 {
		t.Fatalf("Adult has %d attributes, want 8", len(s.Attrs))
	}
	if s.Dim() != 23 {
		t.Fatalf("Adult dim = %d, want 23 (4+4+3+4+3+3+1+1)", s.Dim())
	}
}

func TestNLTCSSchemaShape(t *testing.T) {
	s := NLTCSSchema()
	if len(s.Attrs) != 16 || s.Dim() != 16 {
		t.Fatalf("NLTCS dims wrong: %d attrs, %d bits", len(s.Attrs), s.Dim())
	}
	if s.DomainSize() != 65536 {
		t.Fatalf("NLTCS domain = %d", s.DomainSize())
	}
}

func TestSyntheticAdultDeterministic(t *testing.T) {
	a := SyntheticAdult(7, 500)
	b := SyntheticAdult(7, 500)
	if a.Count() != 500 || b.Count() != 500 {
		t.Fatal("wrong tuple count")
	}
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if a.Rows[i][j] != b.Rows[i][j] {
				t.Fatal("same seed must generate same table")
			}
		}
	}
	c := SyntheticAdult(8, 500)
	same := true
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if a.Rows[i][j] != c.Rows[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds should differ")
	}
}

func TestSyntheticAdultValuesInRange(t *testing.T) {
	tab := SyntheticAdult(1, 2000)
	for _, row := range tab.Rows {
		for j, v := range row {
			if v < 0 || v >= tab.Schema.Attrs[j].Cardinality {
				t.Fatalf("value %d out of range for attribute %d", v, j)
			}
		}
	}
	if _, err := tab.Vector(); err != nil {
		t.Fatal(err)
	}
}

func TestSyntheticNLTCSBinaryAndClustered(t *testing.T) {
	tab := SyntheticNLTCS(2, 5000)
	ones := make([]int, 16)
	for _, row := range tab.Rows {
		for j, v := range row {
			if v != 0 && v != 1 {
				t.Fatalf("non-binary value %d", v)
			}
			ones[j] += v
		}
	}
	// IADL rates must exceed ADL rates on average (structure check).
	adl, iadl := 0, 0
	for j := 0; j < 6; j++ {
		adl += ones[j]
	}
	for j := 6; j < 16; j++ {
		iadl += ones[j]
	}
	if float64(iadl)/10 <= float64(adl)/6 {
		t.Errorf("IADL mean %v should exceed ADL mean %v", float64(iadl)/10, float64(adl)/6)
	}
}

func TestSyntheticBinary(t *testing.T) {
	tab := SyntheticBinary(3, 10, 1000)
	if tab.Schema.Dim() != 10 || tab.Count() != 1000 {
		t.Fatal("SyntheticBinary shape wrong")
	}
	x, err := tab.Vector()
	if err != nil {
		t.Fatal(err)
	}
	if len(x) != 1024 {
		t.Fatal("vector length wrong")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	in := strings.Join([]string{
		"color,size",
		"red,small",
		"blue,large",
		"red,large",
		"green,small",
	}, "\n")
	tab, dicts, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Schema.Attrs) != 2 || tab.Count() != 4 {
		t.Fatalf("parsed shape wrong: %d attrs %d rows", len(tab.Schema.Attrs), tab.Count())
	}
	if tab.Schema.Attrs[0].Cardinality != 3 || tab.Schema.Attrs[1].Cardinality != 2 {
		t.Fatalf("cardinalities wrong: %+v", tab.Schema.Attrs)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tab, dicts); err != nil {
		t.Fatal(err)
	}
	tab2, _, err := ReadCSV(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	x1, _ := tab.Vector()
	x2, _ := tab2.Vector()
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatalf("CSV round trip changed the contingency vector at %d", i)
		}
	}
}

func TestCSVErrors(t *testing.T) {
	if _, _, err := ReadCSV(strings.NewReader("only-header")); err == nil {
		t.Error("header-only csv accepted")
	}
	if _, _, err := ReadCSV(strings.NewReader("a,b\n1")); err == nil {
		t.Error("ragged csv accepted")
	}
}

func TestMarginalMasksAreDisjointPerAttribute(t *testing.T) {
	s := AdultSchema()
	var seen bits.Mask
	for i := range s.Attrs {
		m := s.AttrMask(i)
		if seen&m != 0 {
			t.Fatalf("attribute masks overlap at %d", i)
		}
		seen |= m
	}
	if seen != bits.Full(s.Dim()) {
		t.Fatalf("attribute masks do not cover the domain: %v", seen)
	}
}

func BenchmarkVectorNLTCS(b *testing.B) {
	tab := SyntheticNLTCS(4, NLTCSTupleCount)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := tab.Vector(); err != nil {
			b.Fatal(err)
		}
	}
}
