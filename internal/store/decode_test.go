package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"testing"
)

// decodeTupleJSON is the encoding/json row decoder decodeTuple replaced,
// kept as its oracle: a json.Decoder token loop with UseNumber and Int64.
func decodeTupleJSON(line []byte, tuple []int) error {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.UseNumber()
	tok, err := dec.Token()
	if err != nil {
		return fmt.Errorf("bad row: %v", err)
	}
	if d, ok := tok.(json.Delim); !ok || d != '[' {
		return fmt.Errorf("bad row: want a JSON array of attribute values, got %v", tok)
	}
	n := 0
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return fmt.Errorf("bad row: %v", err)
		}
		num, ok := tok.(json.Number)
		if !ok {
			return fmt.Errorf("bad row: value %d is not an integer (%v)", n, tok)
		}
		v, err := num.Int64()
		if err != nil {
			return fmt.Errorf("bad row: value %d: %v", n, err)
		}
		if n >= len(tuple) {
			return fmt.Errorf("row has more than %d values", len(tuple))
		}
		tuple[n] = int(v)
		n++
	}
	if _, err := dec.Token(); err != nil { // consume ']'
		return fmt.Errorf("bad row: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("bad row: trailing data after the array")
	}
	if n != len(tuple) {
		return fmt.Errorf("row has %d values, schema has %d attributes", n, len(tuple))
	}
	return nil
}

// decodeCases are rows on both sides of the grammar; FuzzDecodeTuple
// seeds its corpus from them.
var decodeCases = []string{
	"[0,1,2]", " [ 0 , 1 , 2 ] ", "[\t0,\r\n1,2]", "[-0,0,0]", "[-1,2,3]",
	"[9223372036854775807,0,0]", "[-9223372036854775808,0,0]",
	"[9223372036854775808,0,0]", "[-9223372036854775809,0,0]", "[99999999999999999999,0,0]",
	"[0.5,1,2]", "[1.0,1,2]", "[1e2,1,2]", "[1E2,1,2]", "[01,1,2]", "[00,1,2]", "[-01,1,2]",
	"[+1,1,2]", "[-,1,2]", "[.5,1,2]", "[1.,1,2]", "[0,1]", "[0,1,2,3]", "[]", "[ ]",
	"[0,1,2,]", "[,0,1,2]", "[0,,1,2]", "[0 1,2]", "[0,1,2", "[0,1,2]]", "[0,1,2] [0,1,2]",
	"[0,1,2]x", "[[0],1,2]", "[\"0\",1,2]", "[true,1,2]", "[null,1,2]", "{\"a\":0}", "",
	"[0,1,2]\v", "\v[0,1,2]", "[0,\f1,2]", "[0,1,2] ", "[0x1,1,2]", "[1-2,1,2]",
}

// TestDecodeTupleMatchesJSON: the byte scanner accepts and rejects every
// case exactly as the encoding/json decoder does, and reads the same
// values from the rows both accept.
func TestDecodeTupleMatchesJSON(t *testing.T) {
	for _, line := range decodeCases {
		checkDecodeTuple(t, []byte(line), 3)
	}
}

// FuzzDecodeTuple is the differential fuzzer behind the byte scanner.
func FuzzDecodeTuple(f *testing.F) {
	for _, line := range decodeCases {
		f.Add([]byte(line), uint8(3))
	}
	f.Fuzz(func(t *testing.T, line []byte, arity uint8) {
		checkDecodeTuple(t, line, 1+int(arity)%8)
	})
}

func checkDecodeTuple(t *testing.T, line []byte, arity int) {
	t.Helper()
	got, want := make([]int, arity), make([]int, arity)
	gerr, werr := decodeTuple(line, got), decodeTupleJSON(line, want)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("%q (arity %d): scanner error %v, encoding/json error %v", line, arity, gerr, werr)
	}
	if gerr != nil {
		return
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%q: value %d = %d, encoding/json read %d", line, i, got[i], want[i])
		}
	}
}

// TestDecodeTupleAllocatesNothing: an accepted row costs no allocation.
func TestDecodeTupleAllocatesNothing(t *testing.T) {
	line := []byte("[12, 0, -0, 7, 3]")
	tuple := make([]int, 5)
	if n := testing.AllocsPerRun(100, func() {
		if err := decodeTuple(line, tuple); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("decodeTuple allocates %v times per row", n)
	}
}
