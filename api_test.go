package repro

import (
	"bytes"
	"flag"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateAPI = flag.Bool("update-api", false, "rewrite testdata/api.txt from the current exported API")

// TestExportedAPI pins the package's exported surface — every exported
// constant, variable, function, type, struct field and method — to
// testdata/api.txt, so the surface cannot grow (or shrink) without the
// golden changing in the same commit. Regenerate after a deliberate API
// change with:
//
//	go test -run TestExportedAPI -update-api .
func TestExportedAPI(t *testing.T) {
	got := exportedAPI(t)
	golden := filepath.Join("testdata", "api.txt")
	if *updateAPI {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-api to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("exported API differs from %s (run with -update-api after a deliberate change):\n%s",
			golden, lineDiff(string(want), got))
	}
}

// exportedAPI renders the package's exported declarations, one per line,
// in go/doc order.
func exportedAPI(t *testing.T) string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	// go/doc lists values in file order: feed the files sorted by name.
	names := make([]string, 0, len(pkgs["repro"].Files))
	for name := range pkgs["repro"].Files {
		names = append(names, name)
	}
	sort.Strings(names)
	files := make([]*ast.File, len(names))
	for i, name := range names {
		files[i] = pkgs["repro"].Files[name]
	}
	p, err := doc.NewFromFiles(fset, files, "repro")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	node := func(n any) string {
		var buf bytes.Buffer
		if err := printer.Fprint(&buf, fset, n); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	values := func(kind string, vs []*doc.Value) {
		for _, v := range vs {
			for _, name := range v.Names {
				if ast.IsExported(name) {
					b.WriteString(kind + " " + name + "\n")
				}
			}
		}
	}
	funcs := func(fs []*doc.Func) {
		for _, f := range fs {
			decl := *f.Decl
			decl.Doc, decl.Body = nil, nil
			b.WriteString(node(&decl) + "\n")
		}
	}
	values("const", p.Consts)
	values("var", p.Vars)
	funcs(p.Funcs)
	for _, typ := range p.Types {
		for _, spec := range typ.Decl.Specs {
			ts := spec.(*ast.TypeSpec)
			st, isStruct := ts.Type.(*ast.StructType)
			switch {
			case ts.Assign != 0:
				b.WriteString("type " + ts.Name.Name + " = " + node(ts.Type) + "\n")
			case isStruct:
				b.WriteString("type " + ts.Name.Name + " struct\n")
				for _, field := range st.Fields.List {
					for _, name := range field.Names {
						if ast.IsExported(name.Name) {
							b.WriteString("\t" + ts.Name.Name + "." + name.Name + " " + node(field.Type) + "\n")
						}
					}
				}
			default:
				b.WriteString("type " + ts.Name.Name + " " + node(ts.Type) + "\n")
			}
		}
		values("const", typ.Consts)
		values("var", typ.Vars)
		funcs(typ.Funcs)
		funcs(typ.Methods)
	}
	return b.String()
}

// lineDiff lists the lines only in want (-) and only in got (+).
func lineDiff(want, got string) string {
	in := func(s string) map[string]bool {
		m := map[string]bool{}
		for _, l := range strings.Split(s, "\n") {
			m[l] = true
		}
		return m
	}
	w, g := in(want), in(got)
	var out strings.Builder
	for _, l := range strings.Split(want, "\n") {
		if !g[l] {
			out.WriteString("- " + l + "\n")
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if !w[l] {
			out.WriteString("+ " + l + "\n")
		}
	}
	return out.String()
}
