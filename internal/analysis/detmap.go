package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DetMap flags iteration over a map whose body feeds an order-sensitive
// sink. Go randomizes map iteration order, so such a loop silently breaks
// the bit-identity contract: every parallel or sharded path must
// produce byte-for-byte the serial oracle's output (ROADMAP: "pinned
// bit-identical ... under -race"), and the serving layer replays cached
// payloads byte-identically.
//
// Order-sensitive sinks inside the loop body:
//   - append to a slice declared outside the loop (unless that slice is
//     passed to a sort.*/slices.Sort* call in the same function — the
//     collect-then-sort idiom is deterministic);
//   - compound assignment (+=, -=, *=, /=) to an outer variable of
//     float, complex or string type (float addition is not associative;
//     integer accumulation is commutative and exempt);
//   - Write/WriteString/WriteByte/WriteRune/Encode calls on an outer
//     receiver, and fmt.Fprint* to an outer writer (wire and Prometheus
//     encodings);
//   - sends on an outer channel.
//
// The fix is to iterate a sorted key slice; a genuinely order-free case
// takes a //dpvet:ignore detmap -- <reason> suppression.
var DetMap = &Analyzer{
	Name: "detmap",
	Doc:  "flag map iteration feeding order-sensitive sinks in determinism-critical packages",
	// The six pipeline packages the bit-identity contract names, plus
	// the layers that must stay byte-stable for snapshots (store) and
	// replayed cached payloads (rescache, server).
	Packages: []string{
		"internal/engine", "internal/strategy", "internal/vector",
		"internal/consistency", "internal/transform", "internal/telemetry",
		"internal/store", "internal/rescache", "internal/server",
	},
	Run: runDetMap,
}

var detmapWriteSinks = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true,
	"WriteRune": true, "Encode": true,
}

func runDetMap(p *Pass) error {
	inspectWithStack(p.Files, func(n ast.Node, stack []ast.Node) {
		rng, ok := n.(*ast.RangeStmt)
		if !ok || rng.X == nil {
			return
		}
		t := p.TypeOf(rng.X)
		if t == nil {
			return
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return
		}
		fn := enclosingFunc(stack)
		p.checkMapRangeBody(rng, fn)
	})
	return nil
}

// enclosingFunc returns the innermost function body on the stack.
func enclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return stack[i]
		}
	}
	return nil
}

// outer reports whether obj is declared outside the range statement (an
// accumulator that survives the loop, so iteration order reaches it).
func outer(obj types.Object, rng *ast.RangeStmt) bool {
	if obj == nil {
		return false
	}
	pos := obj.Pos()
	return pos == token.NoPos || pos < rng.Pos() || pos > rng.End()
}

func (p *Pass) checkMapRangeBody(rng *ast.RangeStmt, fn ast.Node) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			p.checkAssign(s, rng, fn)
		case *ast.CallExpr:
			p.checkCallSink(s, rng)
		case *ast.SendStmt:
			if id := rootIdent(s.Chan); id != nil && outer(p.ObjectOf(id), rng) {
				p.Reportf(s.Pos(), "send on %s inside map iteration: receive order follows nondeterministic map order", id.Name)
			}
		}
		return true
	})
}

func (p *Pass) checkAssign(s *ast.AssignStmt, rng *ast.RangeStmt, fn ast.Node) {
	switch s.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		lhs := s.Lhs[0]
		id := rootIdent(lhs)
		if id == nil || !outer(p.ObjectOf(id), rng) {
			return
		}
		if t := p.TypeOf(lhs); t != nil && orderSensitiveAccum(t) {
			p.Reportf(s.Pos(), "%s accumulation onto %s inside map iteration is order-sensitive (map order is nondeterministic); iterate a sorted key slice", s.Tok, id.Name)
		}
	case token.ASSIGN, token.DEFINE:
		for i, rhs := range s.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || !p.isBuiltinAppend(call) || i >= len(s.Lhs) {
				continue
			}
			id := rootIdent(s.Lhs[i])
			if id == nil {
				continue
			}
			obj := p.ObjectOf(id)
			if !outer(obj, rng) || p.sortedInFunc(fn, obj) {
				continue
			}
			p.Reportf(s.Pos(), "append to %s inside map iteration makes its element order nondeterministic; iterate a sorted key slice or sort %s afterwards", id.Name, id.Name)
		}
	}
}

func (p *Pass) checkCallSink(c *ast.CallExpr, rng *ast.RangeStmt) {
	sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	// fmt.Fprint* to an outer writer.
	if pkg, name, isFn := p.calleePkgFunc(c); isFn && pkg == "fmt" && strings.HasPrefix(name, "Fprint") && len(c.Args) > 0 {
		if id := rootIdent(c.Args[0]); id != nil && outer(p.ObjectOf(id), rng) {
			p.Reportf(c.Pos(), "fmt.%s to %s inside map iteration writes in nondeterministic map order", name, id.Name)
		}
		return
	}
	// Writer/encoder methods on an outer receiver.
	if !detmapWriteSinks[sel.Sel.Name] {
		return
	}
	if _, isMethod := p.TypesInfo.Selections[sel]; !isMethod {
		return
	}
	if id := rootIdent(sel.X); id != nil && outer(p.ObjectOf(id), rng) {
		p.Reportf(c.Pos(), "%s.%s inside map iteration encodes in nondeterministic map order", id.Name, sel.Sel.Name)
	}
}

// orderSensitiveAccum reports whether accumulating values of type t is
// order-sensitive: floats and complex (non-associative rounding) and
// strings (concatenation order). Integer +=/-= is commutative and exempt.
func orderSensitiveAccum(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return b.Info()&(types.IsFloat|types.IsComplex|types.IsString) != 0
}

func (p *Pass) isBuiltinAppend(c *ast.CallExpr) bool {
	id, ok := ast.Unparen(c.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := p.ObjectOf(id).(*types.Builtin)
	return isBuiltin
}

// sortedInFunc reports whether obj is handed to a sort.* / slices.Sort*
// call anywhere in fn — the collect-then-sort idiom that restores
// determinism after a map-order append.
func (p *Pass) sortedInFunc(fn ast.Node, obj types.Object) bool {
	if fn == nil || obj == nil {
		return false
	}
	sorted := false
	ast.Inspect(fn, func(n ast.Node) bool {
		if sorted {
			return false
		}
		c, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		pkg, name, isFn := p.calleePkgFunc(c)
		if !isFn {
			return true
		}
		isSort := (pkg == "sort") || (pkg == "slices" && strings.HasPrefix(name, "Sort"))
		if !isSort {
			return true
		}
		for _, arg := range c.Args {
			if id := rootIdent(arg); id != nil && p.ObjectOf(id) == obj {
				sorted = true
			}
		}
		return true
	})
	return sorted
}
