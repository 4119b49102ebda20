package analysis

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// KeyLeak tracks API-key values into log, format and error-body sinks.
// Keys are tenant credentials: the contract (PR 5/PR 8, pinned by the
// server's telemetry tests) is that every sink sees only the redactKey
// fingerprint, never the raw secret — any single tenant can read
// /v1/metrics and operator logs travel far beyond the key file.
//
// Taint is name-based (the suite's one deliberate heuristic): an
// identifier or selector field whose normalized name is "key"/"apikey"(s)
// or contains "apikey" — e.g. key, apiKey, kc.Key, cfg.APIKeys —
// with a string-shaped type. A value is sanitized by passing through any
// callee whose name contains "redact". Sinks are calls into fmt, log,
// log/slog (functions and methods, including attr constructors like
// slog.String) and net/http.Error.
//
// Scope: the layers that hold credentials (server, accountant, store,
// cmd/...). Packages whose "key" identifiers are cache hashes
// (engine, rescache) are excluded rather than suppressed file-by-file.
var KeyLeak = &Analyzer{
	Name: "keyleak",
	Doc:  "require redactKey fingerprints for API keys reaching fmt/slog/error sinks",
	Packages: []string{
		"internal/server", "internal/accountant", "internal/store",
		"cmd/...",
	},
	Run: runKeyLeak,
}

var keyNameRE = regexp.MustCompile(`^(key|keys|apikey|apikeys)$|apikey`)

func keyName(name string) bool {
	return keyNameRE.MatchString(strings.ReplaceAll(strings.ToLower(name), "_", ""))
}

func runKeyLeak(p *Pass) error {
	inspectWithStack(p.Files, func(n ast.Node, stack []ast.Node) {
		c, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		sink := p.keySinkName(c)
		if sink == "" {
			return
		}
		for _, arg := range c.Args {
			p.findTaintedKey(arg, func(e ast.Expr, name string) {
				p.Reportf(e.Pos(), "API key %s reaches %s; log or format only its redactKey fingerprint", name, sink)
			})
		}
	})
	return nil
}

// keySinkName classifies a call as a key-sensitive sink, returning a
// human-readable sink name ("" when not a sink).
func (p *Pass) keySinkName(c *ast.CallExpr) string {
	if pkg, name, ok := p.calleePkgFunc(c); ok {
		switch pkg {
		case "fmt", "log", "log/slog":
			return pkg + "." + name
		case "net/http":
			if name == "Error" {
				return "http.Error"
			}
		}
		return ""
	}
	// Methods on log/slog types (Logger.Info, Logger.LogAttrs, ...).
	sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	selection, ok := p.TypesInfo.Selections[sel]
	if !ok {
		return ""
	}
	fn, ok := selection.Obj().(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	switch fn.Pkg().Path() {
	case "log/slog", "log":
		return fn.Pkg().Path() + "." + fn.Name()
	}
	return ""
}

// findTaintedKey walks an argument expression reporting key-named string
// values, skipping subtrees sanitized by a redact call.
func (p *Pass) findTaintedKey(e ast.Expr, report func(ast.Expr, string)) {
	switch v := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		if strings.Contains(strings.ToLower(calleeName(v)), "redact") {
			return // sanitized
		}
		for _, arg := range v.Args {
			p.findTaintedKey(arg, report)
		}
	case *ast.Ident:
		if keyName(v.Name) && p.stringShaped(v) {
			report(v, v.Name)
		}
	case *ast.SelectorExpr:
		if keyName(v.Sel.Name) && p.stringShaped(v.Sel) {
			report(v, renderSelector(v))
		} else {
			p.findTaintedKey(v.X, report)
		}
	case *ast.BinaryExpr:
		p.findTaintedKey(v.X, report)
		p.findTaintedKey(v.Y, report)
	case *ast.IndexExpr:
		p.findTaintedKey(v.X, report)
		p.findTaintedKey(v.Index, report)
	case *ast.CompositeLit:
		for _, el := range v.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				p.findTaintedKey(kv.Value, report)
			} else {
				p.findTaintedKey(el, report)
			}
		}
	case *ast.UnaryExpr:
		p.findTaintedKey(v.X, report)
	case *ast.StarExpr:
		p.findTaintedKey(v.X, report)
	}
}

// stringShaped reports whether the identifier's type carries raw string
// material (string, []string, or map with string values).
func (p *Pass) stringShaped(id *ast.Ident) bool {
	obj := p.ObjectOf(id)
	if obj == nil {
		return false
	}
	return stringy(obj.Type())
}

func stringy(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&types.IsString != 0
	case *types.Slice:
		return stringy(u.Elem())
	case *types.Array:
		return stringy(u.Elem())
	case *types.Map:
		return stringy(u.Elem()) || stringy(u.Key())
	}
	return false
}

func renderSelector(s *ast.SelectorExpr) string {
	if id, ok := ast.Unparen(s.X).(*ast.Ident); ok {
		return id.Name + "." + s.Sel.Name
	}
	return s.Sel.Name
}
