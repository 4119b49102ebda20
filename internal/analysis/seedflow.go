package analysis

import (
	"go/ast"
	"go/token"
	"regexp"
	"strings"
)

// SeedFlow forbids ambient randomness in pipeline packages. The paper's
// accuracy accounting (and the engine's bit-identity across worker/shard
// counts) holds only because every draw is a pure function of
// (master seed, substream index) through noise.Source: a stray math/rand
// call gives each process its own stream, crypto/rand is irreproducible by
// construction, and a clock-derived seed changes per run.
//
// Flagged in scope packages:
//   - imports of math/rand, math/rand/v2 and crypto/rand (the sanctioned
//     wrapper is repro/internal/noise, which is itself out of scope);
//   - time.Now()-derived values flowing into seeds: used (possibly via
//     .Unix*/conversions/arithmetic) as an argument to a callee whose
//     name contains Seed/NewSource/NewSubstream, or assigned to an
//     identifier whose name contains "seed".
//
// Out of scope by design: internal/noise (the provider), internal/telemetry
// (request-ID generation is deliberately non-deterministic observability
// metadata), internal/dataset (test-data generators), cmd/ (load
// generators), and _test files everywhere (tests pin determinism through
// assertions, not through this lint).
var SeedFlow = &Analyzer{
	Name: "seedflow",
	Doc:  "forbid math/rand, crypto/rand and clock-derived seeds in pipeline packages",
	Packages: []string{
		"internal/engine", "internal/strategy", "internal/vector",
		"internal/consistency", "internal/transform", "internal/recovery",
		"internal/core", "internal/synth", "internal/rangequery",
		"internal/datacube", "internal/marginal", "internal/budget",
		"internal/bits", "internal/store",
		"internal/rescache", "internal/server", "internal/accountant",
		"internal/experiments",
	},
	Run: runSeedFlow,
}

var bannedRandImports = map[string]string{
	"math/rand":    "per-process stream breaks cross-process bit-identity",
	"math/rand/v2": "per-process stream breaks cross-process bit-identity",
	"crypto/rand":  "irreproducible by construction",
}

var seedCalleeRE = regexp.MustCompile(`(?i)seed|newsource|newsubstream`)
var seedNameRE = regexp.MustCompile(`(?i)seed`)

func runSeedFlow(p *Pass) error {
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if why, banned := bannedRandImports[path]; banned {
				p.Reportf(imp.Pos(), "import of %s in a pipeline package (%s); all randomness must flow through noise.Source substreams", path, why)
			}
		}
	}
	inspectWithStack(p.Files, func(n ast.Node, stack []ast.Node) {
		c, ok := n.(*ast.CallExpr)
		if !ok || !p.isTimeNow(c) {
			return
		}
		if sinkPos, desc := p.seedSink(c, stack); sinkPos.IsValid() {
			p.Reportf(sinkPos, "time.Now()-derived seed %s; seeds must be explicit configuration so runs are reproducible", desc)
		}
	})
	return nil
}

func (p *Pass) isTimeNow(c *ast.CallExpr) bool {
	sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Now" {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	return ok && p.usesPackage(id, "time")
}

// seedSink climbs from a time.Now() call through value-preserving wrappers
// (.Unix*/UnixNano methods, conversions, arithmetic, parens) and reports
// whether the resulting value feeds a seed: an argument to a seed-shaped
// callee, or an assignment to a seed-named identifier.
func (p *Pass) seedSink(c *ast.CallExpr, stack []ast.Node) (pos token.Pos, desc string) {
	var cur ast.Node = c
	for i := len(stack) - 1; i >= 0; i-- {
		parent := stack[i]
		switch pn := parent.(type) {
		case *ast.SelectorExpr, *ast.ParenExpr, *ast.BinaryExpr, *ast.UnaryExpr:
			cur = parent
			continue
		case *ast.CallExpr:
			// Is cur the callee chain (x.Unix() method / conversion) or an
			// argument?
			if containsNode(pn.Fun, cur) {
				cur = parent
				continue
			}
			name := calleeName(pn)
			if seedCalleeRE.MatchString(name) {
				return pn.Pos(), "passed to " + name
			}
			return 0, ""
		case *ast.AssignStmt:
			for j, rhs := range pn.Rhs {
				if containsNode(rhs, cur) && j < len(pn.Lhs) {
					if id := rootIdent(pn.Lhs[j]); id != nil && seedNameRE.MatchString(id.Name) {
						return pn.Pos(), "assigned to " + id.Name
					}
				}
			}
			return 0, ""
		case *ast.ValueSpec:
			for _, name := range pn.Names {
				if seedNameRE.MatchString(name.Name) {
					return pn.Pos(), "assigned to " + name.Name
				}
			}
			return 0, ""
		case *ast.KeyValueExpr:
			if id, ok := pn.Key.(*ast.Ident); ok && seedNameRE.MatchString(id.Name) {
				return pn.Pos(), "assigned to field " + id.Name
			}
			return 0, ""
		default:
			return 0, ""
		}
	}
	return 0, ""
}

func containsNode(root ast.Node, target ast.Node) bool {
	if root == nil {
		return false
	}
	return root.Pos() <= target.Pos() && target.End() <= root.End()
}
