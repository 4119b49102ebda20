package analysis

import (
	"go/ast"
	"go/types"
)

// CtxFlow flags functions that receive a context.Context but reach for
// context.Background() or context.TODO() downstream. The serving contract
// (PR 2 onward) threads cancellation from the HTTP request through every
// pipeline stage — Plan, Allocate, Measure, Recover, Consist. A silent
// Background() breaks the chain, so work outlives the client, budget is
// charged for releases nobody receives, and shutdown drains hang on
// orphaned stages.
//
// Deliberate detachment (cleanup that must survive the request, lock
// handoff in single-flight) is allowed, but must be annotated:
//
//	//dpvet:ignore ctxflow -- <why this work must outlive the caller>
//
// The check applies to any function with a context.Context parameter,
// including closures nested inside one (goroutines launched by a handler
// inherit its obligation).
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "flag context.Background()/TODO() inside functions that already receive a context",
	Run:  runCtxFlow,
}

func runCtxFlow(p *Pass) error {
	inspectWithStack(p.Files, func(n ast.Node, stack []ast.Node) {
		c, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		name := p.contextDetachCall(c)
		if name == "" {
			return
		}
		if !p.enclosingFuncHasCtx(stack) {
			return
		}
		p.Reportf(c.Pos(), "context.%s() inside a function that receives a context.Context severs cancellation; thread the caller's ctx (or annotate the detachment with //dpvet:ignore ctxflow -- reason)", name)
	})
	return nil
}

func (p *Pass) contextDetachCall(c *ast.CallExpr) string {
	pkg, name, ok := p.calleePkgFunc(c)
	if !ok || pkg != "context" {
		return ""
	}
	if name == "Background" || name == "TODO" {
		return name
	}
	return ""
}

// enclosingFuncHasCtx reports whether any function on the stack (innermost
// FuncDecl or FuncLit outward) declares a context.Context parameter.
func (p *Pass) enclosingFuncHasCtx(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		var ft *ast.FuncType
		switch f := stack[i].(type) {
		case *ast.FuncDecl:
			ft = f.Type
		case *ast.FuncLit:
			ft = f.Type
		default:
			continue
		}
		if ft.Params == nil {
			continue
		}
		for _, field := range ft.Params.List {
			if p.isContextType(field.Type) {
				return true
			}
		}
	}
	return false
}

func (p *Pass) isContextType(e ast.Expr) bool {
	t := p.TypeOf(e)
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
