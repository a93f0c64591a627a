// Package tracepropagation keeps the distributed-tracing tier honest: a
// span tree is only as complete as its weakest hop, and a single call site
// that drops the 16-byte context silently truncates every trace that flows
// through it. Two rules, both scoped to code where a trace value is
// actually present so untraced fast paths stay untouched:
//
//   - A trace.Context parameter that is never used is a dropped context:
//     the caller paid to propagate it and this function silently discards
//     it. Rename the parameter to _ (an explicit drop) or thread it.
//   - A span returned by Start/StartChild/StartForced must reach a sink:
//     a Finish/FinishForced call, a return, or a handoff as a call
//     argument. A discarded span is recorded as begun and never completed,
//     which reads as a lost hop in every trace it belongs to.
//
// Deliberately untraced paths (bulk replication, background loops) never
// materialize a trace value, so they are out of scope by construction. The
// trace package itself is exempt: it is the machinery these rules protect.
package tracepropagation

import (
	"go/ast"
	"go/types"
	"strings"

	"mccuckoo/internal/analysis"
)

// Analyzer is the tracepropagation check.
var Analyzer = &analysis.Analyzer{
	Name: "tracepropagation",
	Doc:  "trace context parameters must be used and spans must reach Finish",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if strings.HasSuffix(pass.Pkg.Path(), "telemetry/trace") {
		return nil // the trace package is the machinery, not a consumer
	}
	for _, file := range pass.Files {
		parents := parentMap(file)
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkDroppedParams(pass, fn)
			checkSpanSinks(pass, fn, parents)
		}
	}
	return nil
}

// checkDroppedParams flags named trace.Context parameters that the body
// never reads.
func checkDroppedParams(pass *analysis.Pass, fn *ast.FuncDecl) {
	for _, field := range fn.Type.Params.List {
		t := pass.TypesInfo.TypeOf(field.Type)
		if !isTraceType(t, "Context") {
			continue
		}
		for _, name := range field.Names {
			if name.Name == "_" {
				continue // explicit drop
			}
			obj := pass.TypesInfo.ObjectOf(name)
			if obj == nil || usedIn(pass, fn.Body, obj) {
				continue
			}
			pass.Reportf(name.Pos(), "trace context parameter %s is never used: thread it into the outbound calls or rename it to _ as an explicit drop", name.Name)
		}
	}
}

// checkSpanSinks flags spans that never reach a Finish, return, or
// handoff.
func checkSpanSinks(pass *analysis.Pass, fn *ast.FuncDecl, parents map[ast.Node]ast.Node) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if t := pass.TypesInfo.TypeOf(call); !isTraceType(t, "Span") {
			return true
		}
		parent := parents[call]
		for {
			p, ok := parent.(*ast.ParenExpr)
			if !ok {
				break
			}
			parent = parents[p]
		}
		switch p := parent.(type) {
		case *ast.ExprStmt:
			pass.Reportf(call.Pos(), "span result of %s is discarded; it never reaches Finish", analysis.ExprString(call.Fun))
		case *ast.AssignStmt:
			obj := assignTarget(pass, p, call)
			if obj == nil {
				return true // multi-value or non-ident target: out of reach
			}
			scope := enclosingFunc(parents, call)
			if scope == nil || spanConsumed(pass, scope, obj) {
				return true
			}
			pass.Reportf(call.Pos(), "span %s is never finished or handed off; call Finish/FinishForced, return it, or pass it on", obj.Name())
		}
		return true
	})
}

// assignTarget resolves which lhs ident receives the span from a
// single-value assignment; nil when the shape is out of reach.
func assignTarget(pass *analysis.Pass, assign *ast.AssignStmt, call *ast.CallExpr) types.Object {
	if len(assign.Lhs) != len(assign.Rhs) {
		return nil
	}
	for i, rhs := range assign.Rhs {
		if unparen(rhs) != call {
			continue
		}
		if id, ok := assign.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
			return pass.TypesInfo.ObjectOf(id)
		}
	}
	return nil
}

// spanConsumed reports whether obj's span reaches a sink inside body: a
// Finish/FinishForced call, a return, or use as a call argument.
func spanConsumed(pass *analysis.Pass, body ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := unparen(n.Fun).(*ast.SelectorExpr); ok {
				if id, ok := unparen(sel.X).(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj &&
					(sel.Sel.Name == "Finish" || sel.Sel.Name == "FinishForced") {
					found = true
				}
			}
			for _, arg := range n.Args {
				if id, ok := unparen(arg).(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
					found = true
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if id, ok := unparen(r).(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
					found = true
				}
			}
		}
		return true
	})
	return found
}

// enclosingFunc walks up to the nearest function literal or declaration
// body containing n.
func enclosingFunc(parents map[ast.Node]ast.Node, n ast.Node) ast.Node {
	for p := parents[n]; p != nil; p = parents[p] {
		switch p := p.(type) {
		case *ast.FuncLit:
			return p.Body
		case *ast.FuncDecl:
			return p.Body
		}
	}
	return nil
}

// parentMap records each node's parent within file.
func parentMap(file *ast.File) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// usedIn reports whether body reads obj.
func usedIn(pass *analysis.Pass, body ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
			found = true
		}
		return true
	})
	return found
}

// isTraceType reports whether t is the named type telemetry/trace.<name>,
// through one level of pointer.
func isTraceType(t types.Type, name string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path(), "telemetry/trace")
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
