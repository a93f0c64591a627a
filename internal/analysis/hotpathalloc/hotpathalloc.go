// Package hotpathalloc checks that functions annotated //mcvet:hotpath
// contain no heap-allocation sites. The disabled-telemetry per-op paths
// (Insert/Lookup/Delete, locateCopies, the shard batched paths)
// are contractually zero-alloc — PR 3 fixed a locateCopies heap escape that
// a runtime assertion (TestDisabledPathZeroAlloc) now guards; this analyzer
// catches the same regression class at CI time, before a benchmark ever
// runs, and in paths the runtime test does not sample.
//
// Flagged inside hot-path functions:
//
//   - make, new, and &T{} composite-literal escapes
//   - slice or map composite literals
//   - append, unless the destination provably derives from a fixed-size
//     array (the caller-stack-buffer idiom: tables := append(buf[:0], ...))
//   - calls into package fmt, and any call through a variadic ...interface
//     parameter (the argument slice allocates)
//   - interface boxing: passing or converting a non-pointer-shaped,
//     non-constant value to an interface type
//   - closures (func literals) and go statements
//   - string concatenation and string<->[]byte conversions
//
// Arguments feeding a panic call are exempt — that is the crash path.
// Intentional allocations (e.g. a sync.Pool miss growing its buffer) are
// annotated //mcvet:allow hotpathalloc <reason>.
package hotpathalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"mccuckoo/internal/analysis"
)

// Analyzer is the hotpathalloc check.
var Analyzer = &analysis.Analyzer{
	Name: "hotpathalloc",
	Doc:  "no heap allocations in //mcvet:hotpath functions",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !pass.Dirs.FuncHas(fn, "hotpath") {
				continue
			}
			c := &checker{pass: pass, arrayBacked: arrayBackedVars(pass, fn)}
			c.walk(fn.Body)
		}
	}
	return nil
}

type checker struct {
	pass        *analysis.Pass
	arrayBacked map[types.Object]bool
}

// walk visits the function body, skipping the arguments of panic calls
// (allocation on the crash path is moot — the program is going down).
func (c *checker) walk(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isBuiltin(c.pass, n.Fun, "panic") {
				return false
			}
			c.checkCall(n)
		case *ast.FuncLit:
			c.pass.Reportf(n.Pos(), "closure allocates in hot path")
			return false
		case *ast.GoStmt:
			c.pass.Reportf(n.Pos(), "go statement allocates a goroutine in hot path")
		case *ast.CompositeLit:
			switch c.typeOf(n).Underlying().(type) {
			case *types.Slice:
				c.pass.Reportf(n.Pos(), "slice literal allocates in hot path")
			case *types.Map:
				c.pass.Reportf(n.Pos(), "map literal allocates in hot path")
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, lit := n.X.(*ast.CompositeLit); lit {
					c.pass.Reportf(n.Pos(), "&composite literal escapes to the heap in hot path")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if b, ok := c.typeOf(n).Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
					c.pass.Reportf(n.Pos(), "string concatenation allocates in hot path")
				}
			}
		}
		return true
	})
}

func (c *checker) checkCall(call *ast.CallExpr) {
	switch {
	case isBuiltin(c.pass, call.Fun, "make"):
		c.pass.Reportf(call.Pos(), "make allocates in hot path")
		return
	case isBuiltin(c.pass, call.Fun, "new"):
		c.pass.Reportf(call.Pos(), "new allocates in hot path")
		return
	case isBuiltin(c.pass, call.Fun, "append"):
		if len(call.Args) > 0 && !c.isArrayBacked(call.Args[0]) {
			c.pass.Reportf(call.Pos(), "append may grow and allocate in hot path (destination is not a fixed-size array buffer)")
		}
		return
	}

	tv, ok := c.pass.TypesInfo.Types[call.Fun]
	if !ok {
		return
	}
	if tv.IsType() {
		// Conversion. Interface targets box; string<->[]byte copies.
		c.checkConversion(call, tv.Type)
		return
	}
	if pkgOf(c.pass, call.Fun) == "fmt" {
		c.pass.Reportf(call.Pos(), "fmt call allocates in hot path")
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	c.checkBoxing(call, sig)
}

// checkBoxing flags arguments whose passage converts a concrete value to an
// interface parameter. Pointer-shaped values (pointers, maps, chans, funcs)
// fit the interface data word and do not allocate; constants are materialized
// in static data by the compiler.
func (c *checker) checkBoxing(call *ast.CallExpr, sig *types.Signature) {
	params := sig.Params()
	if params == nil {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			last := params.At(params.Len() - 1).Type()
			sl, ok := last.(*types.Slice)
			if !ok {
				continue
			}
			pt = sl.Elem()
			if types.IsInterface(pt) && !isEllipsisCall(call) {
				c.pass.Reportf(arg.Pos(), "variadic interface argument allocates in hot path")
				continue
			}
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		c.checkBoxedValue(arg)
	}
}

func (c *checker) checkConversion(call *ast.CallExpr, target types.Type) {
	if len(call.Args) != 1 {
		return
	}
	arg := call.Args[0]
	if types.IsInterface(target.Underlying()) {
		c.checkBoxedValue(arg)
		return
	}
	from := c.typeOf(arg)
	if isString(target) && isByteSlice(from) || isByteSlice(target) && isString(from) {
		c.pass.Reportf(call.Pos(), "string/[]byte conversion copies and allocates in hot path")
	}
}

func (c *checker) checkBoxedValue(arg ast.Expr) {
	tv := c.pass.TypesInfo.Types[arg]
	if tv.Value != nil || tv.IsNil() {
		return // constants and nil live in static data
	}
	if tv.Type == nil || types.IsInterface(tv.Type) || pointerShaped(tv.Type) {
		return
	}
	c.pass.Reportf(arg.Pos(), "interface conversion of %s boxes and allocates in hot path", tv.Type)
}

// isArrayBacked reports whether expr is a slice that provably aliases a
// fixed-size array: a slice expression over an array (or pointer to array),
// an append whose destination is array-backed, or a local variable assigned
// only such values. Appending into one cannot observably grow — the
// geometry bounds (d <= hashutil.MaxD) keep it within capacity, which the
// table's own panics enforce at runtime.
func (c *checker) isArrayBacked(expr ast.Expr) bool {
	switch e := expr.(type) {
	case *ast.SliceExpr:
		t := c.typeOf(e.X)
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		_, isArray := t.Underlying().(*types.Array)
		return isArray
	case *ast.CallExpr:
		return isBuiltin(c.pass, e.Fun, "append") && len(e.Args) > 0 && c.isArrayBacked(e.Args[0])
	case *ast.Ident:
		return c.arrayBacked[c.pass.TypesInfo.ObjectOf(e)]
	case *ast.ParenExpr:
		return c.isArrayBacked(e.X)
	}
	return false
}

// arrayBackedVars computes the local variables of fn that only ever hold
// array-backed slices, by fixpoint over the function's assignments.
func arrayBackedVars(pass *analysis.Pass, fn *ast.FuncDecl) map[types.Object]bool {
	c := &checker{pass: pass, arrayBacked: make(map[types.Object]bool)}
	poisoned := make(map[types.Object]bool)
	for changed := true; changed; {
		changed = false
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			assign, ok := n.(*ast.AssignStmt)
			if !ok || len(assign.Lhs) != len(assign.Rhs) {
				return true
			}
			for i, lhs := range assign.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.TypesInfo.ObjectOf(id)
				if obj == nil {
					continue
				}
				if _, isSlice := c.typeOf(id).Underlying().(*types.Slice); !isSlice {
					continue
				}
				if c.isArrayBacked(assign.Rhs[i]) {
					if !poisoned[obj] && !c.arrayBacked[obj] {
						c.arrayBacked[obj] = true
						changed = true
					}
				} else {
					if !poisoned[obj] {
						poisoned[obj] = true
						delete(c.arrayBacked, obj)
						changed = true
					}
				}
			}
			return true
		})
	}
	return c.arrayBacked
}

func (c *checker) typeOf(e ast.Expr) types.Type {
	t := c.pass.TypesInfo.TypeOf(e)
	if t == nil {
		return types.Typ[types.Invalid]
	}
	return t
}

func isBuiltin(pass *analysis.Pass, fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isBuiltin := pass.TypesInfo.ObjectOf(id).(*types.Builtin)
	return isBuiltin
}

// pkgOf returns the package path of the function a call selector resolves
// to, or "" when it is not a package-level selector.
func pkgOf(pass *analysis.Pass, fun ast.Expr) string {
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pkgName, ok := pass.TypesInfo.ObjectOf(id).(*types.PkgName)
	if !ok {
		return ""
	}
	return pkgName.Imported().Path()
}

func isEllipsisCall(call *ast.CallExpr) bool { return call.Ellipsis.IsValid() }

// pointerShaped reports whether values of t occupy exactly the interface
// data word, so boxing them stores the value directly with no allocation.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}
