// Package metriclint enforces the Prometheus naming contract over every
// exposition writer in the repo. The serving binaries merge several
// writers into one /metrics endpoint (telemetry.MergedHandler), so a
// misnamed or colliding series is not a local bug — it corrupts the one
// scrape surface dashboards and alerts are built on. The contract:
//
//   - every series name is mccuckoo_-prefixed lowercase snake_case
//   - counters end in _total
//   - histograms end in _seconds (a dimensionless histogram is legal but
//     must carry an //mcvet:allow metriclint naming its unit-free nature)
//   - a name is declared by exactly one writer across all packages in the
//     run — MergedHandler writers must not share series
//
// The exporters are telemetry.PromWriter calls, not a registry, so
// declarations are recognized syntactically: a call or composite-literal
// row that carries both a name-shaped string constant and a Prometheus
// type constant ("counter"/"gauge"/"histogram") declares that series; a
// call whose in-package callee (function, method, or closure) embeds a
// literal `# TYPE %s <type>` format declares the name at the call site
// with the callee's type; rows inside a function with a single such
// format literal inherit its type (the struct-table idiom). Names the
// recognizer sees but cannot type are still checked for prefix and
// snake_case. Unique-name state is keyed per FileSet, so one driver run
// sees all packages while independent test runs stay isolated.
package metriclint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"strings"
	"sync"

	"mccuckoo/internal/analysis"
)

// Analyzer is the metriclint check.
var Analyzer = &analysis.Analyzer{
	Name: "metriclint",
	Doc:  "Prometheus series names: mccuckoo_ prefix, snake_case, counters _total, histograms _seconds, unique across writers",
	Run:  run,
}

var nameShape = regexp.MustCompile(`^[A-Za-z][A-Za-z0-9_]*_[A-Za-z0-9_]*$`)

var wellFormed = regexp.MustCompile(`^mccuckoo(_[a-z0-9]+)+$`)

var typeWords = map[string]bool{"counter": true, "gauge": true, "histogram": true, "summary": true, "untyped": true}

// typeLine matches a literal `# TYPE %s <type>` inside a format string,
// the shape every ad-hoc exposition helper in the repo uses.
var typeLine = regexp.MustCompile(`# TYPE %s (counter|gauge|histogram|summary)`)

// declared records, per FileSet (= per driver run), where each series name
// was first declared, so cross-package collisions surface exactly once.
var (
	declaredMu sync.Mutex
	declared   = make(map[*token.FileSet]map[string]token.Position)
)

type decl struct {
	name string
	typ  string // "" when the recognizer could not type the declaration
	pos  token.Pos
}

func run(pass *analysis.Pass) error {
	closures := closureBodies(pass)
	var decls []decl
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			decls = append(decls, collectFunc(pass, fn, closures)...)
		}
	}

	declaredMu.Lock()
	defer declaredMu.Unlock()
	seen := declared[pass.Fset]
	if seen == nil {
		seen = make(map[string]token.Position)
		declared[pass.Fset] = seen
	}
	for _, d := range decls {
		if !wellFormed.MatchString(d.name) {
			pass.Reportf(d.pos, "metric %q is not mccuckoo_-prefixed lowercase snake_case", d.name)
			continue
		}
		switch d.typ {
		case "counter":
			if !strings.HasSuffix(d.name, "_total") {
				pass.Reportf(d.pos, "counter %q must end in _total", d.name)
			}
		case "gauge":
			if strings.HasSuffix(d.name, "_total") {
				pass.Reportf(d.pos, "gauge %q must not claim the counter suffix _total", d.name)
			}
		case "histogram":
			if !strings.HasSuffix(d.name, "_seconds") {
				pass.Reportf(d.pos, "histogram %q must end in _seconds (durations) or be allowed as dimensionless", d.name)
			}
		}
		if d.typ == "" {
			continue // a reference, not a declaration: no uniqueness claim
		}
		if prev, dup := seen[d.name]; dup {
			pass.Reportf(d.pos, "metric %q already declared at %s; MergedHandler writers must not share series names", d.name, prev)
			continue
		}
		seen[d.name] = pass.Fset.Position(d.pos)
	}
	return nil
}

// collectFunc gathers metric declarations from one function body.
func collectFunc(pass *analysis.Pass, fn *ast.FuncDecl, closures map[types.Object]*ast.FuncLit) []decl {
	var out []decl
	var untyped []decl // rows awaiting the function-level TYPE fallback
	funcTyp := functionTypeLiteral(fn)

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			row := rowStrings(pass, n.Args)
			if row.typ == "" {
				row.typ = calleeType(pass, n, closures)
			}
			for _, nm := range row.names(row.typ != "") {
				out = append(out, decl{nm.name, row.typ, nm.pos})
			}
		case *ast.CompositeLit:
			row := rowStrings(pass, n.Elts)
			typ := row.typ
			if typ == "" {
				typ = funcTyp
			}
			for _, nm := range row.names(row.typ != "") {
				if typ == "" {
					untyped = append(untyped, decl{nm.name, "", nm.pos})
				} else {
					out = append(out, decl{nm.name, typ, nm.pos})
				}
			}
		}
		return true
	})
	return append(out, untyped...)
}

type namePos struct {
	name string
	pos  token.Pos
}

// row is one call's arguments or one composite-literal row, reduced to its
// metric-name candidates and Prometheus type constant.
type row struct {
	prefixed []namePos // mccuckoo-claiming names: candidates everywhere
	shaped   []namePos // other snake_case words: candidates only next to a type constant
	typ      string
}

// names returns the row's metric-name candidates. Only a row anchored by a
// type constant may claim arbitrary snake_case strings as names (catching
// wrong-prefix declarations); elsewhere a string must claim the mccuckoo
// prefix to count, so ordinary snake_case literals in unrelated calls are
// never misread as series.
func (r row) names(anchored bool) []namePos {
	if anchored {
		return append(append([]namePos(nil), r.prefixed...), r.shaped...)
	}
	return r.prefixed
}

// rowStrings scans one row's string constants. Duplicate mentions of the
// same name within a row (the HELP and TYPE lines of one header call)
// collapse to one declaration.
func rowStrings(pass *analysis.Pass, exprs []ast.Expr) row {
	var r row
	seen := make(map[string]bool)
	for _, e := range exprs {
		s, ok := stringConst(pass, e)
		if !ok {
			continue
		}
		if typeWords[s] {
			r.typ = s
			continue
		}
		if !nameShape.MatchString(s) || seen[s] {
			continue
		}
		seen[s] = true
		if strings.HasPrefix(strings.ToLower(s), "mccuckoo") {
			r.prefixed = append(r.prefixed, namePos{s, e.Pos()})
		} else {
			r.shaped = append(r.shaped, namePos{s, e.Pos()})
		}
	}
	return r
}

// calleeType resolves a call's metric type from its callee: an in-package
// function, method, or closure whose body embeds a literal
// `# TYPE %s <type>`.
func calleeType(pass *analysis.Pass, call *ast.CallExpr, closures map[types.Object]*ast.FuncLit) string {
	var body ast.Node
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj := pass.TypesInfo.ObjectOf(fun)
		if lit := closures[obj]; lit != nil {
			body = lit.Body
		} else if decl := funcDeclOf(pass, obj); decl != nil {
			body = decl.Body
		}
	case *ast.SelectorExpr:
		if decl := funcDeclOf(pass, pass.TypesInfo.ObjectOf(fun.Sel)); decl != nil {
			body = decl.Body
		}
	}
	if body == nil {
		return ""
	}
	typ := ""
	ast.Inspect(body, func(n ast.Node) bool {
		lit, ok := n.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		if m := typeLine.FindStringSubmatch(lit.Value); m != nil {
			typ = m[1]
		}
		return true
	})
	return typ
}

// functionTypeLiteral finds the single literal `# TYPE %s <type>` of a
// function body, for the struct-table idiom where rows carry names and one
// shared Fprintf carries the type. Ambiguous bodies return "".
func functionTypeLiteral(fn *ast.FuncDecl) string {
	typ := ""
	ambiguous := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		lit, ok := n.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		if m := typeLine.FindStringSubmatch(lit.Value); m != nil {
			if typ != "" && typ != m[1] {
				ambiguous = true
			}
			typ = m[1]
		}
		return true
	})
	if ambiguous {
		return ""
	}
	return typ
}

// funcDeclOf finds the in-package declaration of obj, or nil.
func funcDeclOf(pass *analysis.Pass, obj types.Object) *ast.FuncDecl {
	if obj == nil {
		return nil
	}
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && pass.TypesInfo.ObjectOf(fd.Name) == obj {
				return fd
			}
		}
	}
	return nil
}

// closureBodies maps local variables to the function literals assigned to
// them, so `simple := func(name, help string, ...)` helpers resolve.
func closureBodies(pass *analysis.Pass) map[types.Object]*ast.FuncLit {
	out := make(map[types.Object]*ast.FuncLit)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			assign, ok := n.(*ast.AssignStmt)
			if !ok || len(assign.Lhs) != len(assign.Rhs) {
				return true
			}
			for i, lhs := range assign.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				if lit, ok := assign.Rhs[i].(*ast.FuncLit); ok {
					if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
						out[obj] = lit
					}
				}
			}
			return true
		})
	}
	return out
}

// stringConst resolves e to a constant string value.
func stringConst(pass *analysis.Pass, e ast.Expr) (string, bool) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
