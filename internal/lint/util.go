package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Import paths of the packages whose contracts the suite encodes.
const (
	mpiPath    = "repro/internal/mpi"
	dgraphPath = "repro/internal/dgraph"
	parPath    = "repro/internal/par"
	wirePath   = "repro/internal/wire"
	rngPath    = "repro/internal/rng"
)

// parWorkerArg maps the internal/par entry points that run a
// caller-supplied body on worker goroutines to the index of that
// worker function-literal argument.
var parWorkerArg = map[callee]int{
	{parPath, "", "For"}:               3,
	{parPath, "", "ForChunk"}:          3,
	{parPath, "", "ReduceInt64"}:       3,
	{parPath, "", "MaxInt64"}:          4,
	{parPath, "", "MaxFloat64"}:        4,
	{parPath, "", "SumFloat64Ordered"}: 4,
}

// callee identifies a resolved call target: the defining package path,
// the receiver's named-type name ("" for package-level functions), and
// the function name.
type callee struct {
	pkg  string
	recv string
	name string
}

// calleeOf resolves a call expression to its target, or ok=false for
// builtins, conversions, and calls the type info cannot resolve. It
// names the function calleeFunc resolves, for the analyzers' callee
// tables.
func calleeOf(info *types.Info, call *ast.CallExpr) (callee, bool) {
	fn := calleeFunc(info, call.Fun)
	if fn == nil {
		return callee{}, false
	}
	c := callee{name: fn.Name()}
	if fn.Pkg() != nil {
		c.pkg = fn.Pkg().Path()
	}
	if recv := fn.Signature().Recv(); recv != nil {
		if named := namedOf(recv.Type()); named != nil {
			c.recv = named.Obj().Name()
		}
	}
	return c, true
}

// qualName is the callee's name as diagnostics print it: "Recv.Name"
// for methods, "Name" for package-level functions.
func (c callee) qualName() string {
	if c.recv != "" {
		return c.recv + "." + c.name
	}
	return c.name
}

// calleeFunc resolves a function expression — a call's Fun, or a
// function value such as the method handed to sync.Once.Do — to the
// *types.Func it names, seeing through parentheses and explicit
// generic instantiation (mpi.Allreduce[float64]). It returns nil for
// builtins, conversions, function literals, and function variables.
// The interprocedural layer keys its call graph on the result.
func calleeFunc(info *types.Info, fun ast.Expr) *types.Func {
	fun = ast.Unparen(fun)
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}
	var obj types.Object
	switch f := fun.(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[f]; ok {
			obj = sel.Obj()
		} else {
			obj = info.Uses[f.Sel] // package-qualified identifier
		}
	case *ast.Ident:
		obj = info.Uses[f]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// namedOf unwraps pointers down to a named type, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt
		default:
			return nil
		}
	}
}

// recvString renders the receiver expression of a method call ("ex",
// "e.ex", "waves[slot]") so calls on the same value can be correlated
// textually within one function.
func recvString(call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	return exprString(sel.X)
}

// exprString is a compact, parenthesis-free rendering of simple
// expressions, used only for textual correlation — two equal strings
// mean "same value" for the function-local heuristics.
func exprString(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprString(x.X) + "[" + exprString(x.Index) + "]"
	case *ast.StarExpr:
		return "*" + exprString(x.X)
	case *ast.BasicLit:
		return x.Value
	case *ast.CallExpr:
		return exprString(x.Fun) + "()"
	case *ast.UnaryExpr:
		return x.Op.String() + exprString(x.X)
	default:
		return "?"
	}
}

// funcDecls returns every function declaration of the files that has
// a body. Function literals are analyzed as part of their enclosing
// declaration: the analyzers' heuristics are function-local, and
// splitting a closure from the code that flushes or closes what it
// began would manufacture false positives.
func funcDecls(files []*ast.File) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, fd)
			}
		}
	}
	return out
}

// hasDirective reports whether the declaration's doc comment carries
// the given //-directive (e.g. "//repro:hotpath").
func hasDirective(fd *ast.FuncDecl, directive string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == directive {
			return true
		}
	}
	return false
}

// objOf resolves an identifier to its object via Uses or Defs.
func objOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// CallGraph is the per-package call graph behind the interprocedural
// analyses: for every function declared in the package it records the
// same-package functions it calls directly. Calls through function
// values, interfaces, and other packages are not edges — the analyses
// that consume the graph treat those conservatively at the call site.
type CallGraph struct {
	funcs   []*types.Func // in declaration source order, for stable reports
	decls   map[*types.Func]*ast.FuncDecl
	callees map[*types.Func][]*types.Func
}

// maxHelperDepth bounds cross-function propagation: a property (a
// collective performed, a wall-clock read, an allocation) is visible
// through at most this many nested same-package helper calls. The
// bound keeps the analyses linear and the diagnostics explainable; a
// helper chain deeper than this is its own code smell.
const maxHelperDepth = 4

// buildCallGraph indexes one package's declared functions and their
// direct same-package call edges, in source order, deduplicated.
func buildCallGraph(pkg *Package) *CallGraph {
	g := &CallGraph{
		decls:   map[*types.Func]*ast.FuncDecl{},
		callees: map[*types.Func][]*types.Func{},
	}
	for _, decl := range funcDecls(pkg.Files) {
		if fn, ok := pkg.Info.Defs[decl.Name].(*types.Func); ok {
			g.funcs = append(g.funcs, fn)
			g.decls[fn] = decl
		}
	}
	for fn, decl := range g.decls {
		seen := map[*types.Func]bool{}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(pkg.Info, call.Fun)
			if callee == nil || seen[callee] {
				return true
			}
			if _, local := g.decls[callee]; local {
				seen[callee] = true
				g.callees[fn] = append(g.callees[fn], callee)
			}
			return true
		})
	}
	return g
}

// DeclOf returns the declaration of a package function, or nil for
// functions declared elsewhere.
func (g *CallGraph) DeclOf(fn *types.Func) *ast.FuncDecl {
	if g == nil {
		return nil
	}
	return g.decls[fn]
}

// Callees returns fn's direct same-package callees.
func (g *CallGraph) Callees(fn *types.Func) []*types.Func {
	if g == nil {
		return nil
	}
	return g.callees[fn]
}

// propagate computes, for every package function, whether it reaches a
// function satisfying seed within maxHelperDepth call-graph hops. The
// returned map carries, per reaching function, the first hop of one
// witness path ("" for functions satisfying seed directly) — enough to
// name the helper in a diagnostic without storing whole paths.
func (g *CallGraph) propagate(seed func(fn *types.Func, decl *ast.FuncDecl) bool) map[*types.Func]*types.Func {
	reach := map[*types.Func]*types.Func{}
	for _, fn := range g.funcs {
		if seed(fn, g.decls[fn]) {
			reach[fn] = nil
		}
	}
	for depth := 0; depth < maxHelperDepth; depth++ {
		changed := false
		for _, fn := range g.funcs {
			if _, done := reach[fn]; done {
				continue
			}
			for _, callee := range g.callees[fn] {
				if _, hit := reach[callee]; hit {
					reach[fn] = callee
					changed = true
					break
				}
			}
		}
		if !changed {
			break
		}
	}
	return reach
}

// surfaceDirective marks a function as part of the deterministic
// surface: its results are bound by the repo's bit-identity contract
// (across ranks, threads, substrates, and runs at fixed seeds).
// timingDirective allowlists a surface function's wall-clock reads as
// instrumentation-only (they feed Time/SweepTime report fields, never
// values).
const (
	surfaceDirective = "//repro:deterministic"
	timingDirective  = "//repro:timing"
)

// deterministicSurface returns every function on the package's
// deterministic surface: those annotated //repro:deterministic plus
// everything reachable from one within maxHelperDepth same-package
// calls. The map value is the annotated root a function inherits the
// obligation from (itself when directly annotated).
func deterministicSurface(pass *Pass) map[*types.Func]*types.Func {
	roots := map[*types.Func]bool{}
	for fn, decl := range pass.Graph.decls {
		if hasDirective(decl, surfaceDirective) {
			roots[fn] = true
		}
	}
	if len(roots) == 0 {
		return nil
	}
	surface := map[*types.Func]*types.Func{}
	var visit func(fn, root *types.Func, depth int)
	visit = func(fn, root *types.Func, depth int) {
		if _, seen := surface[fn]; seen {
			return
		}
		surface[fn] = root
		if depth >= maxHelperDepth {
			return
		}
		for _, callee := range pass.Graph.Callees(fn) {
			visit(callee, root, depth+1)
		}
	}
	for _, fn := range pass.Graph.funcs {
		if roots[fn] {
			visit(fn, fn, 0)
		}
	}
	return surface
}

// isBlank reports whether an expression is the blank identifier.
func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}
