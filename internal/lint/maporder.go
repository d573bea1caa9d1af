package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MapOrder flags values whose ordering (or whose value) is derived
// from Go's randomized map iteration order and flows into a sink where
// that order becomes observable across ranks or runs:
//
//   - wire frames and point-to-point sends (wire.AppendFrame,
//     mpi.Isend64*, mpi.Send64, mpi.AppendTally) emitted per map
//     entry: frame contents and order become per-process random;
//   - float accumulation in map order: FP addition is not
//     associative, so the fold's result depends on iteration order;
//   - sequences built by appending (or cursor-advancing stores) under
//     map iteration that then reach a wire sink, a collective payload,
//     a Report/Result field, or a return — unless a sort
//     re-establishes a deterministic order first;
//   - rank-local map counts (len of a map) flowing into Report/Result
//     fields — the exact PR 5 LabelProp bug, where each rank reported
//     its own distinct-community count and the ranks disagreed.
//
// Deterministic idioms stay clean: plain-indexed stores under map
// iteration (gid-indexed scatter — each key owns its slot, so order
// does not matter), commutative integer accumulation, and sequences
// sorted before use.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "map-iteration-order-derived values must not reach wire frames, float folds, or report fields without a deterministic reordering",
	Run:  runMapOrder,
}

// wireSinkFuncs are the calls that serialize their arguments toward
// another rank (or an artifact) in argument order: anything reaching
// them under map iteration makes the wire nondeterministic.
var wireSinkFuncs = map[callee]bool{
	{wirePath, "", "AppendFrame"}: true,
	{mpiPath, "", "Isend64"}:      true,
	{mpiPath, "", "Isend64Tag"}:   true,
	{mpiPath, "", "Send64"}:       true,
	{mpiPath, "", "AppendTally"}:  true,
}

// collectivePayloadFuncs carry a payload slice whose element order is
// observable by the receiving ranks.
var collectivePayloadFuncs = map[callee]bool{
	{mpiPath, "", "Alltoallv"}:                    true,
	{mpiPath, "", "Allgatherv"}:                   true,
	{mpiPath, "", "Bcast"}:                        true,
	{mpiPath, "", "Allreduce"}:                    true,
	{dgraphPath, "DeltaExchanger", "Begin"}:       true,
	{dgraphPath, "DeltaExchanger", "BeginTally"}:  true,
	{dgraphPath, "DeltaExchanger", "BeginValues"}: true,
	{dgraphPath, "DeltaExchanger", "BeginPush"}:   true,
}

// reportType returns the name of e's type when it is a results
// container — per-run values every rank (and every run at fixed seeds)
// must agree on — and "" otherwise.
func reportType(info *types.Info, e ast.Expr) string {
	named := namedOf(info.TypeOf(e))
	if named == nil {
		return ""
	}
	name := named.Obj().Name()
	if strings.HasSuffix(name, "Report") || strings.HasSuffix(name, "Result") {
		return name
	}
	return ""
}

func runMapOrder(pass *Pass) {
	// The wire and mpi packages implement the framing; inside them the
	// sink calls are the plumbing itself.
	base := strings.TrimSuffix(pass.Pkg.Path(), "-test")
	if base == mpiPath || base == wirePath {
		return
	}
	// Interprocedural: a same-package helper that (transitively) calls
	// a wire sink makes calls to it sinks too.
	sinkHelpers := pass.Graph.propagate(func(_ *types.Func, decl *ast.FuncDecl) bool {
		_, found := findCall(pass.Info, decl.Body, wireSinkFuncs)
		return found
	})
	for _, decl := range funcDecls(pass.Files) {
		checkMapOrder(pass, decl, sinkHelpers)
		checkMapCountReport(pass, decl)
	}
}

func checkMapOrder(pass *Pass, fd *ast.FuncDecl, sinkHelpers map[*types.Func]*types.Func) {
	info := pass.Info

	// tainted tracks slices built in map order (per function, keyed by
	// the receiver-expression string): append targets and
	// cursor-advancing stores under a map range. A sort over the slice
	// clears the taint; a sink use reports it.
	tainted := map[string]token.Pos{}

	// incremented collects the exprString of every operand of ++/+= in
	// a subtree: an indexed store whose index mentions one of these is
	// a cursor-advancing store — order-dependent, unlike a gid-indexed
	// scatter.
	incremented := func(n ast.Node) map[string]bool {
		out := map[string]bool{}
		ast.Inspect(n, func(m ast.Node) bool {
			switch x := m.(type) {
			case *ast.IncDecStmt:
				out[exprString(x.X)] = true
			case *ast.AssignStmt:
				if x.Tok == token.ADD_ASSIGN {
					for _, l := range x.Lhs {
						out[exprString(l)] = true
					}
				}
			}
			return true
		})
		return out
	}

	// checkBody walks one map-range body.
	checkBody := func(rng *ast.RangeStmt) {
		cursors := incremented(rng.Body)
		ast.Inspect(rng.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.RangeStmt:
				if x != rng && isMapExpr(info, x.X) {
					return false // nested map range handled by its own visit
				}
			case *ast.CallExpr:
				if c, ok := calleeOf(info, x); ok && wireSinkFuncs[c] {
					pass.Reportf(x.Pos(),
						"%s inside range over a map: frame contents and order become map-iteration-order dependent; order the entries deterministically first (sort, or a gid-indexed pass)",
						c.name)
					return true
				}
				if fn := calleeFunc(info, x.Fun); fn != nil {
					if _, viaHelper := sinkHelpers[fn]; viaHelper {
						pass.Reportf(x.Pos(),
							"call to %s, which emits wire frames, inside range over a map: frame contents and order become map-iteration-order dependent",
							fn.Name())
					}
				}
			case *ast.AssignStmt:
				// Float accumulation in map order.
				floatFolds(info, x, rng, func(rhs, _ ast.Expr) {
					pass.Reportf(rhs.Pos(),
						"float accumulation in map iteration order: FP addition is not associative, so the result differs run to run; fold in a deterministic order (sort the keys, or par.SumFloat64Ordered over a dense range)")
				})
				// Append to an outer slice: order-dependent sequence.
				for i := range x.Lhs {
					if i >= len(x.Rhs) {
						break
					}
					call, ok := ast.Unparen(x.Rhs[i]).(*ast.CallExpr)
					if !ok {
						continue
					}
					if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
						if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
							if root, _ := rootIdent(x.Lhs[i]); root != nil && !declaredIn(info, root, rng) {
								tainted[exprString(x.Lhs[i])] = x.Pos()
							}
						}
					}
				}
				// Cursor-advancing store into an outer slice:
				// dst[cursor] = v; cursor++ — same order dependence as
				// append. A store through a loop-invariant index (a
				// gid-indexed scatter) stays clean.
				if x.Tok == token.ASSIGN {
					for _, l := range x.Lhs {
						ix, ok := ast.Unparen(l).(*ast.IndexExpr)
						if !ok {
							continue
						}
						idxStr := exprString(ix.Index)
						cursorIdx := false
						for c := range cursors {
							if idxStr == c || strings.Contains(idxStr, c+"[") || strings.HasPrefix(idxStr, c+".") {
								cursorIdx = true
							}
						}
						if !cursorIdx {
							continue
						}
						if root, _ := rootIdent(ix.X); root != nil && !declaredIn(info, root, rng) {
							tainted[exprString(ix.X)] = l.Pos()
						}
					}
				}
			}
			return true
		})
	}

	// First pass: find map ranges, taint order-dependent collections.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if rng, ok := n.(*ast.RangeStmt); ok && isMapExpr(info, rng.X) {
			checkBody(rng)
		}
		return true
	})
	if len(tainted) == 0 {
		return
	}

	// Second pass, in source order: a sort over a tainted slice clears
	// it; a sink use (wire sink, collective payload, report field,
	// return) reports it.
	clearIfSorted := func(call *ast.CallExpr) {
		c, ok := calleeOf(info, call)
		if !ok || (c.pkg != "sort" && c.pkg != "slices") {
			return
		}
		for _, a := range call.Args {
			s := exprString(a)
			for t := range tainted {
				if s == t || strings.HasPrefix(s, t+"[") || strings.HasPrefix(s, t+".") {
					delete(tainted, t)
				}
			}
		}
	}
	taintedArg := func(a ast.Expr) (string, bool) {
		s := exprString(a)
		for t := range tainted {
			if s == t || strings.HasPrefix(s, t+"[") {
				return t, true
			}
		}
		return "", false
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			clearIfSorted(x)
			c, ok := calleeOf(info, x)
			if !ok {
				return true
			}
			if wireSinkFuncs[c] || collectivePayloadFuncs[c] {
				for _, a := range x.Args {
					if t, hit := taintedArg(a); hit {
						pass.Reportf(a.Pos(),
							"%s was built in map iteration order and reaches %s unsorted: the payload's element order differs per process; sort it (or fill it through a gid-indexed pass) first",
							t, c.name)
						delete(tainted, t)
					}
				}
			}
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				if t, hit := taintedArg(r); hit {
					pass.Reportf(r.Pos(),
						"%s was built in map iteration order and is returned unsorted: callers observe a different order every run; sort it first",
						t)
					delete(tainted, t)
				}
			}
		case *ast.CompositeLit:
			outer := reportType(info, x)
			for _, e := range x.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok && outer != "" {
					if t, hit := taintedArg(kv.Value); hit {
						pass.Reportf(kv.Value.Pos(),
							"%s was built in map iteration order and reaches %s field %s unsorted: report fields must be identical across runs; sort it first",
							t, outer, exprString(kv.Key))
						delete(tainted, t)
					}
				}
			}
		case *ast.AssignStmt:
			if x.Tok != token.ASSIGN {
				return true
			}
			for i, l := range x.Lhs {
				if i >= len(x.Rhs) {
					break
				}
				if sel, ok := ast.Unparen(l).(*ast.SelectorExpr); ok && reportType(info, sel.X) != "" {
					if t, hit := taintedArg(x.Rhs[i]); hit {
						pass.Reportf(x.Rhs[i].Pos(),
							"%s was built in map iteration order and reaches report field %s unsorted: report fields must be identical across runs; sort it first",
							t, exprString(l))
						delete(tainted, t)
					}
				}
			}
		}
		return true
	})
}

// checkMapCountReport flags rank-local map counts (len of a map,
// possibly through one local and conversions) flowing into a
// Report/Result field: each rank's map holds its own keys, so the
// ranks report different numbers — the PR 5 LabelProp
// community-count bug. Passing the count through a collective
// (AllreduceScalar) launders it correctly: call results carry no
// taint.
func checkMapCountReport(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Info

	// lenOfMap reports whether e is len(m) over a map (through
	// conversions and parens).
	var lenOfMap func(e ast.Expr) bool
	lenOfMap = func(e ast.Expr) bool {
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok {
			return false
		}
		if len(call.Args) != 1 {
			return false
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "len" {
			if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
				return isMapExpr(info, call.Args[0])
			}
		}
		// Conversion: T(len(m)).
		tv, ok := info.Types[call.Fun]
		return ok && tv.IsType() && lenOfMap(call.Args[0])
	}

	// Locals assigned from len(map) expressions.
	counts := map[types.Object]bool{}
	assignSweep(info, fd.Body, func(a assignment) bool {
		if a.res < 0 && lenOfMap(a.rhs) {
			counts[a.obj] = true
		}
		return false
	})

	// mapCountExpr: e is len(map) directly, or mentions a counted
	// local (through conversions and arithmetic).
	mapCountExpr := func(e ast.Expr) bool {
		if lenOfMap(e) {
			return true
		}
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if found {
				return false
			}
			switch x := n.(type) {
			case *ast.CallExpr:
				// A non-conversion call result launders the count (the
				// collective-reduction idiom).
				if tv, ok := info.Types[x.Fun]; !ok || !tv.IsType() {
					if lenOfMap(x) {
						found = true
					}
					return false
				}
			case *ast.Ident:
				found = counts[objOf(info, x)]
			}
			return true
		})
		return found
	}

	report := func(pos token.Pos, field string) {
		pass.Reportf(pos,
			"rank-local map count flows into report field %s: each rank's map holds different keys, so the ranks disagree (the PR 5 LabelProp bug); reduce the count globally first (globalDistinct / AllreduceScalar)",
			field)
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CompositeLit:
			outer := reportType(info, x)
			for _, e := range x.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok && outer != "" && mapCountExpr(kv.Value) {
					report(kv.Value.Pos(), outer+"."+exprString(kv.Key))
				}
			}
		case *ast.AssignStmt:
			if x.Tok != token.ASSIGN || len(x.Lhs) != len(x.Rhs) {
				return true
			}
			for i, l := range x.Lhs {
				if sel, ok := ast.Unparen(l).(*ast.SelectorExpr); ok && reportType(info, sel.X) != "" && mapCountExpr(x.Rhs[i]) {
					report(x.Rhs[i].Pos(), exprString(l))
				}
			}
		}
		return true
	})
}
