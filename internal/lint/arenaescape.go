package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ArenaEscape flags decode-arena- and Recv64-backed slices that escape
// their aliasing window. The exchange engine hands callers views into
// pooled receive buffers and decode arenas that are recycled after a
// bounded number of rounds ("valid for depth-1 subsequent rounds");
// storing such a slice in a struct field, capturing it in a goroutine,
// returning it, or keeping its backing array via append silently turns
// a bounded aliasing window into a use-after-recycle — the PR 5 bug
// shape.
var ArenaEscape = &Analyzer{
	Name: "arenaescape",
	Doc:  "arena-backed slices (Recv64 results, Flush*/Exchange* decode views) must not outlive their round window",
	Run:  runArenaEscape,
}

// arenaSource maps a callee to the indices of its results that alias a
// pooled buffer or decode arena.
var arenaSources = map[callee][]int{
	{mpiPath, "", "Recv64"}:    {0},
	{mpiPath, "", "Recv64Tag"}: {0},

	// The Transport surface: Recv64 hands out a pooled buffer whether
	// called through the interface or on a concrete transport.
	{mpiPath, "Transport", "Recv64"}:       {0},
	{mpiPath, "SocketTransport", "Recv64"}: {0},

	{dgraphPath, "DeltaExchanger", "Flush"}:       {0},
	{dgraphPath, "DeltaExchanger", "FlushTally"}:  {0, 1},
	{dgraphPath, "DeltaExchanger", "FlushValues"}: {0, 1},
	{dgraphPath, "DeltaExchanger", "FlushPush"}:   {0, 1},
}

func runArenaEscape(pass *Pass) {
	// The engine's and the transports' own plumbing constructs and
	// returns arena views by design; the contract binds their callers.
	if p := strings.TrimSuffix(pass.Pkg.Path(), "-test"); p == dgraphPath || p == mpiPath {
		return
	}
	for _, unit := range funcUnits(pass.Files) {
		checkArenaEscapes(pass, unit.decl)
	}
}

// checkArenaEscapes runs a function-local taint analysis: variables
// assigned from an arena source (or derived from one by slicing,
// SplitTally, or append-onto-tainted) are tainted; sinking a tainted
// value past the function or the round boundary is reported.
func checkArenaEscapes(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Info

	tainted := map[types.Object]token.Pos{} // var -> where it became tainted
	isTaintedExpr := func(e ast.Expr) bool { return false }

	// taintedObjOf resolves an expression to a tainted variable, seeing
	// through parens and slice expressions.
	taintedObjOf := func(e ast.Expr) (types.Object, bool) {
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.Ident:
				o := objOf(info, x)
				_, ok := tainted[o]
				return o, ok && o != nil
			case *ast.SliceExpr:
				e = x.X
			default:
				return nil, false
			}
		}
	}

	// arenaResultIndices reports which results of a call are
	// arena-backed: direct sources, SplitTally of a tainted message,
	// or append growing a tainted slice.
	arenaResultIndices := func(call *ast.CallExpr) []int {
		if c, ok := calleeOf(info, call); ok {
			if idx, ok := arenaSources[c]; ok {
				return idx
			}
			if c.pkg == mpiPath && c.name == "SplitTally" && len(call.Args) > 0 {
				if _, ok := taintedObjOf(call.Args[0]); ok {
					return []int{0, 1} // body view and tail both alias msg
				}
			}
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" && len(call.Args) > 0 {
			if _, ok := taintedObjOf(call.Args[0]); ok {
				return []int{0}
			}
		}
		return nil
	}

	isTaintedExpr = func(e ast.Expr) bool {
		if _, ok := taintedObjOf(e); ok {
			return true
		}
		if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
			return len(arenaResultIndices(call)) > 0
		}
		return false
	}

	// Pass 1: propagate taint to a fixpoint over the assignments of the
	// function (including its closures — same frame discipline).
	for changed := true; changed; {
		changed = false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			mark := func(lhs ast.Expr, pos token.Pos) {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || id.Name == "_" {
					return
				}
				o := objOf(info, id)
				if o == nil {
					return
				}
				if _, already := tainted[o]; !already {
					tainted[o] = pos
					changed = true
				}
			}
			if len(as.Lhs) > 1 && len(as.Rhs) == 1 {
				// Multi-result call: v, rest := ex.FlushTally(...)
				if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok {
					for _, i := range arenaResultIndices(call) {
						if i < len(as.Lhs) {
							mark(as.Lhs[i], as.Lhs[i].Pos())
						}
					}
				}
				return true
			}
			for i, rhs := range as.Rhs {
				if i < len(as.Lhs) && isTaintedExpr(rhs) {
					mark(as.Lhs[i], as.Lhs[i].Pos())
				}
			}
			return true
		})
	}
	if len(tainted) == 0 {
		return
	}

	taintedName := func(e ast.Expr) (string, bool) {
		if o, ok := taintedObjOf(e); ok {
			return o.Name(), true
		}
		if call, ok := ast.Unparen(e).(*ast.CallExpr); ok && len(arenaResultIndices(call)) > 0 {
			if c, ok := calleeOf(info, call); ok {
				return c.name + " result", true
			}
			return "arena-backed value", true
		}
		return "", false
	}

	// Pass 2: find sinks. Closure bodies are walked with inLit set so
	// their returns (which stay inside the frame) are not mistaken for
	// the function's own.
	recycled := map[types.Object]token.Pos{} // msg -> Recycle64 position
	var inspect func(root ast.Node, inLit bool)
	inspect = func(root ast.Node, inLit bool) {
		ast.Inspect(root, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok && n != root {
				inspect(lit.Body, true)
				return false
			}
			switch x := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range x.Lhs {
					if i >= len(x.Rhs) && len(x.Rhs) != 1 {
						break
					}
					rhs := x.Rhs[min(i, len(x.Rhs)-1)]
					name, ok := taintedName(rhs)
					if !ok {
						continue
					}
					switch lhs := ast.Unparen(lhs).(type) {
					case *ast.SelectorExpr:
						pass.Reportf(x.Pos(),
							"arena-backed slice %s stored into field %s: the backing buffer is recycled after the round window — copy it first",
							name, exprString(lhs))
					case *ast.IndexExpr:
						pass.Reportf(x.Pos(),
							"arena-backed slice %s stored into container %s outlives its round window — copy it first", name, exprString(lhs.X))
					case *ast.StarExpr:
						pass.Reportf(x.Pos(),
							"arena-backed slice %s stored through pointer %s outlives its round window — copy it first", name, exprString(lhs))
					case *ast.Ident:
						if o := objOf(info, lhs); o != nil && o.Parent() == pass.Pkg.Scope() {
							pass.Reportf(x.Pos(),
								"arena-backed slice %s stored into package variable %s outlives its round window — copy it first", name, lhs.Name)
						}
					}
				}
			case *ast.ReturnStmt:
				// The enclosing declaration must not leak the arena to
				// its own callers; a closure's return stays in-frame.
				if inLit {
					break
				}
				for _, r := range x.Results {
					if name, ok := taintedName(r); ok {
						pass.Reportf(r.Pos(),
							"arena-backed slice %s returned to caller: the backing buffer is recycled after the round window — copy it first", name)
					}
				}
			case *ast.SendStmt:
				if name, ok := taintedName(x.Value); ok {
					pass.Reportf(x.Pos(),
						"arena-backed slice %s sent on a channel escapes its round window — copy it first", name)
				}
			case *ast.GoStmt:
				for _, a := range x.Call.Args {
					if name, ok := taintedName(a); ok {
						pass.Reportf(x.Pos(),
							"arena-backed slice %s passed to a goroutine may outlive its round window — copy it first", name)
					}
				}
				if lit, ok := ast.Unparen(x.Call.Fun).(*ast.FuncLit); ok {
					for o, pos := range tainted {
						if capturedBy(info, lit, o) && pos < lit.Pos() {
							pass.Reportf(x.Pos(),
								"goroutine captures arena-backed slice %s, which may be recycled before it runs — copy it first", o.Name())
						}
					}
				}
			case *ast.CallExpr:
				c, ok := calleeOf(info, x)
				if ok && c.pkg == mpiPath && recyclerRecv(c.recv) && c.name == "Recycle64" && len(x.Args) > 0 {
					if o, ok := taintedObjOf(x.Args[0]); ok {
						if _, done := recycled[o]; !done {
							recycled[o] = x.End()
						}
					}
				}
				if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "append" && !x.Ellipsis.IsValid() && len(x.Args) > 1 {
					// append(dst, tainted) with a non-spread slice arg
					// stores the slice header itself.
					for _, a := range x.Args[1:] {
						if t := info.TypeOf(a); t != nil {
							if _, isSlice := t.Underlying().(*types.Slice); !isSlice {
								continue
							}
						}
						if name, ok := taintedName(a); ok {
							pass.Reportf(x.Pos(),
								"arena-backed slice %s appended by reference into a longer-lived slice — copy its contents instead", name)
						}
					}
				}
			}
			return true
		})
	}
	inspect(fd.Body, false)

	// Pass 3: use-after-recycle, position-ordered within the function.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		o := info.Uses[id]
		if o == nil {
			return true
		}
		if pos, done := recycled[o]; done && id.Pos() > pos {
			pass.Reportf(id.Pos(), "%s used after Recycle64 returned its buffer to the pool", o.Name())
		}
		return true
	})
}

// recyclerRecv reports whether a receiver type owns a pool that
// Recycle64 returns buffers to: the Comm handle, the Transport
// interface, or a concrete wire transport.
func recyclerRecv(recv string) bool {
	switch recv {
	case "Comm", "Transport", "SocketTransport":
		return true
	}
	return false
}

// capturedBy reports whether a function literal references obj without
// declaring it.
func capturedBy(info *types.Info, lit *ast.FuncLit, obj types.Object) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
			return false
		}
		return true
	})
	return found
}
