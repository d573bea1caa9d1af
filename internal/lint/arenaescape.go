package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
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
	for _, decl := range funcDecls(pass.Files) {
		checkArenaEscapes(pass, decl)
	}
}

// checkArenaEscapes runs a function-local taint analysis: variables
// assigned from an arena source (or derived from one by slicing,
// SplitTally, or append-onto-tainted) are tainted; sinking a tainted
// value past the function or the round boundary is reported.
func checkArenaEscapes(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Info

	tainted := map[types.Object]token.Pos{} // var -> where it became tainted

	// taintedObjOf resolves an expression to the tainted variable it is
	// a view of (through parens and slicing).
	taintedObjOf := func(e ast.Expr) (types.Object, bool) {
		root, view := rootIdent(e)
		if root == nil || !view {
			return nil, false
		}
		o := objOf(info, root)
		_, ok := tainted[o]
		return o, ok && o != nil
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

	// taintedName names the arena-backed value e is, or ok=false when e
	// is not one: a tainted variable (or a view of it), or a call whose
	// results alias an arena.
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

	// Pass 1: propagate taint to a fixpoint over the assignments of the
	// function (including its closures — same frame discipline); of a
	// tuple-valued call (v, rest := ex.FlushTally(...)) only the
	// arena-backed results taint.
	taint := func(a assignment) bool {
		hit := false
		if a.res < 0 {
			_, hit = taintedName(a.rhs)
		} else if call, ok := ast.Unparen(a.rhs).(*ast.CallExpr); ok {
			hit = slices.Contains(arenaResultIndices(call), a.res)
		}
		if _, already := tainted[a.obj]; !hit || already {
			return false
		}
		tainted[a.obj] = a.lhs.Pos()
		return true
	}
	for assignSweep(info, fd.Body, taint) {
		// until a sweep taints nothing new
	}
	if len(tainted) == 0 {
		return
	}

	// Pass 2: tainted values leaving the round window. A closure's
	// return stays inside the frame; a goroutine capture counts only
	// when the variable was tainted before the goroutine started.
	escapes(pass, fd.Body, func(e escape) {
		name, ok := taintedName(e.value)
		if !ok {
			return
		}
		switch e.kind {
		case escField:
			pass.Reportf(e.at.Pos(),
				"arena-backed slice %s stored into field %s: the backing buffer is recycled after the round window — copy it first",
				name, exprString(e.dest))
		case escContainer:
			pass.Reportf(e.at.Pos(),
				"arena-backed slice %s stored into container %s outlives its round window — copy it first", name, exprString(ast.Unparen(e.dest).(*ast.IndexExpr).X))
		case escPointer:
			pass.Reportf(e.at.Pos(),
				"arena-backed slice %s stored through pointer %s outlives its round window — copy it first", name, exprString(e.dest))
		case escGlobal:
			pass.Reportf(e.at.Pos(),
				"arena-backed slice %s stored into package variable %s outlives its round window — copy it first", name, exprString(e.dest))
		case escReturn:
			if !e.inLit {
				pass.Reportf(e.value.Pos(),
					"arena-backed slice %s returned to caller: the backing buffer is recycled after the round window — copy it first", name)
			}
		case escSend:
			pass.Reportf(e.at.Pos(),
				"arena-backed slice %s sent on a channel escapes its round window — copy it first", name)
		case escGoArg:
			pass.Reportf(e.at.Pos(),
				"arena-backed slice %s passed to a goroutine may outlive its round window — copy it first", name)
		case escCaptured:
			if tainted[objOf(info, e.value.(*ast.Ident))] < e.at.Pos() {
				pass.Reportf(e.at.Pos(),
					"goroutine captures arena-backed slice %s, which may be recycled before it runs — copy it first", name)
			}
		}
	})

	// Pass 3, in source order: append(dst, tainted) storing the slice
	// header itself, and uses after Recycle64 returned the buffer.
	recycled := map[types.Object]token.Pos{} // msg -> end of its Recycle64 call
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
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
		case *ast.Ident:
			if pos, done := recycled[info.Uses[x]]; done && x.Pos() > pos {
				pass.Reportf(x.Pos(), "%s used after Recycle64 returned its buffer to the pool", x.Name)
			}
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
