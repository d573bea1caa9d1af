package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// CollectiveSym flags collective operations — calls every rank must
// make the same number of times, in the same order — that are only
// reachable under a rank-local condition: a branch on the rank id, or
// iteration over a map (whose order differs per process). This is the
// exact shape of the PR 4 deadlock, where a collective buried under
// `if c.Rank() == 0` left the other ranks waiting forever.
var CollectiveSym = &Analyzer{
	Name: "collectivesym",
	Doc:  "collectives must be reachable symmetrically on every rank, never only under rank-local conditions",
	Run:  runCollectiveSym,
}

// collectiveFuncs is the set of collective entry points: package-level
// mpi collectives, Comm.Barrier, and every DeltaExchanger/Graph method
// that internally performs a round of symmetric communication.
var collectiveFuncs = map[callee]bool{
	{mpiPath, "", "Bcast"}:                true,
	{mpiPath, "", "Allgatherv"}:           true,
	{mpiPath, "", "Alltoallv"}:            true,
	{mpiPath, "", "Allreduce"}:            true,
	{mpiPath, "", "AllreduceScalar"}:      true,
	{mpiPath, "", "NeighborhoodComplete"}: true,
	{mpiPath, "Comm", "Barrier"}:          true,

	// The Transport surface: a collective invoked through the interface
	// or directly on a concrete transport binds every rank the same way
	// the Comm-level wrappers do.
	{mpiPath, "Transport", "Barrier"}:       true,
	{mpiPath, "Transport", "AllreduceI64"}:  true,
	{mpiPath, "Transport", "AllreduceF64"}:  true,
	{mpiPath, "Transport", "BcastI64"}:      true,
	{mpiPath, "Transport", "AllgathervI64"}: true,
	{mpiPath, "Transport", "AlltoallvI64"}:  true,
	{mpiPath, "Transport", "AlltoallvF64"}:  true,

	{mpiPath, "SocketTransport", "Barrier"}:       true,
	{mpiPath, "SocketTransport", "AllreduceI64"}:  true,
	{mpiPath, "SocketTransport", "AllreduceF64"}:  true,
	{mpiPath, "SocketTransport", "BcastI64"}:      true,
	{mpiPath, "SocketTransport", "AllgathervI64"}: true,
	{mpiPath, "SocketTransport", "AlltoallvI64"}:  true,
	{mpiPath, "SocketTransport", "AlltoallvF64"}:  true,

	{dgraphPath, "DeltaExchanger", "Begin"}:       true,
	{dgraphPath, "DeltaExchanger", "BeginTally"}:  true,
	{dgraphPath, "DeltaExchanger", "BeginValues"}: true,
	{dgraphPath, "DeltaExchanger", "BeginPush"}:   true,
	{dgraphPath, "DeltaExchanger", "Flush"}:       true,
	{dgraphPath, "DeltaExchanger", "FlushTally"}:  true,
	{dgraphPath, "DeltaExchanger", "FlushValues"}: true,
	{dgraphPath, "DeltaExchanger", "FlushPush"}:   true,
	{dgraphPath, "DeltaExchanger", "Close"}:       true,

	{dgraphPath, "Graph", "NewDeltaExchanger"}: true,
	{dgraphPath, "Graph", "AsyncExchanger"}:    true,
	{dgraphPath, "Graph", "Close"}:             true,
	{dgraphPath, "Graph", "ExchangeInt64"}:     true,
	{dgraphPath, "Graph", "GatherGlobal"}:      true,
}

func runCollectiveSym(pass *Pass) {
	// The simulator itself implements the collectives; inside it, calls
	// between them are plumbing, not user-facing asymmetry.
	if strings.TrimSuffix(pass.Pkg.Path(), "-test") == mpiPath {
		return
	}
	// Interprocedural layer: a same-package helper that performs a
	// collective (directly, or through up to maxHelperDepth further
	// helpers) makes every call TO it a collective call site — wrapping
	// the Barrier in a function must not launder the asymmetry.
	directName := map[*types.Func]string{}
	seed := func(fn *types.Func, decl *ast.FuncDecl) bool {
		c, found := findCall(pass.Info, decl.Body, collectiveFuncs)
		if found {
			directName[fn] = c.qualName()
		}
		return found
	}
	performers := pass.Graph.propagate(seed)
	for _, decl := range funcDecls(pass.Files) {
		w := &collectiveWalker{pass: pass, performers: performers, directName: directName}
		w.stmts(decl.Body.List)
	}
}

// collectiveWalker walks one function body carrying the stack of
// rank-local conditions guarding the current statement.
type collectiveWalker struct {
	pass       *Pass
	reasons    []string // active rank-local guards, innermost last
	performers map[*types.Func]*types.Func
	directName map[*types.Func]string
}

// performedCollective names the collective a helper reaches, following
// the witness chain the propagation recorded.
func (w *collectiveWalker) performedCollective(fn *types.Func) string {
	for hops := 0; hops <= maxHelperDepth; hops++ {
		if name, ok := w.directName[fn]; ok {
			return name
		}
		next, ok := w.performers[fn]
		if !ok || next == nil {
			break
		}
		fn = next
	}
	return "a collective"
}

func (w *collectiveWalker) guarded() (string, bool) {
	if len(w.reasons) == 0 {
		return "", false
	}
	return w.reasons[len(w.reasons)-1], true
}

func (w *collectiveWalker) push(reason string, f func()) {
	w.reasons = append(w.reasons, reason)
	f()
	w.reasons = w.reasons[:len(w.reasons)-1]
}

func (w *collectiveWalker) stmts(list []ast.Stmt) {
	// Guard-clause handling: after `if rankLocal { ...return }`, the
	// remaining statements of the block are only reached by a
	// rank-dependent subset of ranks.
	for i, s := range list {
		w.stmt(s)
		if ifs, ok := s.(*ast.IfStmt); ok && ifs.Else == nil {
			if reason, rankLocal := w.rankLocalCond(ifs.Cond); rankLocal && terminates(ifs.Body) {
				w.push(reason, func() { w.stmts(list[i+1:]) })
				return
			}
		}
	}
}

// terminates reports whether a block always leaves the enclosing
// statement list (return / branch / panic) — the guard-clause shape.
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

func (w *collectiveWalker) stmt(s ast.Stmt) {
	switch st := s.(type) {
	case nil:
	case *ast.IfStmt:
		if st.Init != nil {
			w.stmt(st.Init)
		}
		w.expr(st.Cond) // the condition itself runs on every rank
		reason, rankLocal := w.rankLocalCond(st.Cond)
		body := func() { w.stmts(st.Body.List) }
		elseB := func() { w.stmt(st.Else) }
		if rankLocal {
			w.push(reason, body)
			w.push(reason, elseB)
		} else {
			body()
			elseB()
		}
	case *ast.BlockStmt:
		w.stmts(st.List)
	case *ast.ForStmt:
		if st.Init != nil {
			w.stmt(st.Init)
		}
		if st.Cond != nil {
			w.expr(st.Cond)
		}
		if st.Post != nil {
			w.stmt(st.Post)
		}
		if reason, rankLocal := w.rankLocalCond(st.Cond); rankLocal {
			w.push(reason, func() { w.stmts(st.Body.List) })
		} else {
			w.stmts(st.Body.List)
		}
	case *ast.RangeStmt:
		w.expr(st.X)
		if isMapExpr(w.pass.Info, st.X) {
			w.push("map iteration order is rank-local", func() { w.stmts(st.Body.List) })
			return
		}
		w.stmts(st.Body.List)
	case *ast.SwitchStmt:
		if st.Init != nil {
			w.stmt(st.Init)
		}
		rankLocal := false
		reason := ""
		if st.Tag != nil {
			w.expr(st.Tag)
			reason, rankLocal = w.rankLocalCond(st.Tag)
		}
		for _, c := range st.Body.List {
			cc := c.(*ast.CaseClause)
			caseReason, caseLocal := reason, rankLocal
			for _, e := range cc.List {
				w.expr(e)
				if r, l := w.rankLocalCond(e); l {
					caseReason, caseLocal = r, true
				}
			}
			if caseLocal {
				w.push(caseReason, func() { w.stmts(cc.Body) })
			} else {
				w.stmts(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			w.stmt(st.Init)
		}
		w.stmt(st.Assign)
		for _, c := range st.Body.List {
			w.stmts(c.(*ast.CaseClause).Body)
		}
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			w.stmts(c.(*ast.CommClause).Body)
		}
	case *ast.LabeledStmt:
		w.stmt(st.Stmt)
	case *ast.ExprStmt:
		w.expr(st.X)
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			w.expr(e)
		}
		for _, e := range st.Lhs {
			w.expr(e)
		}
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			w.expr(e)
		}
	case *ast.DeferStmt:
		w.expr(st.Call)
	case *ast.GoStmt:
		w.expr(st.Call)
	case *ast.SendStmt:
		w.expr(st.Chan)
		w.expr(st.Value)
	case *ast.IncDecStmt:
		w.expr(st.X)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v)
					}
				}
			}
		}
	}
}

func (w *collectiveWalker) expr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			w.checkCall(x)
			// A par fan-out runs its function-literal arguments on
			// worker goroutines: collectives and round ops inside them
			// deadlock (the comm binds its collectives to the goroutine
			// that created it, and a worker entering one while its
			// siblings sweep on hangs the world; rounds are driven from
			// the main goroutine, between sweeps — the phase discipline
			// of analytics/overlap.go). Walk those literals under the
			// par guard and the remaining arguments normally, then stop
			// the generic descent so the FuncLit case below does not
			// re-walk the bodies unguarded.
			c, _ := calleeOf(w.pass.Info, x)
			if _, par := parWorkerArg[c]; par {
				reason := "inside a par." + c.name + " worker body, off the comm's main goroutine"
				for _, a := range x.Args {
					if fl, ok := ast.Unparen(a).(*ast.FuncLit); ok {
						w.push(reason, func() { w.stmts(fl.Body.List) })
					} else {
						w.expr(a)
					}
				}
				return false
			}
		case *ast.FuncLit:
			// A literal inherits its lexical context: if it is declared
			// under a rank-local guard, any collective it performs runs
			// only on the guarded ranks when invoked here. (Literals
			// escaping to symmetric call sites are rare and accept an
			// explicit lint:ignore.)
			w.stmts(x.Body.List)
			return false
		}
		return true
	})
}

func (w *collectiveWalker) checkCall(call *ast.CallExpr) {
	reason, guarded := w.guarded()
	if !guarded {
		return
	}
	if c, ok := calleeOf(w.pass.Info, call); ok && collectiveFuncs[c] {
		w.pass.Reportf(call.Pos(),
			"collective %s reachable only under rank-local condition (%s): every rank must make the same collective calls in the same order",
			c.qualName(), reason)
		return
	}
	// Interprocedural: a guarded call to a same-package helper that
	// performs a collective somewhere down its call chain is the same
	// deadlock, one wrapper removed.
	if fn := calleeFunc(w.pass.Info, call.Fun); fn != nil {
		if _, performs := w.performers[fn]; performs {
			w.pass.Reportf(call.Pos(),
				"call to %s, which performs collective %s, reachable only under rank-local condition (%s): every rank must make the same collective calls in the same order",
				fn.Name(), w.performedCollective(fn), reason)
		}
	}
}

// rankLocalCond reports whether a condition's value can differ between
// ranks of the same job: it mentions the rank id (a Rank() call or a
// rank-named variable).
func (w *collectiveWalker) rankLocalCond(cond ast.Expr) (string, bool) {
	if cond == nil {
		return "", false
	}
	found := ""
	ast.Inspect(cond, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			if c, ok := calleeOf(w.pass.Info, x); ok && c.name == "Rank" {
				found = "branches on Rank()"
				return false
			}
		case *ast.Ident:
			if rankIdent(x.Name) {
				found = "branches on " + x.Name
				return false
			}
		}
		return true
	})
	return found, found != ""
}

// rankIdent reports whether a variable name denotes this rank's id.
// Counts of ranks (nranks, numRanks, size) are the same on every rank
// and deliberately excluded.
func rankIdent(name string) bool {
	switch strings.ToLower(name) {
	case "rank", "myrank", "selfrank", "rankid", "me", "myid":
		return true
	}
	return false
}
