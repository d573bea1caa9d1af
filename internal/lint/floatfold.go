package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// FloatFold flags floating-point folds whose summation order is not
// fixed by the program: FP addition is not associative, so any fold
// ordered by thread scheduling or message arrival produces different
// bits run to run.
//
//   - Inside a par.For / par.ForChunk worker body, accumulating a
//     float into a variable captured from the enclosing scope races
//     and (even when locked) folds in schedule order. The repo's
//     deterministic idiom is par.SumFloat64Ordered, which folds
//     per-chunk partials in chunk order.
//   - A loop that receives from other ranks (mpi.Recv64 /
//     Recv64Tag) and accumulates floats folds in arrival order —
//     socket-substrate arrival order is nondeterministic. The idiom is
//     TallyRound.FoldFloat, which folds contributions in rank order.
//   - A function registered with sync.Once.Do must only run through
//     the Once: calling it directly as well reintroduces exactly the
//     race the memoization guard exists to prevent (two goroutines
//     initializing concurrently, one observing a half-written result).
var FloatFold = &Analyzer{
	Name: "floatfold",
	Doc:  "float folds must run in a program-fixed order (par.SumFloat64Ordered, TallyRound.FoldFloat), and sync.Once-guarded initializers must never be called directly",
	Run:  runFloatFold,
}

var recvFuncs = map[callee]bool{
	{mpiPath, "", "Recv64"}:    true,
	{mpiPath, "", "Recv64Tag"}: true,
}

func runFloatFold(pass *Pass) {
	base := strings.TrimSuffix(pass.Pkg.Path(), "-test")
	onceTargets, onceExempt := collectOnceTargets(pass)
	for _, decl := range funcDecls(pass.Files) {
		if base != parPath {
			checkParFloatFold(pass, decl)
		}
		if base != mpiPath {
			checkArrivalOrderFold(pass, decl)
		}
		checkOnceBypass(pass, decl, onceTargets, onceExempt)
	}
}

// floatAccumulations calls found for every float accumulation in body
// into a target declared outside scope (see floatFolds).
func floatAccumulations(info *types.Info, body ast.Node, scope ast.Node, found func(rhs, target ast.Expr)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok {
			floatFolds(info, as, scope, found)
		}
		return true
	})
}

// checkParFloatFold flags float accumulation into captured variables
// inside par worker bodies.
func checkParFloatFold(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Info
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		c, ok := calleeOf(info, call)
		if !ok {
			return true
		}
		argIdx, isPar := parWorkerArg[c]
		if !isPar || argIdx >= len(call.Args) {
			return true
		}
		worker, ok := ast.Unparen(call.Args[argIdx]).(*ast.FuncLit)
		if !ok {
			return true
		}
		floatAccumulations(info, worker.Body, worker, func(rhs, target ast.Expr) {
			pass.Reportf(rhs.Pos(),
				"float accumulation into captured %s inside a par.%s worker: the fold order follows thread scheduling, so the sum's bits differ run to run; use par.SumFloat64Ordered (chunk-ordered partials) instead",
				exprString(target), c.name)
		})
		return true
	})
}

// checkArrivalOrderFold flags float accumulation inside loops that
// receive from other ranks: the fold follows message arrival order.
func checkArrivalOrderFold(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Info
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch loop := n.(type) {
		case *ast.ForStmt:
			body = loop.Body
		case *ast.RangeStmt:
			body = loop.Body
		default:
			return true
		}
		if _, receives := findCall(info, body, recvFuncs); !receives {
			return true
		}
		floatAccumulations(info, body, n, func(rhs, target ast.Expr) {
			pass.Reportf(rhs.Pos(),
				"float accumulation into %s inside a receive loop: the fold follows message arrival order, which the socket substrate does not fix; fold contributions in rank order (TallyRound.FoldFloat) instead",
				exprString(target))
		})
		return false // inner loops already covered by this walk
	})
}

// onceTarget records one function registered with sync.Once.Do and
// where.
type onceTarget struct {
	oncePos token.Pos
	once    string
}

// collectOnceTargets finds every same-package function passed to a
// sync.Once's Do anywhere in the package. The second result exempts
// the call wrapped inside a Do(func(){ ... }) literal — that call IS
// the guarded path, not a bypass of it.
func collectOnceTargets(pass *Pass) (map[*types.Func]onceTarget, map[*ast.CallExpr]bool) {
	info := pass.Info
	out := map[*types.Func]onceTarget{}
	exempt := map[*ast.CallExpr]bool{}
	for _, decl := range funcDecls(pass.Files) {
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Do" {
				return true
			}
			named := namedOf(info.TypeOf(sel.X))
			if named == nil || named.Obj().Name() != "Once" || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
				return true
			}
			// Do(g.classifyBoundary) — a method value or plain func — or
			// a literal, which can only run through this Do: look inside
			// for the single wrapped call, Do(func() { g.classify() }).
			arg := ast.Unparen(call.Args[0])
			fn := calleeFunc(info, arg)
			if lit, ok := arg.(*ast.FuncLit); ok && len(lit.Body.List) == 1 {
				if es, ok := lit.Body.List[0].(*ast.ExprStmt); ok {
					if inner, ok := es.X.(*ast.CallExpr); ok {
						if fn = calleeFunc(info, inner.Fun); fn != nil {
							exempt[inner] = true
						}
					}
				}
			}
			if fn != nil && pass.Graph.DeclOf(fn) != nil {
				if _, seen := out[fn]; !seen {
					out[fn] = onceTarget{oncePos: call.Pos(), once: exprString(sel.X)}
				}
			}
			return true
		})
	}
	return out, exempt
}

// checkOnceBypass flags direct calls to functions that elsewhere run
// under sync.Once.Do: lazily-memoized state must be entered through
// the Once, or concurrent callers race on the initialization (the
// pre-PR-9 classifyBoundary bug shape).
func checkOnceBypass(pass *Pass, fd *ast.FuncDecl, targets map[*types.Func]onceTarget, exempt map[*ast.CallExpr]bool) {
	if len(targets) == 0 {
		return
	}
	info := pass.Info
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || exempt[call] {
			return true
		}
		// The registration itself (once.Do(f)) passes f, it does not
		// call it; only genuine call expressions with f as the callee
		// count.
		fn := calleeFunc(info, call.Fun)
		t, isTarget := targets[fn]
		if !isTarget {
			return true
		}
		pass.Reportf(call.Pos(),
			"%s is guarded by %s.Do (%s) but called directly here: bypassing the Once races with the memoized initialization; route every caller through the Once",
			fn.Name(), t.once, pass.Fset.Position(t.oncePos))
		return true
	})
}
