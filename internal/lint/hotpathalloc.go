package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// HotPathAlloc turns the repo's AllocsPerRun == 0 benchmarks into a
// static guarantee: a function whose doc comment carries the
// //repro:hotpath directive must not contain heap-allocating
// constructs. Flagged: make/new, slice- and map-typed composite
// literals, &T{...}, fmt calls, function literals, go statements,
// string concatenation, append calls that do not follow the
// self-append discipline, and implicit interface boxing. Allowed by
// design: allocation inside a cap-guard (`if cap(buf) < n { buf =
// make(...) }` — the arena-grow idiom runs only until steady state)
// and anything inside a panic argument (failure paths may allocate).
var HotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc:  "//repro:hotpath functions must be free of heap allocations in steady state",
	Run:  runHotPathAlloc,
}

func runHotPathAlloc(pass *Pass) {
	probed := map[*types.Func][]allocFinding{}
	for _, decl := range funcDecls(pass.Files) {
		if hasDirective(decl, "//repro:hotpath") {
			checkHotPath(pass, decl, func(pos token.Pos, format string, args ...any) {
				pass.Reportf(pos, format, args...)
			})
			checkHotPathHelpers(pass, decl, probed)
		}
	}
}

// allocFinding is one allocation a helper probe found.
type allocFinding struct {
	pos token.Pos
	msg string
}

// checkHotPathHelpers closes the "wrap the allocation in a helper"
// evasion: every direct same-package callee of a //repro:hotpath
// function is probed with the same allocation rules (cap-guard growth,
// self-append, and panic paths still allowed), and a helper that
// allocates is reported at the hot-path call site. One level deep by
// design — a helper that itself needs helpers on the hot path should
// carry its own //repro:hotpath annotation, which checks it directly.
func checkHotPathHelpers(pass *Pass, fd *ast.FuncDecl, probed map[*types.Func][]allocFinding) {
	info := pass.Info
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		// Failure paths may allocate: don't descend into panic args.
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return false
			}
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(info, call.Fun)
		decl := pass.Graph.DeclOf(fn)
		if decl == nil || hasDirective(decl, "//repro:hotpath") {
			return true // not same-package, or already checked directly
		}
		finds, done := probed[fn]
		if !done {
			checkHotPath(pass, decl, func(pos token.Pos, format string, args ...any) {
				finds = append(finds, allocFinding{pos, fmt.Sprintf(format, args...)})
			})
			probed[fn] = finds
		}
		if len(finds) > 0 {
			f := finds[0]
			pass.Reportf(call.Pos(),
				"hot-path call to %s, which allocates at %s (%s): helpers reached from a //repro:hotpath function must follow the same allocation discipline",
				fn.Name(), pass.Fset.Position(f.pos), f.msg)
		}
		return true
	})
}

func checkHotPath(pass *Pass, fd *ast.FuncDecl, report func(pos token.Pos, format string, args ...any)) {
	info := pass.Info

	// Parameter objects, for the `return append(param, ...)` allowance
	// (append-into-caller-buffer is the arena idiom, the caller owns
	// the growth).
	params := map[types.Object]bool{}
	paramObjs(info, params, fd.Recv, fd.Type.Params)
	paramRooted := func(e ast.Expr) bool {
		root, _ := rootIdent(e)
		return root != nil && params[objOf(info, root)]
	}

	type ctx struct {
		inPanic    bool
		inCapGuard bool
		inReturn   bool
	}
	var walk func(n ast.Node, c ctx)

	isCapGuard := func(cond ast.Expr) bool {
		found := false
		ast.Inspect(cond, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && (id.Name == "cap" || id.Name == "len") {
					if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
						found = true
						return false
					}
				}
			}
			return true
		})
		return found
	}

	// Appends of the allowed `x = append(x, ...)` / `x =
	// append(x[:0], ...)` shape: the growth feeds back into its base.
	allowedAppends := map[ast.Expr]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, isCall := ast.Unparen(rhs).(*ast.CallExpr)
			if !isCall || len(call.Args) == 0 {
				continue
			}
			if id, isIdent := ast.Unparen(call.Fun).(*ast.Ident); !isIdent || id.Name != "append" {
				continue
			}
			base := ast.Unparen(call.Args[0])
			if s, isSlice := base.(*ast.SliceExpr); isSlice {
				base = s.X
			}
			if exprString(base) == exprString(as.Lhs[i]) {
				allowedAppends[call] = true
			}
		}
		return true
	})

	boxCheck := func(pos token.Pos, have types.Type, want types.Type, what string, c ctx) {
		if c.inPanic || have == nil || want == nil {
			return
		}
		if _, isIface := want.Underlying().(*types.Interface); !isIface {
			return
		}
		if _, haveIface := have.Underlying().(*types.Interface); haveIface {
			return
		}
		switch have.Underlying().(type) {
		case *types.Pointer, *types.Signature, *types.Map, *types.Slice, *types.Chan:
			// Pointer-shaped values convert without allocating.
			return
		}
		if have == types.Typ[types.UntypedNil] {
			return
		}
		if b, okB := have.Underlying().(*types.Basic); okB && b.Info()&types.IsUntyped != 0 {
			return
		}
		report(pos, "%s boxes %s into %s: interface conversion allocates on the hot path", what, have, want)
	}

	walk = func(n ast.Node, c ctx) {
		if n == nil {
			return
		}
		switch x := n.(type) {
		case *ast.IfStmt:
			if x.Init != nil {
				walk(x.Init, c)
			}
			walk(x.Cond, c)
			bodyCtx := c
			if isCapGuard(x.Cond) {
				bodyCtx.inCapGuard = true
			}
			walk(x.Body, bodyCtx)
			if x.Else != nil {
				walk(x.Else, bodyCtx)
			}
			return
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
				switch id.Name {
				case "panic":
					pc := c
					pc.inPanic = true
					for _, a := range x.Args {
						walk(a, pc)
					}
					return
				case "make", "new":
					if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && !c.inCapGuard && !c.inPanic {
						report(x.Pos(), "%s allocates on the hot path (allowed only inside a cap/len growth guard)", id.Name)
					}
				case "append":
					if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && !c.inPanic {
						okHere := allowedAppends[x] || c.inCapGuard ||
							(c.inReturn && len(x.Args) > 0 && paramRooted(x.Args[0]))
						if !okHere {
							report(x.Pos(), "append result does not feed back into its base: growth escapes the self-append discipline and may allocate every round")
						}
					}
				}
			}
			isFmt := false
			if callee, ok := calleeOf(info, x); ok {
				if callee.pkg == "fmt" && !c.inPanic {
					isFmt = true
					report(x.Pos(), "fmt.%s allocates (boxing + formatting) on the hot path", callee.name)
				}
			}
			// Implicit boxing at the call boundary (the fmt finding
			// above already covers its own argument boxing).
			if sig, ok := info.TypeOf(x.Fun).(*types.Signature); ok && sig != nil && !isFmt {
				np := sig.Params().Len()
				for i, a := range x.Args {
					var want types.Type
					switch {
					case sig.Variadic() && i >= np-1:
						if s, okS := sig.Params().At(np - 1).Type().(*types.Slice); okS && !x.Ellipsis.IsValid() {
							want = s.Elem()
						}
					case i < np:
						want = sig.Params().At(i).Type()
					}
					boxCheck(a.Pos(), info.TypeOf(a), want, "argument", c)
				}
			}
			for _, a := range x.Args {
				walk(a, c)
			}
			walk(x.Fun, c)
			return
		case *ast.CompositeLit:
			if !c.inPanic && !c.inCapGuard {
				if t := info.TypeOf(x); t != nil {
					switch t.Underlying().(type) {
					case *types.Slice, *types.Map:
						report(x.Pos(), "composite %s literal allocates on the hot path", t)
					}
				}
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND && !c.inPanic {
				if _, isLit := ast.Unparen(x.X).(*ast.CompositeLit); isLit {
					report(x.Pos(), "&composite literal escapes to the heap on the hot path")
				}
			}
		case *ast.FuncLit:
			if !c.inPanic {
				report(x.Pos(), "function literal allocates a closure on the hot path")
			}
			return // don't double-report its body
		case *ast.GoStmt:
			report(x.Pos(), "go statement allocates a goroutine on the hot path")
		case *ast.BinaryExpr:
			if x.Op == token.ADD && !c.inPanic {
				if t := info.TypeOf(x); t != nil {
					if b, okB := t.Underlying().(*types.Basic); okB && b.Info()&types.IsString != 0 && b.Info()&types.IsUntyped == 0 {
						report(x.Pos(), "string concatenation allocates on the hot path")
					}
				}
			}
		case *ast.ReturnStmt:
			rc := c
			rc.inReturn = true
			for _, r := range x.Results {
				walk(r, rc)
			}
			return
		case *ast.AssignStmt:
			// Boxing via assignment to an interface-typed lvalue.
			if len(x.Lhs) == len(x.Rhs) {
				for i := range x.Lhs {
					if x.Tok == token.DEFINE {
						continue
					}
					boxCheck(x.Rhs[i].Pos(), info.TypeOf(x.Rhs[i]), info.TypeOf(x.Lhs[i]), "assignment", c)
				}
			}
		}
		// Generic descent.
		ast.Inspect(n, func(m ast.Node) bool {
			if m == n {
				return true
			}
			walk(m, c)
			return false
		})
	}
	for _, s := range fd.Body.List {
		walk(s, ctx{})
	}
}
