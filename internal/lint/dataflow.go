package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The dataflow layer: the function-local walks the analyzers share.
// Each is syntactic over one declaration's body, closures included,
// and resolves identifiers through the type info; what a walk finds is
// judged by the analyzer that asked.

// rootIdent walks an access path down to the identifier it starts
// from: through selectors, index and slice expressions, dereferences,
// and the base argument of append. It returns nil when the path starts
// at anything else (a call, a literal). view reports whether only
// slicing was passed, so e shares the root's backing array rather than
// naming a part of it.
func rootIdent(e ast.Expr) (root *ast.Ident, view bool) {
	view = true
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x, view
		case *ast.SliceExpr:
			e = x.X
			continue
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.CallExpr:
			id, ok := ast.Unparen(x.Fun).(*ast.Ident)
			if !ok || id.Name != "append" || len(x.Args) == 0 {
				return nil, false
			}
			e = x.Args[0]
		default:
			return nil, false
		}
		view = false
	}
}

// declaredIn reports whether id's object is declared within node.
func declaredIn(info *types.Info, id *ast.Ident, node ast.Node) bool {
	obj := objOf(info, id)
	return obj != nil && obj.Pos() >= node.Pos() && obj.Pos() <= node.End()
}

// paramObjs adds the variables the field lists declare — a
// declaration's receiver and parameters, a literal's parameters — to
// set.
func paramObjs(info *types.Info, set map[types.Object]bool, lists ...*ast.FieldList) {
	for _, fl := range lists {
		if fl == nil {
			continue
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if o := info.Defs[name]; o != nil {
					set[o] = true
				}
			}
		}
	}
}

// assignment is one variable's part in an assignment statement: the
// variable on the left and the value it receives. In a tuple
// assignment from one call (v, ok := f()) each variable gets the call
// and its result index.
type assignment struct {
	lhs *ast.Ident
	obj types.Object
	rhs ast.Expr
	res int // result index into a tuple-valued rhs, or -1
	tok token.Token
}

// assignSweep visits, in source order, every assignment in body to a
// named variable and reports whether any step changed the caller's
// state (step says so by returning true). An object-keyed analysis
// runs it once, a fixed number of times, or until nothing changes.
func assignSweep(info *types.Info, body ast.Node, step func(a assignment) bool) bool {
	changed := false
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		tuple := len(as.Lhs) > 1 && len(as.Rhs) == 1
		for i, l := range as.Lhs {
			id, ok := ast.Unparen(l).(*ast.Ident)
			if !ok || id.Name == "_" || (!tuple && i >= len(as.Rhs)) {
				continue
			}
			a := assignment{lhs: id, obj: objOf(info, id), res: -1, tok: as.Tok}
			if tuple {
				a.rhs, a.res = as.Rhs[0], i
			} else {
				a.rhs = as.Rhs[i]
			}
			if a.obj != nil && step(a) {
				changed = true
			}
		}
		return true
	})
	return changed
}

// findCall returns the first call in n (in source order) whose callee
// is in set.
func findCall(info *types.Info, n ast.Node, set map[callee]bool) (callee, bool) {
	var found callee
	hit := false
	ast.Inspect(n, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok && !hit {
			if c, ok := calleeOf(info, call); ok && set[c] {
				found, hit = c, true
			}
		}
		return !hit
	})
	return found, hit
}

func isFloatExpr(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func isMapExpr(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// floatFolds calls found for each float accumulation one assignment
// performs — x += v, x -= v, x *= v, or x = x op v with op one of + -
// * — into a target outside scope. A target that mentions a variable
// declared inside scope is the scope's own and is not reported: a
// local accumulator, or a slot indexed by a scope-local (out[i] += v
// in a worker, acc[k] += v under a map range), which each index
// reaches once, so no fold order arises.
func floatFolds(info *types.Info, as *ast.AssignStmt, scope ast.Node, found func(rhs, target ast.Expr)) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, l := range as.Lhs {
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN:
		case token.ASSIGN:
			bin, ok := ast.Unparen(as.Rhs[i]).(*ast.BinaryExpr)
			if !ok || (bin.Op != token.ADD && bin.Op != token.SUB && bin.Op != token.MUL) || exprString(bin.X) != exprString(l) {
				continue
			}
		default:
			return
		}
		if root, _ := rootIdent(l); root == nil || objOf(info, root) == nil || !isFloatExpr(info, l) {
			continue
		}
		own := false
		ast.Inspect(l, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && declaredIn(info, id, scope) {
				own = true
			}
			return !own
		})
		if !own {
			found(as.Rhs[i], l)
		}
	}
}

// escapeKind is how a value leaves the statement that uses it.
type escapeKind int

const (
	escReturn    escapeKind = iota // returned
	escSend                        // sent on a channel
	escField                       // stored into a field: x.f = v
	escContainer                   // stored into an element: x[i] = v
	escPointer                     // stored through a pointer: *p = v
	escGlobal                      // stored into a package variable
	escCallArg                     // passed to a call
	escGoArg                       // passed to a go statement's call
	escCaptured                    // captured by a go statement's literal
)

// escape is one value leaving its statement: how, the value, the
// statement or call it leaves through, the destination of a store, and
// whether it happens inside a function literal (whose returns stay in
// the enclosing frame).
type escape struct {
	kind  escapeKind
	value ast.Expr
	at    ast.Node
	dest  ast.Expr
	inLit bool
}

// escapes walks body in source order and calls visit for every value
// that is returned, sent, stored anywhere but a local variable, passed
// to a call, or handed to a goroutine (as an argument or a captured
// variable, once per variable and go statement).
func escapes(pass *Pass, body ast.Node, visit func(escape)) {
	info := pass.Info
	var walk func(root ast.Node, inLit bool)
	walk = func(root ast.Node, inLit bool) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncLit:
				walk(x.Body, true)
				return false
			case *ast.AssignStmt:
				for i, lhs := range x.Lhs {
					if i >= len(x.Rhs) && len(x.Rhs) != 1 {
						break
					}
					e := escape{value: x.Rhs[min(i, len(x.Rhs)-1)], at: x, dest: lhs, inLit: inLit}
					switch d := ast.Unparen(lhs).(type) {
					case *ast.SelectorExpr:
						e.kind = escField
					case *ast.IndexExpr:
						e.kind = escContainer
					case *ast.StarExpr:
						e.kind = escPointer
					case *ast.Ident:
						if o := objOf(info, d); o == nil || o.Parent() != pass.Pkg.Scope() {
							continue
						}
						e.kind = escGlobal
					default:
						continue
					}
					visit(e)
				}
			case *ast.ReturnStmt:
				for _, r := range x.Results {
					visit(escape{kind: escReturn, value: r, at: x, inLit: inLit})
				}
			case *ast.SendStmt:
				visit(escape{kind: escSend, value: x.Value, at: x, inLit: inLit})
			case *ast.GoStmt:
				for _, a := range x.Call.Args {
					visit(escape{kind: escGoArg, value: a, at: x, inLit: inLit})
				}
				lit, ok := ast.Unparen(x.Call.Fun).(*ast.FuncLit)
				if !ok {
					break
				}
				seen := map[types.Object]bool{}
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok {
						if v, isVar := info.Uses[id].(*types.Var); isVar && !seen[v] && !declaredIn(info, id, lit) {
							seen[v] = true
							visit(escape{kind: escCaptured, value: id, at: x, inLit: inLit})
						}
					}
					return true
				})
			case *ast.CallExpr:
				for _, a := range x.Args {
					visit(escape{kind: escCallArg, value: a, at: x, inLit: inLit})
				}
			}
			return true
		})
	}
	walk(body, false)
}
