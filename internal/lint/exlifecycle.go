package lint

import (
	"go/ast"
	"strings"
)

// ExLifecycle checks that every constructed exchanger — and every
// distributed Graph, whose boundary exchanges all run on a cached
// exchanger that owns a drainer goroutine — reaches Close() in the
// function that constructed it: directly, via defer, or via t.Cleanup.
// A value that escapes the function (returned, stored; an exchanger
// also when handed to another call) transfers the obligation to its
// new owner. Leaked exchangers leak a drainer goroutine and its posted
// rounds.
var ExLifecycle = &Analyzer{
	Name: "exlifecycle",
	Doc:  "every constructed DeltaExchanger and distributed Graph must reach Close() on all paths",
	Run:  runExLifecycle,
}

func runExLifecycle(pass *Pass) {
	inDgraph := strings.TrimSuffix(pass.Pkg.Path(), "-test") == dgraphPath
	for _, decl := range funcDecls(pass.Files) {
		// The engine's own methods vend, cache, and close exchangers
		// by design; its package-level functions and tests are callers
		// like any other and are held to the contract.
		if inDgraph && decl.Recv != nil {
			continue
		}
		checkExLifecycle(pass, decl)
	}
}

// ownedValue is one value this function must close.
type ownedValue struct {
	call *ast.CallExpr // construction site
	recv string        // the variable it was bound to ("" if discarded)
	what string        // diagnostic noun
}

func checkExLifecycle(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Info

	var owned []ownedValue
	closed := map[string]bool{}

	// Single pass in source order over all statements, including
	// closures (t.Cleanup bodies, defers).
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range st.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok {
					continue
				}
				c, ok := calleeOf(info, call)
				if !ok || c.pkg != dgraphPath {
					continue
				}
				bound := ""
				if i < len(st.Lhs) {
					bound = exprString(st.Lhs[i])
				}
				switch {
				case c.recv == "Graph" && c.name == "NewDeltaExchanger":
					owned = append(owned, ownedValue{call, bound, "exchanger"})
				case c.recv == "" && strings.HasPrefix(c.name, "FromEdge"):
					// Graph construction: the graph retains (and
					// closes) the exchanger its exchanges build, so
					// the graph must be closed. A graph received as a
					// parameter is its caller's problem.
					owned = append(owned, ownedValue{call, bound, "graph"})
				}
			}
		case *ast.CallExpr:
			// Close calls inside closures (t.Cleanup(func() { x.Close() }),
			// defers) are found by this same walk.
			if c, ok := calleeOf(info, st); ok && c.pkg == dgraphPath && c.name == "Close" {
				closed[recvString(st)] = true
			}
		}
		return true
	})
	escaped := handedOff(pass, fd.Body)

	for _, o := range owned {
		if o.recv == "" || o.recv == "_" {
			pass.Reportf(o.call.Pos(),
				"constructed %s is never bound to a variable, so it can never be closed: its drainer goroutine leaks", o.what)
			continue
		}
		if closed[o.recv] || escaped[o.recv] {
			continue
		}
		pass.Reportf(o.call.Pos(),
			"%s %s is never closed in this function: defer %s.Close() (or t.Cleanup) or the drainer goroutine leaks",
			o.what, o.recv, o.recv)
	}
}

// handedOff returns the exchangers and graphs a function hands to a
// new owner, keyed by their exprString: returned, sent, stored
// anywhere but a local, or — an exchanger only — passed to a call. The
// new owner then carries the Close obligation, and the Begin*/Flush*
// pairing may complete there.
func handedOff(pass *Pass, body ast.Node) map[string]bool {
	out := map[string]bool{}
	escapes(pass, body, func(e escape) {
		named := namedOf(pass.Info.TypeOf(e.value))
		if named == nil || e.kind == escCaptured {
			return
		}
		switch named.Obj().Name() {
		case "Graph":
			if e.kind == escCallArg || e.kind == escGoArg {
				return
			}
		case "DeltaExchanger":
		default:
			return
		}
		out[exprString(e.value)] = true
	})
	return out
}
