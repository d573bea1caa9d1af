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
	for _, unit := range funcUnits(pass.Files) {
		// The engine's own methods vend, cache, and close exchangers
		// by design; its package-level functions and tests are callers
		// like any other and are held to the contract.
		if inDgraph && recvTypeName(unit.decl) != "" {
			continue
		}
		checkExLifecycle(pass, unit.decl)
	}
}

// owned is one value this function must close.
type ownedValue struct {
	call *ast.CallExpr // construction site
	recv string        // the variable it was bound to ("" if discarded)
	what string        // diagnostic noun
}

func checkExLifecycle(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Info

	var owned []ownedValue
	closed := map[string]bool{}
	escaped := map[string]bool{}

	bindLHS := func(as *ast.AssignStmt, i int) string {
		if as == nil || i >= len(as.Lhs) {
			return ""
		}
		if isBlank(as.Lhs[i]) {
			return "_"
		}
		return exprString(as.Lhs[i])
	}

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
				idx := i
				if len(st.Rhs) == 1 {
					idx = 0
				}
				switch {
				case c.recv == "Graph" && c.name == "NewDeltaExchanger":
					owned = append(owned, ownedValue{call, bindLHS(st, idx), "exchanger"})
				case c.recv == "" && strings.HasPrefix(c.name, "FromEdge"):
					// Graph construction: the graph retains (and
					// closes) the exchanger its exchanges build, so
					// the graph must be closed. A graph received as a
					// parameter is its caller's problem.
					owned = append(owned, ownedValue{call, bindLHS(st, idx), "graph"})
				}
			}
		case *ast.CallExpr:
			c, ok := calleeOf(info, st)
			if !ok {
				return true
			}
			if c.pkg == dgraphPath && c.name == "Close" {
				closed[recvString(st)] = true
			}
			// t.Cleanup(func() { ... x.Close() ... }) and any helper
			// taking a closure: Close calls inside are found by this
			// same Inspect (it descends into FuncLits), so nothing
			// special is needed for detection. But passing the value
			// itself to another function transfers ownership:
			for _, a := range st.Args {
				if t := info.TypeOf(a); t != nil {
					if named := namedOf(t); named != nil && named.Obj().Name() == "DeltaExchanger" {
						escaped[exprString(a)] = true
					}
				}
			}
		case *ast.ReturnStmt:
			for _, r := range st.Results {
				if t := info.TypeOf(r); t != nil {
					if named := namedOf(t); named != nil {
						switch named.Obj().Name() {
						case "DeltaExchanger", "Graph":
							escaped[exprString(r)] = true
						}
					}
				}
			}
		case *ast.SendStmt:
			if t := info.TypeOf(st.Value); t != nil {
				if named := namedOf(t); named != nil && named.Obj().Name() == "DeltaExchanger" {
					escaped[exprString(st.Value)] = true
				}
			}
		}
		return true
	})

	// Field/container stores escape too: x.ex = ex.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			switch ast.Unparen(lhs).(type) {
			case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
				ri := i
				if len(as.Rhs) == 1 {
					ri = 0
				}
				if ri < len(as.Rhs) {
					escaped[exprString(as.Rhs[ri])] = true
				}
			}
		}
		return true
	})

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
