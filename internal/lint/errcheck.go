package lint

import (
	"go/ast"
)

// ErrCheck is the curated unchecked-error check for the file-writing
// paths: output written to disk silently truncates when
// Create/Encode/Flush/Close errors are dropped, and the files the
// repository writes are read back by other tools — edge lists
// (graph/io.go), part assignments (partition/io.go), and the
// reprolint -json findings (lint/audit.go). Only the os / encoding-json
// / bufio / tabwriter surfaces those writers use are checked — this is
// a contract gate, not a general linter.
// A deferred Close is allowed (the error has nowhere to go); a bare
// `f.Close()` statement is not.
var ErrCheck = &Analyzer{
	Name: "errcheck",
	Doc:  "error results on artifact/file-handling paths must be checked",
	Run:  runErrCheck,
}

// errFuncs maps callees to check; all of these return error as their
// only or last result.
var errFuncs = map[callee]bool{
	{"os", "", "Chdir"}:     true,
	{"os", "", "Mkdir"}:     true,
	{"os", "", "MkdirAll"}:  true,
	{"os", "", "Remove"}:    true,
	{"os", "", "RemoveAll"}: true,
	{"os", "", "Rename"}:    true,
	{"os", "", "WriteFile"}: true,
	{"os", "File", "Close"}: true,
	{"os", "File", "Sync"}:  true,

	{"encoding/json", "Encoder", "Encode"}: true,

	{"bufio", "Writer", "Flush"}:          true,
	{"text/tabwriter", "Writer", "Flush"}: true,

	{"io", "Closer", "Close"}:      true,
	{"io", "WriteCloser", "Close"}: true,
}

func runErrCheck(pass *Pass) {
	for _, decl := range funcDecls(pass.Files) {
		checkErrs(pass, decl)
	}
}

func checkErrs(pass *Pass, fd *ast.FuncDecl) {
	flag := func(call *ast.CallExpr) {
		c, ok := calleeOf(pass.Info, call)
		if !ok || !errFuncs[c] {
			return
		}
		pass.Reportf(call.Pos(), "error result of %s.%s is discarded: check it or the artifact silently goes bad", c.pkg, c.qualName())
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.ExprStmt:
			if call, ok := st.X.(*ast.CallExpr); ok {
				flag(call)
			}
		case *ast.AssignStmt:
			// _ = f.Close() and f, _ := ... shapes: flag when the error
			// position is blanked.
			if len(st.Rhs) != 1 {
				return true
			}
			call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr)
			if !ok || len(st.Lhs) == 0 {
				return true
			}
			if isBlank(st.Lhs[len(st.Lhs)-1]) {
				flag(call)
			}
		case *ast.GoStmt:
			flag(st.Call)
		}
		return true
	})
}
