package lint

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"
)

// BeginFlush checks the split-phase pairing contract on
// DeltaExchanger: every Begin* round a function opens must be closed
// by a matching Flush* (or the exchanger's Close) in the same
// function, and — when the pipeline depth is set from a compile-time
// constant in the same function — never more than that many rounds may
// be outstanding at once. A Begin with no Flush leaves the drainer
// holding a round forever; over-filling the pipeline blocks the poster
// in post() with no one to drain it.
var BeginFlush = &Analyzer{
	Name: "beginflush",
	Doc:  "every Begin* on a DeltaExchanger needs a matching Flush*/Close, at most PipeDepth rounds outstanding",
	Run:  runBeginFlush,
}

// exCall is one Begin*/Flush*-family call on a DeltaExchanger, in
// source order.
type exCall struct {
	pos   token.Pos
	recv  string
	name  string
	begin bool
}

func runBeginFlush(pass *Pass) {
	// The exchanger's own methods implement the protocol; the pairing
	// contract binds callers.
	if strings.TrimSuffix(pass.Pkg.Path(), "-test") == dgraphPath {
		return
	}
	for _, decl := range funcDecls(pass.Files) {
		checkBeginFlush(pass, decl)
	}
}

func checkBeginFlush(pass *Pass, fd *ast.FuncDecl) {
	var calls []exCall
	depth := map[string]int{} // receiver -> literal SetPipeDepth bound

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		c, ok := calleeOf(pass.Info, call)
		if !ok || c.pkg != dgraphPath {
			return true
		}
		recv := recvString(call)
		switch {
		case c.recv == "DeltaExchanger" && strings.HasPrefix(c.name, "Begin"):
			calls = append(calls, exCall{call.Pos(), recv, c.name, true})
		case c.recv == "DeltaExchanger" && (strings.HasPrefix(c.name, "Flush") || c.name == "Close"):
			// The Flush family and Close (which drains) retire
			// outstanding rounds.
			calls = append(calls, exCall{call.Pos(), recv, c.name, false})
		case c.recv == "Graph" && c.name == "SetPipeDepth" && len(call.Args) == 1:
			if lit, okLit := ast.Unparen(call.Args[0]).(*ast.BasicLit); okLit && lit.Kind == token.INT {
				if v, err := strconv.Atoi(lit.Value); err == nil {
					// The graph's depth governs exchangers it vends;
					// record under the graph receiver and apply to any
					// exchanger rooted at it below.
					depth[recv] = v
				}
			}
		}
		return true
	})
	if len(calls) == 0 {
		return
	}
	// An exchanger handed to a new owner (passed to a call, returned,
	// sent or stored) takes the pairing obligation with it.
	handed := handedOff(pass, fd.Body)

	// Rule A: a receiver with Begin* calls but zero Flush*/Close calls
	// anywhere in the function (and which never escapes) leaves its
	// rounds permanently outstanding. Only simple receivers (locals and
	// parameters) are held to same-function pairing: an exchanger
	// reached through a field (s.ex) belongs to a longer-lived object
	// whose methods legitimately split Begin and Flush across calls.
	hasFlush := map[string]bool{}
	for _, c := range calls {
		if !c.begin {
			hasFlush[c.recv] = true
		}
	}
	reportedA := map[string]bool{}
	for _, c := range calls {
		if c.begin && !hasFlush[c.recv] && !handed[c.recv] && !reportedA[c.recv] &&
			!strings.Contains(c.recv, ".") {
			reportedA[c.recv] = true
			pass.Reportf(c.pos,
				"%s.%s has no matching Flush*/Close on %s in this function: the round stays outstanding and the drainer never releases it",
				c.recv, c.name, c.recv)
		}
	}

	// Rule B: with a compile-time SetPipeDepth bound in scope, a linear
	// scan in source order must never see more than that many rounds
	// outstanding on one receiver. The bound recorded for a graph g
	// applies to exchangers spelled as a selection rooted at g or to
	// the sole exchanger of the function when only one graph bound
	// exists.
	if len(depth) == 0 {
		return
	}
	soleRecv := true
	for _, c := range calls {
		soleRecv = soleRecv && c.recv == calls[0].recv
	}
	boundFor := func(recv string) (int, bool) {
		for g, d := range depth {
			if recv == g || strings.HasPrefix(recv, g+".") {
				return d, true
			}
		}
		if len(depth) == 1 && soleRecv {
			for _, d := range depth {
				return d, true
			}
		}
		return 0, false
	}
	outstanding := map[string]int{}
	reportedB := map[string]bool{}
	for _, c := range calls {
		if c.begin {
			outstanding[c.recv]++
			if b, ok := boundFor(c.recv); ok && outstanding[c.recv] > b && !reportedB[c.recv] {
				reportedB[c.recv] = true
				pass.Reportf(c.pos,
					"%d rounds outstanding on %s exceeds the pipeline depth %d set by SetPipeDepth: post() will block with no drainer progress",
					outstanding[c.recv], c.recv, b)
			}
		} else if outstanding[c.recv] > 0 {
			outstanding[c.recv]--
		}
	}
}
