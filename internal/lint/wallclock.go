package lint

import (
	"go/ast"
	"go/types"
)

// WallClock flags ambient-entropy reads — time.Now / time.Since /
// time.Until and the seeded-by-the-runtime top-level math/rand
// functions — on the deterministic surface: functions annotated
// //repro:deterministic and everything they reach through
// same-package helpers. A value derived from the wall clock or from
// ambient randomness differs per run by construction, so it can never
// feed a result the bit-identity contract covers.
//
// Timing instrumentation is legitimate (Report.Time, sweep timings):
// a surface function whose doc comment also carries //repro:timing is
// allowlisted for the time.* reads — the annotation is the author's
// signed statement that the clock feeds only timing fields, never
// values. Ambient math/rand is never allowlisted; randomness on the
// surface must flow from an explicit seed (see seedflow).
var WallClock = &Analyzer{
	Name: "wallclock",
	Doc:  "no wall-clock or ambient-randomness reads on the deterministic surface (timing sites opt out with //repro:timing)",
	Run:  runWallClock,
}

var clockFuncs = map[callee]bool{
	{"time", "", "Now"}:   true,
	{"time", "", "Since"}: true,
	{"time", "", "Until"}: true,
}

func isAmbientRand(c callee) bool {
	// Package-level math/rand functions draw from the shared,
	// runtime-seeded source. Methods on an explicit *rand.Rand
	// (c.recv == "Rand") are fine — seedflow checks their seeding.
	return (c.pkg == "math/rand" || c.pkg == "math/rand/v2") && c.recv == ""
}

func runWallClock(pass *Pass) {
	surface := deterministicSurface(pass)
	if len(surface) == 0 {
		return
	}
	for _, fn := range pass.Graph.funcs {
		root, onSurface := surface[fn]
		if !onSurface {
			continue
		}
		decl := pass.Graph.DeclOf(fn)
		timingOK := hasDirective(decl, timingDirective)
		checkWallClock(pass, decl, fn, root, timingOK)
	}
}

func checkWallClock(pass *Pass, fd *ast.FuncDecl, fn, root *types.Func, timingOK bool) {
	info := pass.Info
	via := ""
	if root != fn {
		via = " (reached from //repro:deterministic " + root.Name() + ")"
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		c, ok := calleeOf(info, call)
		if !ok {
			return true
		}
		if clockFuncs[c] && !timingOK {
			pass.Reportf(call.Pos(),
				"time.%s on the deterministic surface%s: wall-clock values differ per run; if this is timing instrumentation only, annotate the function //repro:timing",
				c.name, via)
		}
		if isAmbientRand(c) {
			pass.Reportf(call.Pos(),
				"ambient math/rand.%s on the deterministic surface%s: the shared source is runtime-seeded, so draws differ per run; use an explicit rng.New(seed) stream",
				c.name, via)
		}
		return true
	})
}
