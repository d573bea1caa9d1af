package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// SeedFlow checks that every RNG constructed on the deterministic
// surface is seeded from an explicit, caller-provided value: a
// parameter, a receiver field, a constant, or an expression built
// from those (including rng.Mix of rooted values). A generator whose
// seed cannot be traced to a seed parameter or config field is either
// ambient entropy in disguise (time.Now().UnixNano()) or a silent
// constant that will collide across streams — both break the
// fixed-seed reproducibility contract the harness's corpus runs rely
// on.
var SeedFlow = &Analyzer{
	Name: "seedflow",
	Doc:  "RNG construction on the deterministic surface must be seeded from a parameter, field, or constant — never ambient entropy",
	Run:  runSeedFlow,
}

// rngCtors maps constructor callees to the index of their seed
// argument.
var rngCtors = map[callee]int{
	{rngPath, "", "New"}:           0,
	{rngPath, "", "NewStream"}:     0,
	{"math/rand", "", "NewSource"}: 0,
	{"math/rand/v2", "", "NewPCG"}: 0,
}

func runSeedFlow(pass *Pass) {
	base := strings.TrimSuffix(pass.Pkg.Path(), "-test")
	if base == rngPath {
		return // the rng package is the mechanism, not a client
	}
	surface := deterministicSurface(pass)
	if len(surface) == 0 {
		return
	}
	for _, fn := range pass.Graph.funcs {
		if _, onSurface := surface[fn]; !onSurface {
			continue
		}
		checkSeedFlow(pass, pass.Graph.DeclOf(fn))
	}
}

func checkSeedFlow(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Info

	// rooted objects: parameters (of the declaration and of enclosing
	// function literals) and the receiver. Field selectors on a rooted
	// base are rooted transitively, so a config struct parameter roots
	// cfg.Seed.
	rooted := map[types.Object]bool{}
	paramObjs(info, rooted, fd.Recv, fd.Type.Params)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			paramObjs(info, rooted, lit.Type.Params)
		}
		return true
	})
	isConst := func(id *ast.Ident) bool {
		_, ok := objOf(info, id).(*types.Const)
		return ok
	}

	// isRooted decides whether an expression traces to a seed source.
	var isRooted func(e ast.Expr) bool
	isRooted = func(e ast.Expr) bool {
		switch x := ast.Unparen(e).(type) {
		case *ast.BasicLit:
			return true
		case *ast.SelectorExpr:
			if isConst(x.Sel) {
				return true // a package-qualified constant
			}
		case *ast.BinaryExpr:
			return isRooted(x.X) && isRooted(x.Y)
		case *ast.UnaryExpr:
			return isRooted(x.X)
		case *ast.CallExpr:
			// Conversions of rooted values stay rooted; rng.Mix mixes
			// rooted values into a rooted value.
			if c, ok := calleeOf(info, x); ok {
				if c.pkg == rngPath && (c.name == "Mix" || c.name == "New" || c.name == "NewStream") {
					for _, a := range x.Args {
						if !isRooted(a) {
							return false
						}
					}
					return true
				}
				return false
			}
			if tv, ok := info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
				return isRooted(x.Args[0])
			}
			return false
		}
		// A constant, or a variable access (a field or element chain)
		// whose root variable is rooted.
		root, _ := rootIdent(e)
		return root != nil && (isConst(root) || rooted[objOf(info, root)])
	}

	// Forward pass: a local assigned only from rooted expressions is
	// rooted. Two sweeps handle simple forward chains (a := seed;
	// b := a + 1) without full dataflow.
	for sweep := 0; sweep < 2; sweep++ {
		assignSweep(info, fd.Body, func(a assignment) bool {
			if a.res >= 0 {
				return false
			}
			if isRooted(a.rhs) {
				rooted[a.obj] = true
			} else if a.tok == token.ASSIGN {
				// Reassigned from a non-rooted value: taint.
				delete(rooted, a.obj)
			}
			return false
		})
	}

	ambient := func(e ast.Expr) string {
		found := ""
		ast.Inspect(e, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if c, ok := calleeOf(info, call); ok {
				if c.pkg == "time" || isAmbientRand(c) {
					found = c.pkg + "." + c.name
				}
			}
			return true
		})
		return found
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
		seedIdx, isCtor := rngCtors[c]
		if !isCtor || seedIdx >= len(call.Args) {
			return true
		}
		seed := call.Args[seedIdx]
		if isRooted(seed) {
			return true
		}
		if amb := ambient(seed); amb != "" {
			pass.Reportf(seed.Pos(),
				"%s.%s seeded from ambient entropy (%s): seeds on the deterministic surface must come from a seed parameter or config field so runs are replayable",
				c.pkg[strings.LastIndex(c.pkg, "/")+1:], c.name, amb)
			return true
		}
		pass.Reportf(seed.Pos(),
			"%s.%s seed does not trace to a seed parameter, receiver field, or constant: thread the run's seed (or rng.Mix of it) to this construction site",
			c.pkg[strings.LastIndex(c.pkg, "/")+1:], c.name)
		return true
	})
}
