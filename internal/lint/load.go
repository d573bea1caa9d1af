package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, type-checked unit of analysis.
type Package struct {
	// Path is the import path ("-test" suffixed for external test
	// packages).
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// moduleImporter resolves imports during type-checking: paths inside
// the module are parsed and checked from source (non-test files only,
// matching the go compiler's view of an import), everything else falls
// through to the standard library's source importer. All packages
// share one FileSet so positions stay comparable.
type moduleImporter struct {
	fset     *token.FileSet
	modPath  string
	modDir   string
	cache    map[string]*types.Package
	fallback types.Importer
}

// importers holds one moduleImporter per module root for the life of
// the process, so every Load and LoadDir call type-checks each module
// and standard-library package once (a source file edited after its
// package was first imported is not re-read). importMu serializes
// their use: an importer and its FileSet are not safe for concurrent
// checks.
var (
	importMu  sync.Mutex
	importers = map[string]*moduleImporter{}
)

// importerFor returns the process-wide importer of the module
// enclosing dir. The caller holds importMu until its checks are done.
func importerFor(dir string) (*moduleImporter, error) {
	modPath, modDir, err := moduleRoot(dir)
	if err != nil {
		return nil, err
	}
	if m, ok := importers[modDir]; ok {
		return m, nil
	}
	fset := token.NewFileSet()
	m := &moduleImporter{
		fset:     fset,
		modPath:  modPath,
		modDir:   modDir,
		cache:    map[string]*types.Package{},
		fallback: importer.ForCompiler(fset, "source", nil),
	}
	importers[modDir] = m
	return m, nil
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := m.cache[path]; ok {
		return pkg, nil
	}
	rel, inModule := strings.CutPrefix(path, m.modPath)
	if !inModule || (rel != "" && !strings.HasPrefix(rel, "/")) {
		return m.fallback.Import(path)
	}
	dir := filepath.Join(m.modDir, filepath.FromSlash(strings.TrimPrefix(rel, "/")))
	files, err := parseDir(m.fset, dir, false)
	if err != nil {
		return nil, fmt.Errorf("lint: importing %s: %w", path, err)
	}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(path, m.fset, files, nil)
	if err != nil {
		return nil, fmt.Errorf("lint: importing %s: %w", path, err)
	}
	m.cache[path] = pkg
	return pkg, nil
}

// parseDir parses a directory's .go files (optionally including
// _test.go files) as one package's file list, sorted by name for
// deterministic diagnostics.
func parseDir(fset *token.FileSet, dir string, tests bool) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasPrefix(n, ".") {
			continue
		}
		if !tests && strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	return parseFiles(fset, dir, names)
}

// parseFiles parses the named files of dir, in the given order.
func parseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// newInfo allocates the types.Info maps the analyzers rely on.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}

// listedPackage is the subset of `go list -json` output the loader
// consumes.
type listedPackage struct {
	Dir          string
	ImportPath   string
	Name         string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
}

// Load enumerates the packages matching the patterns (via `go list`,
// run in dir, which must sit inside the module) and returns each as a
// fully type-checked Package — in-package test files included, and
// external test packages (_test package suffix) as separate units.
func Load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		msg := err.Error()
		if ee, ok := err.(*exec.ExitError); ok && len(ee.Stderr) > 0 {
			msg = strings.TrimSpace(string(ee.Stderr))
		}
		return nil, fmt.Errorf("lint: go list %s: %s", strings.Join(patterns, " "), msg)
	}
	var listed []listedPackage
	dec := json.NewDecoder(strings.NewReader(string(out)))
	for dec.More() {
		var lp listedPackage
		if err := dec.Decode(&lp); err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		listed = append(listed, lp)
	}

	importMu.Lock()
	defer importMu.Unlock()
	imp, err := importerFor(dir)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, lp := range listed {
		units := []struct {
			path  string
			names []string
		}{
			{lp.ImportPath, append(append([]string{}, lp.GoFiles...), lp.TestGoFiles...)},
			{lp.ImportPath + "-test", lp.XTestGoFiles},
		}
		for _, u := range units {
			if len(u.names) == 0 {
				continue
			}
			files, err := parseFiles(imp.fset, lp.Dir, u.names)
			if err != nil {
				return nil, fmt.Errorf("lint: %w", err)
			}
			pkg, err := imp.check(u.path, files)
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

// LoadDir type-checks a single directory (all .go files, one package)
// against the enclosing module — the fixture loader behind the
// analysistest-style tests. The directory itself may live under
// testdata/, invisible to the go tool; its files may import module
// packages by their real paths.
func LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	importMu.Lock()
	defer importMu.Unlock()
	imp, err := importerFor(abs)
	if err != nil {
		return nil, err
	}
	files, err := parseDir(imp.fset, abs, true)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no .go files in %s", dir)
	}
	return imp.check("fixture/"+filepath.Base(abs), files)
}

// check type-checks one unit's parsed files against the module.
func (m *moduleImporter) check(path string, files []*ast.File) (*Package, error) {
	info := newInfo()
	conf := types.Config{Importer: m}
	tpkg, err := conf.Check(path, m.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Fset: m.fset, Files: files, Types: tpkg, Info: info}, nil
}

// moduleRoot walks up from dir to the enclosing go.mod and returns the
// module path and root directory.
func moduleRoot(dir string) (modPath, modDir string, err error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return strings.TrimSpace(rest), d, nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		d = parent
	}
}
