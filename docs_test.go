package repro_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Every internal package must carry a package comment ("// Package
// <name> ...") so `go doc` describes the whole tree; CI runs the same
// gate via scripts/check_docs.sh.
func TestEveryInternalPackageHasPackageComment(t *testing.T) {
	dirs, err := filepath.Glob("internal/*")
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no internal packages found; run from the repository root")
	}
	for _, dir := range dirs {
		name := filepath.Base(dir)
		re := regexp.MustCompile(`(?m)^// Package ` + regexp.QuoteMeta(name) + `[ \n]`)
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if re.Match(src) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("internal/%s has no package comment (want a doc.go or file starting %q)",
				name, "// Package "+name)
		}
	}
}

// The architecture document the README and godocs point at must exist
// and keep covering the exchange engines.
func TestArchitectureDocPresent(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("docs", "ARCHITECTURE.md"))
	if err != nil {
		t.Fatalf("docs/ARCHITECTURE.md missing: %v", err)
	}
	for _, want := range []string{"Package map", "async-delta", "Piggybacked tallies"} {
		if !strings.Contains(string(src), want) {
			t.Errorf("docs/ARCHITECTURE.md lost its %q section", want)
		}
	}
}

var (
	// bareDocRef matches a NAME.md not qualified by a directory.
	bareDocRef = regexp.MustCompile(`(?:^|[^\w./-])([\w-]+\.md)\b`)
	cmdRef     = regexp.MustCompile(`\bcmd/([\w-]+)`)
)

// Every document and command the README, the docs, the verify skill,
// and the Go sources mention must exist: a bare NAME.md at the root or
// under docs/, a cmd/NAME as a directory. The benchmark tree and lint
// fixtures are out of scope, as are the history logs (CHANGES.md,
// ROADMAP.md), which name retired files on purpose.
func TestDocReferencesResolve(t *testing.T) {
	files := []string{"README.md", filepath.Join(".claude", "skills", "verify", "SKILL.md")}
	docs, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, docs...)
	err = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path == "benchmark" || name == "testdata" || (name != "." && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		// This file spells out the patterns it checks for.
		if strings.HasSuffix(path, ".go") && path != "docs_test.go" {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	exists := func(path string) bool {
		_, err := os.Stat(path)
		return err == nil
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range bareDocRef.FindAllStringSubmatch(string(src), -1) {
			if name := m[1]; !exists(name) && !exists(filepath.Join("docs", name)) {
				t.Errorf("%s mentions %s, which is neither at the repository root nor under docs/", f, name)
			}
		}
		for _, m := range cmdRef.FindAllStringSubmatch(string(src), -1) {
			dir := filepath.Join("cmd", m[1])
			if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
				t.Errorf("%s mentions %s, which is not a command directory", f, dir)
			}
		}
	}
}
