package lint_test

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/lint"
)

// wantRx matches the fixture expectation convention: a trailing
// comment `// want "regex"` on the line where a diagnostic must
// appear.
var wantRx = regexp.MustCompile(`//\s*want\s+(".*")\s*$`)

type want struct {
	file string
	line int
	rx   *regexp.Regexp
	hit  bool
}

// runFixture loads one testdata package, runs a single analyzer over
// it, and checks the findings against the file's want comments: every
// want must be matched by a finding on its line, and every finding
// must be claimed by a want.
func runFixture(t *testing.T, a *lint.Analyzer, dir string) {
	t.Helper()
	pkg, err := lint.LoadDir("testdata/" + dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRx.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pat, err := strconv.Unquote(m[1])
				if err != nil {
					t.Fatalf("%s: bad want pattern %s: %v", pkg.Fset.Position(c.Pos()), m[1], err)
				}
				pos := pkg.Fset.Position(c.Pos())
				wants = append(wants, &want{pos.Filename, pos.Line, regexp.MustCompile(pat), false})
			}
		}
	}
	diags := lint.RunAnalyzers(pkg, []*lint.Analyzer{a})
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.file == d.Pos.Filename && w.line == d.Pos.Line && w.rx.MatchString(d.Message) {
				w.hit = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no finding matching %q", w.file, w.line, w.rx)
		}
	}
}

func TestCollectiveSym(t *testing.T) { runFixture(t, lint.CollectiveSym, "collectivesym") }
func TestArenaEscape(t *testing.T)   { runFixture(t, lint.ArenaEscape, "arenaescape") }
func TestBeginFlush(t *testing.T)    { runFixture(t, lint.BeginFlush, "beginflush") }
func TestExLifecycle(t *testing.T)   { runFixture(t, lint.ExLifecycle, "exlifecycle") }
func TestHotPathAlloc(t *testing.T)  { runFixture(t, lint.HotPathAlloc, "hotpathalloc") }
func TestErrCheck(t *testing.T)      { runFixture(t, lint.ErrCheck, "errcheck") }

// The detlint family: determinism-contract analyzers.
func TestMapOrder(t *testing.T)  { runFixture(t, lint.MapOrder, "maporder") }
func TestFloatFold(t *testing.T) { runFixture(t, lint.FloatFold, "floatfold") }
func TestWallClock(t *testing.T) { runFixture(t, lint.WallClock, "wallclock") }
func TestSeedFlow(t *testing.T)  { runFixture(t, lint.SeedFlow, "seedflow") }

// TestIgnoreDirective checks that a reasoned //lint:ignore suppresses
// exactly the named analyzer's finding on the next line.
func TestIgnoreDirective(t *testing.T) { runFixture(t, lint.ErrCheck, "ignore") }

// TestBareIgnoreIsError checks that an ignore without an analyzer name
// and reason suppresses nothing and is itself reported.
func TestBareIgnoreIsError(t *testing.T) {
	pkg, err := lint.LoadDir("testdata/bareignore")
	if err != nil {
		t.Fatal(err)
	}
	diags := lint.RunAnalyzers(pkg, []*lint.Analyzer{lint.ErrCheck})
	var bare, errcheck int
	for _, d := range diags {
		switch {
		case strings.Contains(d.Message, "bare lint:ignore"):
			bare++
		case d.Analyzer == "errcheck":
			errcheck++
		default:
			t.Errorf("unexpected finding: %s", d)
		}
	}
	if bare != 1 || errcheck != 1 {
		t.Errorf("got %d bare-ignore and %d errcheck findings, want 1 and 1 (bare ignores must not suppress)", bare, errcheck)
	}
}

// TestLoadDirConcurrent loads fixtures from several goroutines at
// once: every load in the process shares one importer per module, so
// concurrent callers must be serialized (run it under -race).
func TestLoadDirConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for _, dir := range []string{"errcheck", "wallclock", "seedflow", "ignore"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := lint.LoadDir("testdata/" + dir); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

// TestTreeIsClean runs the full suite over the module — the same gate
// CI applies via cmd/reprolint. Skipped in -short runs, where the
// dedicated reprolint CI job covers it.
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("tree-wide lint runs in the reprolint CI job")
	}
	pkgs, err := lint.Load(".", "repro/...")
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for _, d := range lint.RunAnalyzers(pkg, lint.All) {
			t.Errorf("%s", d)
		}
	}
	if t.Failed() {
		fmt.Println("tree findings above: fix them or add a reasoned //lint:ignore")
	}
}
