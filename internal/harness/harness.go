package harness

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Scale selects experiment sizing.
type Scale int

// Scales.
const (
	// Small targets seconds per experiment (tests, benchmarks).
	Small Scale = iota
	// Full targets the largest sizes that are comfortable on one
	// machine (cmd/experiments default).
	Full
)

// ParseScale maps a flag string to a Scale.
func ParseScale(s string) (Scale, error) {
	switch strings.ToLower(s) {
	case "small":
		return Small, nil
	case "full":
		return Full, nil
	default:
		return Small, fmt.Errorf("harness: unknown scale %q (small|full)", s)
	}
}

// String names the scale ("small" or "full").
func (s Scale) String() string {
	if s == Full {
		return "full"
	}
	return "small"
}

// Config parameterizes one experiment run.
type Config struct {
	// W receives the experiment's table output.
	W io.Writer
	// Scale selects sizing.
	Scale Scale
	// Seed fixes all randomness.
	Seed uint64
}

// value of Seed when the caller leaves it zero.
const defaultSeed = 1

func (c *Config) seed() uint64 {
	if c.Seed == 0 {
		return defaultSeed
	}
	return c.Seed
}

// table is a minimal fixed-width table printer.
type table struct {
	w      io.Writer
	header []string
	widths []int
	rows   [][]string
}

func newTable(w io.Writer, header ...string) *table {
	t := &table{w: w, header: header, widths: make([]int, len(header))}
	for i, h := range header {
		t.widths[i] = len(h)
	}
	return t
}

func (t *table) add(cells ...string) {
	for i, c := range cells {
		if i < len(t.widths) && len(c) > t.widths[i] {
			t.widths[i] = len(c)
		}
	}
	t.rows = append(t.rows, cells)
}

func (t *table) addf(format string, args ...any) {
	t.add(strings.Split(fmt.Sprintf(format, args...), "|")...)
}

func (t *table) flush() {
	line := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for pad := len(c); pad < t.widths[i]; pad++ {
				b.WriteByte(' ')
			}
		}
		fmt.Fprintln(t.w, strings.TrimRight(b.String(), " "))
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", t.widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
}

// secs renders a duration as seconds with 3 decimals.
func secs(d time.Duration) string {
	return fmt.Sprintf("%.3f", d.Seconds())
}

// Experiment names in canonical order.
var Names = []string{
	"table1", "fig1", "fig2", "trillion", "table2", "fig3",
	"fig4", "fig5", "fig6", "fig7", "fig8", "table3",
	"convergence", "ablation",
}

// Run dispatches an experiment by name.
func Run(name string, cfg Config) error {
	switch strings.ToLower(name) {
	case "table1":
		return Table1(cfg)
	case "fig1":
		return Fig1(cfg)
	case "fig2":
		return Fig2(cfg)
	case "trillion":
		return Trillion(cfg)
	case "table2":
		return Table2(cfg)
	case "fig3":
		return Fig3(cfg)
	case "fig4":
		return Fig4(cfg)
	case "fig5":
		return Fig5(cfg)
	case "fig6":
		return Fig6(cfg)
	case "fig7":
		return Fig7(cfg)
	case "fig8":
		return Fig8(cfg)
	case "table3":
		return Table3(cfg)
	case "convergence":
		return Convergence(cfg)
	case "ablation":
		return Ablation(cfg)
	default:
		return fmt.Errorf("harness: unknown experiment %q (have %v)", name, Names)
	}
}
