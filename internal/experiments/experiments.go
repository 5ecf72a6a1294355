// Package experiments regenerates every figure of the paper and turns its
// analytic claims into measured tables: the paper reproduction, run by
// `sss figures` and examples/paperfigures. It measures nothing a
// performance claim may cite — that is benchmark/'s job.
//
// Each experiment validates its own invariants (golden figure values,
// oracle agreement, detection rates) and returns an error on any mismatch,
// so the whole harness doubles as an integration test.
package experiments

import (
	"fmt"
	"io"
	"math/big"
	"sort"
	"strconv"
	"strings"
)

// Config tunes experiment scale.
type Config struct {
	// Quick shrinks workloads for use inside `go test`.
	Quick bool
}

// Experiment is one reproducible unit: a paper figure or claim.
type Experiment struct {
	// ID is the harness handle, e.g. "fig3", "pruning".
	ID string
	// Ref points at the paper artifact, e.g. "Figure 3" or "§5 storage".
	Ref string
	// Title is a one-line description.
	Title string
	// Run executes the experiment, writing its table(s) to w.
	Run func(w io.Writer, cfg Config) error
}

// registry holds all experiments in presentation order.
var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns every experiment in order.
func All() []Experiment { return append([]Experiment(nil), registry...) }

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Table is a simple aligned text table.
type Table struct {
	Headers []string
	Rows    [][]string
}

// Add appends a row (values are Sprint-ed; the common cell types skip the
// fmt machinery — the figure experiments render thousands of big.Int and
// integer cells per run and the reflection cost used to dominate them).
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = strconv.FormatFloat(v, 'f', 3, 64)
		case int:
			row[i] = strconv.Itoa(v)
		case int64:
			row[i] = strconv.FormatInt(v, 10)
		case *big.Int:
			if v.IsInt64() {
				row[i] = strconv.FormatInt(v.Int64(), 10)
			} else {
				row[i] = v.String()
			}
		case fmt.Stringer:
			row[i] = v.String()
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table with aligned columns. The whole table is built
// in one buffer and written with a single Write: rendering runs inside
// every figure benchmark iteration, so per-line fmt round trips and
// strings.Repeat padding allocations are worth avoiding.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	maxWidth := 0
	for _, wd := range widths {
		if wd > maxWidth {
			maxWidth = wd
		}
	}
	spaces := strings.Repeat(" ", maxWidth)
	var sb strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if pad := widths[i] - len(c); pad > 0 && i < len(cells)-1 {
				sb.WriteString(spaces[:pad])
			}
		}
		sb.WriteByte('\n')
	}
	line(t.Headers)
	rule := make([]string, len(t.Headers))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	line(rule)
	for _, row := range t.Rows {
		line(row)
	}
	io.WriteString(w, sb.String())
}

// sortedPaths orders the paper's five node paths for stable output.
func sortedPaths(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
