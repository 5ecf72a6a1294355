package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestAllExperimentsQuick runs the entire harness in quick mode. Every
// experiment validates its own golden values and invariants, so this is
// simultaneously the integration test for the full reproduction.
func TestAllExperimentsQuick(t *testing.T) {
	var buf bytes.Buffer
	for _, e := range All() {
		if err := e.Run(&buf, Config{Quick: true}); err != nil {
			t.Fatalf("experiment %s: %v\noutput so far:\n%s", e.ID, err, buf.String())
		}
	}
	out := buf.String()
	// Spot-check that the headline figures made it into the output.
	for _, needle := range []string{
		"3x^3 + 3x^2 + 3x + 3", // figure 2(a) root
		"265x + 45",            // figure 2(b) root
		"256x + 57",            // figure 4 server root share
		"dead branch",          // figures 5/6 classification
		"majority",             // voting table
	} {
		if !strings.Contains(out, needle) {
			t.Errorf("output missing %q", needle)
		}
	}
}

func TestRegistryShape(t *testing.T) {
	all := All()
	if len(all) < 17 {
		t.Fatalf("only %d experiments registered", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
	}
	for _, want := range []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
		"storage", "pruning", "compare", "trusted", "seedonly", "multiserver",
		"coeffgrowth", "advanced", "verify", "voting", "content"} {
		if !seen[want] {
			t.Errorf("experiment %q missing", want)
		}
	}
	if _, ok := ByID("fig3"); !ok {
		t.Error("ByID failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("phantom experiment")
	}
}

func TestSingleExperiments(t *testing.T) {
	// Each figure experiment individually (fast, golden-value checks).
	for _, id := range []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		var buf bytes.Buffer
		if err := e.Run(&buf, Config{Quick: true}); err != nil {
			t.Errorf("%s: %v", id, err)
		}
		if buf.Len() == 0 {
			t.Errorf("%s produced no output", id)
		}
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{Headers: []string{"a", "bb"}}
	tab.Add(1, "x")
	tab.Add("long-cell", 3.14159)
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "long-cell") || !strings.Contains(out, "3.142") {
		t.Errorf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Errorf("table has %d lines", len(lines))
	}
}
