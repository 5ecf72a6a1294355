package sssearch

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// ciWorkflow is the workflow whose go test lines TestCIPatternsMatchTests
// checks.
const ciWorkflow = ".github/workflows/ci.yml"

// TestCIPatternsMatchTests: every alternative of every -run, -bench and
// -fuzz pattern on a go test line of the CI workflow matches at least one
// Test, Fuzz or Benchmark function of the packages the line names (./...
// names them all). A pattern that matches nothing passes silently, so a
// renamed or deleted test would otherwise drop out of its CI step unseen.
// '^$', which runs nothing on purpose, is skipped, and so is a subtest
// suffix after '/'.
func TestCIPatternsMatchTests(t *testing.T) {
	yml, err := os.ReadFile(ciWorkflow)
	if err != nil {
		t.Fatal(err)
	}
	funcs := testFuncs(t)
	lines := 0
	for n, line := range strings.Split(string(yml), "\n") {
		args, ok := goTestArgs(line)
		if !ok {
			continue
		}
		lines++
		var pkgs []string
		for _, a := range args {
			if a == "." || strings.HasPrefix(a, "./") {
				pkgs = append(pkgs, strings.TrimSuffix(strings.TrimPrefix(a, "./"), "/"))
			}
		}
		for i, a := range args {
			flag, pattern, ok := patternFlag(a, args[i+1:])
			if !ok {
				continue
			}
			for _, alt := range alternatives(pattern) {
				if alt == "^$" {
					continue
				}
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("%s:%d: %s alternative %q: %v", ciWorkflow, n+1, flag, alt, err)
					continue
				}
				if !matchesSome(re, flag, pkgs, funcs) {
					t.Errorf("%s:%d: %s alternative %q matches no function in %v", ciWorkflow, n+1, flag, alt, pkgs)
				}
			}
		}
	}
	if lines < 10 {
		t.Fatalf("found %d go test lines in %s, want the workflow's", lines, ciWorkflow)
	}
}

// goTestArgs splits a workflow line that runs go test into its arguments,
// single quotes removed.
func goTestArgs(line string) ([]string, bool) {
	line = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "run:"))
	rest, ok := strings.CutPrefix(line, "go test ")
	if !ok {
		return nil, false
	}
	var args []string
	for _, f := range strings.Fields(rest) {
		args = append(args, strings.ReplaceAll(f, "'", ""))
	}
	return args, true
}

// patternFlag reports whether arg is -run, -bench or -fuzz, in either the
// -flag=pattern or the -flag pattern form (next holds the arguments after
// arg), and returns the flag and its pattern.
func patternFlag(arg string, next []string) (string, string, bool) {
	for _, flag := range []string{"-run", "-bench", "-fuzz"} {
		if p, ok := strings.CutPrefix(arg, flag+"="); ok {
			return flag, p, true
		}
		if arg == flag && len(next) > 0 {
			return flag, next[0], true
		}
	}
	return "", "", false
}

// alternatives splits a pattern's top level, up to its first '/', at '|'.
func alternatives(pattern string) []string {
	var out []string
	depth, from := 0, 0
	for i, c := range pattern {
		switch {
		case c == '(' || c == '[':
			depth++
		case c == ')' || c == ']':
			depth--
		case depth == 0 && c == '/':
			return append(out, pattern[from:i])
		case depth == 0 && c == '|':
			out = append(out, pattern[from:i])
			from = i + 1
		}
	}
	return append(out, pattern[from:])
}

// matchesSome reports whether re matches a function the flag selects —
// Test or Fuzz for -run, Benchmark for -bench, Fuzz for -fuzz — in one of
// pkgs ("..." is every package).
func matchesSome(re *regexp.Regexp, flag string, pkgs []string, funcs map[string][]string) bool {
	prefixes := map[string][]string{"-run": {"Test", "Fuzz"}, "-bench": {"Benchmark"}, "-fuzz": {"Fuzz"}}[flag]
	for dir, names := range funcs {
		named := false
		for _, p := range pkgs {
			named = named || p == "..." || p == dir
		}
		if !named {
			continue
		}
		for _, name := range names {
			for _, prefix := range prefixes {
				if strings.HasPrefix(name, prefix) && re.MatchString(name) {
					return true
				}
			}
		}
	}
	return false
}

// testFuncs maps each package directory of the module ("." for the root)
// to the top-level functions of its test files.
func testFuncs(t *testing.T) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				out[dir] = append(out[dir], fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
