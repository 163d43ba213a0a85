package usersignals

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

// TestCISelectorsMatchTests reads the CI workflow and requires every
// alternative of every -run, -bench and -fuzz pattern on a `go test` line to
// select some function of its kind in the packages that line names. A
// selector that matches nothing runs nothing and still passes, so a renamed
// test would silently drop out of its race or byte-identity job. Only the
// top level of a pattern is checked — the part of
// `ReplicaChaosFailoverGroupCommit/seed=3[123]` before the slash — and a
// parenthesized group counts as one alternative.
func TestCISelectorsMatchTests(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]*regexp.Regexp{
		"-run":   regexp.MustCompile(`^(Test|Fuzz|Example)`),
		"-bench": regexp.MustCompile(`^Benchmark`),
		"-fuzz":  regexp.MustCompile(`^Fuzz`),
	}
	selectors := 0
	for n, line := range strings.Split(string(data), "\n") {
		args := shellWords(line)
		at := -1
		for i := 0; i+1 < len(args); i++ {
			if args[i] == "go" && args[i+1] == "test" {
				at = i + 2
				break
			}
		}
		if at < 0 {
			continue
		}
		var pkgs []string
		var sels [][2]string // flag, pattern
		for i := at; i < len(args); i++ {
			a := args[i]
			if flag, pattern, ok := strings.Cut(a, "="); ok && kinds[flag] != nil {
				sels = append(sels, [2]string{flag, pattern})
			} else if kinds[a] != nil && i+1 < len(args) {
				sels = append(sels, [2]string{a, args[i+1]})
				i++
			} else if a == "." || strings.HasPrefix(a, "./") {
				pkgs = append(pkgs, a)
			}
		}
		if len(sels) == 0 {
			continue
		}
		funcs := testFuncs(t, pkgs)
		for _, sel := range sels {
			top, _, _ := cutTopLevel(sel[1], '/')
			if top == "^$" {
				continue // runs no test, on purpose
			}
			for _, alt := range splitTopLevel(top, '|') {
				selectors++
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("ci.yml:%d: %s alternative %q: %v", n+1, sel[0], alt, err)
					continue
				}
				found := false
				for _, fn := range funcs {
					if kinds[sel[0]].MatchString(fn) && re.MatchString(fn) {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("ci.yml:%d: %s alternative %q selects nothing in %v", n+1, sel[0], alt, pkgs)
				}
			}
		}
	}
	if selectors == 0 {
		t.Fatal("ci.yml names no -run, -bench or -fuzz selector: the parser has drifted from the workflow")
	}
}

// shellWords splits a workflow line into words the way the shell would for
// the simple quoting the workflow uses: whitespace outside quotes separates,
// and quotes are removed.
func shellWords(line string) []string {
	var words []string
	var cur strings.Builder
	var quote rune
	inWord := false
	for _, r := range line {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote != 0:
			cur.WriteRune(r)
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == ' ' || r == '\t':
			if inWord {
				words = append(words, cur.String())
				cur.Reset()
				inWord = false
			}
		default:
			cur.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		words = append(words, cur.String())
	}
	return words
}

// cutTopLevel cuts s at the first sep outside brackets and parentheses.
func cutTopLevel(s string, sep byte) (before, after string, found bool) {
	depth := 0
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '\\':
			i++
		case c == '(' || c == '[':
			depth++
		case c == ')' || c == ']':
			depth--
		case c == sep && depth == 0:
			return s[:i], s[i+1:], true
		}
	}
	return s, "", false
}

// splitTopLevel splits s at every sep outside brackets and parentheses.
func splitTopLevel(s string, sep byte) []string {
	var out []string
	for {
		before, after, found := cutTopLevel(s, sep)
		out = append(out, before)
		if !found {
			return out
		}
		s = after
	}
}

// testFuncs lists the top-level functions declared in the _test.go files of
// the packages: "." is the root package, "./x/..." every package under x of
// this module (a directory with its own go.mod is another module).
func testFuncs(t *testing.T, pkgs []string) []string {
	t.Helper()
	dirs := map[string]bool{}
	for _, p := range pkgs {
		root, recursive := strings.CutSuffix(p, "/...")
		if !recursive {
			dirs[filepath.Clean(p)] = true
			continue
		}
		err := filepath.WalkDir(filepath.Clean(root), func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			name := d.Name()
			if path != filepath.Clean(root) {
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil || name == "testdata" || strings.HasPrefix(name, ".") {
					return filepath.SkipDir
				}
			}
			dirs[path] = true
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var funcs []string
	fset := token.NewFileSet()
	for dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
					funcs = append(funcs, fn.Name.Name)
				}
			}
		}
	}
	return funcs
}
