package usaas

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"net/url"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"usersignals/internal/telemetry"
)

// paramUsers lists every list of parameter-table rows in use, by who reads
// it: each read endpoint's plan and each /v1/partials section.
func paramUsers() map[string][]string {
	users := map[string][]string{}
	for _, e := range readEndpoints {
		users[e.path] = e.params
	}
	for _, sec := range partialsSections {
		users["/v1/partials?sections="+sec.name] = sec.params
	}
	return users
}

// sampleValue is a value of the row's kind that a required use can be given.
func sampleValue(p *readParam) string {
	switch p.kind {
	case metricParam:
		return telemetry.LossMean.String()
	case engagementParam:
		return telemetry.CamOn.String()
	}
	return "ISP A"
}

// TestReadParamsTable: the parameter table is the one declaration of every
// query parameter the read surface reads. Every row has one name and is read
// by some plan or section; every name a plan or section lists, and every
// name any code of the package asks arg for, is a row; only the read path's
// serve and the /v1/partials handler read a query at all. Each row's default
// lies in its range, each use list parses with only its required rows given
// (so a rule's partner row is listed before it) and round-trips its canonical
// encoding, and every number outside a row's range — NaN and the infinities
// included — is refused with an error naming the parameter.
func TestReadParamsTable(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range readParams {
		if seen[p.name] {
			t.Errorf("row %q declared twice", p.name)
		}
		seen[p.name] = true
	}
	read := map[string]bool{}
	for user, uses := range paramUsers() {
		q := url.Values{}
		for _, use := range uses {
			name, required := strings.CutSuffix(use, "!")
			if !seen[name] {
				t.Fatalf("%s reads %q, which has no row", user, name)
			}
			if read[name] = true; required {
				p, _ := paramOf(use)
				q.Set(name, sampleValue(p))
			}
		}
		a, err := parseParams(q, uses)
		if err != nil {
			t.Errorf("%s: %v with only its required parameters given", user, err)
			continue
		}
		if back, err := parseParams(a.query(uses), uses); err != nil || !reflect.DeepEqual(back, a) {
			t.Errorf("%s: %v re-parsed from its canonical encoding %v as %v, %v", user, a, a.query(uses), back, err)
		}
	}
	for _, p := range readParams {
		if !read[p.name] {
			t.Errorf("row %q is read by no plan or section", p.name)
		}
	}

	for i := range readParams {
		p := &readParams[i]
		if p.kind != intParam && p.kind != numberParam {
			continue
		}
		if _, err := p.parse(p.def); err != nil {
			t.Errorf("row %q: default %q: %v", p.name, p.def, err)
		}
		if p.min == -math.MaxFloat64 != (p.max == math.MaxFloat64) || p.min > p.max {
			t.Errorf("row %q: range %v to %v", p.name, p.min, p.max)
		}
		bad := []string{"NaN", "Inf", "-Inf", "+Inf", "1e400", "x"}
		if p.min > -math.MaxFloat64 {
			bad = append(bad, strconv.FormatFloat(p.min-1, 'f', -1, 64), strconv.FormatFloat(p.max+1, 'f', -1, 64))
		}
		for _, v := range bad {
			q := url.Values{p.name: {v}}
			if _, err := parseParams(q, []string{p.name}); err == nil || !strings.Contains(err.Error(), strconv.Quote(p.name)) {
				t.Errorf("row %q: %q gave %v, want an error naming the parameter", p.name, v, err)
			}
		}
	}

	// The package's code: arg names only rows, and only serve and the
	// partials handler read a request's query.
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range pkgs["usaas"].Files {
		for _, decl := range f.Decls {
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if ix, ok := call.Fun.(*ast.IndexExpr); ok && len(call.Args) == 2 {
					if id, ok := ix.X.(*ast.Ident); ok && id.Name == "arg" {
						name := ""
						if lit, ok := call.Args[1].(*ast.BasicLit); ok {
							name, _ = strconv.Unquote(lit.Value)
						}
						if !seen[name] {
							t.Errorf("%s: arg of something other than a row's name", fset.Position(call.Pos()))
						}
					}
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Query" {
					if fn, ok := decl.(*ast.FuncDecl); !ok || fn.Name.Name != "serve" && fn.Name.Name != "handleGetPartials" {
						t.Errorf("%s: a query read outside serve and handleGetPartials", fset.Position(call.Pos()))
					}
				}
				return true
			})
		}
	}
}

// readEndpointsTable renders the parameter table as README's "Read
// endpoints" table: per endpoint, each row its plan reads, with the default
// of its use and its range.
func readEndpointsTable() string {
	var metrics []string
	for m := telemetry.LatencyMean; m <= telemetry.BandwidthP95; m++ {
		metrics = append(metrics, "`"+m.String()+"`")
	}
	var engs []string
	for _, e := range telemetry.Engagements() {
		engs = append(engs, "`"+e.String()+"`")
	}
	var b strings.Builder
	b.WriteString("| Endpoint | Parameter | Default | Range |\n|---|---|---|---|\n")
	for _, e := range readEndpoints {
		if len(e.params) == 0 {
			fmt.Fprintf(&b, "| `%s` | — | | |\n", e.path)
		}
		for i, use := range e.params {
			p, required := paramOf(use)
			endpoint, def := "", "`"+p.def+"`"
			span := strconv.FormatFloat(p.min, 'f', -1, 64) + " to " + strconv.FormatFloat(p.max, 'f', -1, 64)
			if i == 0 {
				endpoint = "`" + e.path + "`"
			}
			switch {
			case required:
				def = "required"
			case p.def == "":
				def = "—"
			}
			if p.min == -math.MaxFloat64 {
				span = "any finite number"
			}
			switch p.kind {
			case metricParam:
				span = strings.Join(metrics, ", ")
			case engagementParam:
				span = strings.Join(engs, ", ")
			case textParam:
				span = "any text"
			}
			fmt.Fprintf(&b, "| %s | `%s` | %s | %s |\n", endpoint, p.name, def, span)
		}
	}
	return b.String()
}

// TestReadmeReadEndpoints pins README's "Read endpoints" table to the
// parameter table, as TestCISelectorsMatchTests pins the workflow's
// selectors to the tests: a row added, dropped or changed in code and not in
// the README fails here.
func TestReadmeReadEndpoints(t *testing.T) {
	data, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	want := readEndpointsTable()
	if !strings.Contains(string(data), want) {
		t.Errorf("README.md lacks the read endpoints table the code declares:\n%s", want)
	}
	if n := strings.Count(want, "| `/v1/"); n != len(readEndpoints) {
		t.Errorf("the table names %d endpoints, want %d", n, len(readEndpoints))
	}
}
