// Package analysistest runs an analyzer over a fixture package under
// internal/analysis/testdata/src and compares its diagnostics against
// `// want` comments in the fixture, in the style of
// golang.org/x/tools/go/analysis/analysistest.
//
// Expectation syntax: a comment anywhere on a line of the form
//
//	// want "re1" `re2` ...
//
// Each token (a quoted "regexp" or backquoted `regexp`) requires a matching
// diagnostic on that line. Lines without a want comment must produce no
// diagnostics; that is how `//lint:allow` suppression is asserted — the
// violation is present but no want comment accompanies it.
package analysistest

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
)

var wantCommentRE = regexp.MustCompile(`//\s*want\s+(.*)$`)

// wantTokenRE matches one expectation token at the start of the remainder:
// a quoted or backquoted pattern.
var wantTokenRE = regexp.MustCompile("^(?:\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`)")

// key is one fixture line.
type key struct {
	file string
	line int
}

// Run loads testdata/src/<fixture>/... relative to the module root,
// applies a fresh analyzer from mk, and checks its diagnostics against the
// fixture's want comments. Scope is bypassed: fixtures are always analyzed.
func Run(t *testing.T, mk func() *analysis.Analyzer, fixture string) {
	t.Helper()
	root := moduleRoot(t)
	pattern := "./internal/analysis/testdata/src/" + fixture + "/..."
	pkgs, fset, err := load.Load(root, pattern)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", fixture, err)
	}
	targets := load.Targets(pkgs)
	if len(targets) == 0 {
		t.Fatalf("fixture %s matched no packages", fixture)
	}
	want := make(map[key][]*regexp.Regexp)
	for _, p := range targets {
		for _, e := range p.TypeErrors {
			t.Errorf("fixture %s: type error: %v", p.ImportPath, e)
		}
		for _, file := range p.GoFiles {
			parseWants(t, file, want)
		}
	}

	got := make(map[key][]string)
	for _, f := range analysis.Run(pkgs, fset, []*analysis.Analyzer{mk()}, analysis.Options{IgnoreScope: true}) {
		k := key{f.Pos.Filename, f.Pos.Line}
		got[k] = append(got[k], f.Message)
	}

	// Every want must be matched by exactly one diagnostic on its line, and
	// every diagnostic must be wanted.
	for k, res := range want {
		diags := got[k]
		for _, re := range res {
			idx := matchIndex(diags, re)
			if idx < 0 {
				t.Errorf("%s:%d: no diagnostic matching %q (got %v)", k.file, k.line, re, diags)
				continue
			}
			diags = append(diags[:idx], diags[idx+1:]...)
		}
		if len(diags) > 0 {
			t.Errorf("%s:%d: unexpected extra diagnostics %v", k.file, k.line, diags)
		}
		delete(got, k)
	}
	for k, msgs := range got {
		t.Errorf("%s:%d: unexpected diagnostics %v", k.file, k.line, msgs)
	}
}

func matchIndex(msgs []string, re *regexp.Regexp) int {
	for i, m := range msgs {
		if re.MatchString(m) {
			return i
		}
	}
	return -1
}

// parseWants adds the want expectations of one fixture file to out.
func parseWants(t *testing.T, file string, out map[key][]*regexp.Regexp) {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("reading fixture %s: %v", file, err)
	}
	for i, line := range strings.Split(string(data), "\n") {
		m := wantCommentRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		rest := m[1]
		for {
			rest = strings.TrimLeft(rest, " \t")
			tok := wantTokenRE.FindStringSubmatch(rest)
			if tok == nil {
				break
			}
			rest = rest[len(tok[0]):]
			pat := tok[2] // backquoted: raw
			if tok[1] != "" || tok[2] == "" {
				var err error
				pat, err = unescape(tok[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", file, i+1, tok[1], err)
				}
			}
			re, err := regexp.Compile(pat)
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp %q: %v", file, i+1, pat, err)
			}
			k := key{file, i + 1}
			out[k] = append(out[k], re)
		}
	}
}

// unescape handles \" and \\ inside want string arguments.
func unescape(s string) (string, error) {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			i++
			switch s[i] {
			case '"', '\\':
				b.WriteByte(s[i])
			default:
				return "", fmt.Errorf("unsupported escape \\%c", s[i])
			}
			continue
		}
		b.WriteByte(s[i])
	}
	return b.String(), nil
}

// moduleRoot walks up from this file to the directory containing go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test working directory")
		}
		dir = parent
	}
}

// Findings runs analyzers over real repo packages (not fixtures); the
// revert-guard tests in other packages use it to assert the suite stays
// green on the committed tree.
func Findings(t *testing.T, patterns ...string) []analysis.Finding {
	t.Helper()
	root := moduleRoot(t)
	pkgs, fset, err := load.Load(root, patterns...)
	if err != nil {
		t.Fatal(err)
	}
	return analysis.Run(pkgs, fset, analysis.Analyzers(), analysis.Options{})
}
