// Package analysis is iofwdlint: a suite of static analyzers that turn the
// repository's determinism, locking, error-classification, and trace-format
// invariants into mechanical checks. The API deliberately mirrors
// golang.org/x/tools/go/analysis (Analyzer / Pass / Diagnostic) so
// the suite can migrate onto the upstream framework wholesale if the
// dependency ever becomes available; until then the stdlib-only driver in
// this package and the loader in internal/analysis/load stand in for it.
//
// Suppression: a diagnostic is silenced by a directive comment
//
//	//lint:allow <analyzer> <reason>
//
// placed either at the end of the offending line or alone on the line
// directly above it. A directive covers the full extent of the statement it
// is attached to, so a finding on the third line of a multi-line call is
// still suppressed by the directive above the call. The reason is
// mandatory — an allow without one is itself reported — so every exception
// is documented at the point it is granted.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis/load"
)

// Diagnostic is one problem found by an analyzer.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Analyzer is one named check. Analyzers may keep per-run state, so
// instances must not be shared between concurrent drivers; obtain fresh
// ones from Analyzers().
type Analyzer struct {
	Name string
	Doc  string
	// Scope reports whether the analyzer runs on a package import path. A
	// nil Scope means every package. Fixture tests bypass Scope entirely.
	Scope func(pkgPath string) bool
	Run   func(*Pass) error
}

// Finding is a located, attributed diagnostic ready for printing.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// Analyzers returns fresh instances of the full iofwdlint suite.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		NewSimclock(),
		NewLockhold(),
		NewErrnowrap(),
		NewOpexhaustive(),
		NewGoroleak(),
		NewCtxpropagate(),
		NewTracefmt(),
	}
}

// Options controls a driver run.
type Options struct {
	// IgnoreScope runs every analyzer on every package, regardless of the
	// analyzer's Scope. Fixture tests use it.
	IgnoreScope bool
}

// Run executes the analyzers over the target packages and returns the
// surviving findings sorted by position. Dependencies in pkgs are skipped:
// every rule is checked within one package. Allow directives are applied
// and malformed directives are reported here, so the CLI and the fixture
// tests share identical suppression semantics.
func Run(pkgs []*load.Package, fset *token.FileSet, analyzers []*Analyzer, opts Options) []Finding {
	var findings []Finding
	for _, pkg := range pkgs {
		if !pkg.Target || pkg.Types == nil || pkg.Info == nil {
			continue
		}
		findings = append(findings, runPackage(pkg, fset, analyzers, opts)...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return findings
}

func runPackage(pkg *load.Package, fset *token.FileSet, analyzers []*Analyzer, opts Options) []Finding {
	dirs := collectDirectives(fset, pkg.Syntax)
	findings := dirs.malformed
	for _, a := range analyzers {
		if !opts.IgnoreScope && a.Scope != nil && !a.Scope(pkg.ImportPath) {
			continue
		}
		pass := &Pass{
			Analyzer: a,
			Fset:     fset,
			Files:    pkg.Syntax,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
		}
		if err := a.Run(pass); err != nil {
			findings = append(findings, Finding{
				Analyzer: a.Name,
				Message:  fmt.Sprintf("analyzer failed: %v", err),
			})
			continue
		}
		for _, d := range pass.diags {
			pos := fset.Position(d.Pos)
			if dirs.allows(a.Name, pos) {
				continue
			}
			findings = append(findings, Finding{Analyzer: a.Name, Pos: pos, Message: d.Message})
		}
	}
	return findings
}

// directiveSet indexes //lint:allow directives by file and line.
type directiveSet struct {
	// byLine maps file -> line -> analyzer names allowed on that line.
	byLine    map[string]map[int][]string
	malformed []Finding
}

const directivePrefix = "//lint:allow"

// collectDirectives scans file comments for allow directives. A directive
// covers its own line, the line below it (so it can trail the offending
// statement or sit on its own line above), and — when either of those
// lines starts a statement that spans further lines — the statement's full
// extent, so a finding deep inside a multi-line call is still suppressed
// by the directive above the call. For block statements (if/for/switch,
// func declarations) the extent stops at the opening brace: a directive
// above a loop covers its multi-line header, not its whole body.
func collectDirectives(fset *token.FileSet, files []*ast.File) *directiveSet {
	ds := &directiveSet{byLine: make(map[string]map[int][]string)}
	for _, f := range files {
		var extent map[int]int // statement start line -> last line
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				pos := fset.Position(c.Pos())
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, directivePrefix))
				parts := strings.Fields(rest)
				if len(parts) < 2 {
					ds.malformed = append(ds.malformed, Finding{
						Analyzer: "directive",
						Pos:      pos,
						Message:  "malformed //lint:allow: want \"//lint:allow <analyzer> <reason>\" (reason is mandatory)",
					})
					continue
				}
				if extent == nil {
					extent = statementExtents(fset, f)
				}
				name := parts[0]
				lines := ds.byLine[pos.Filename]
				if lines == nil {
					lines = make(map[int][]string)
					ds.byLine[pos.Filename] = lines
				}
				cover := func(line int) {
					for _, have := range lines[line] {
						if have == name {
							return
						}
					}
					lines[line] = append(lines[line], name)
				}
				// Own line and the next, then out to the end of any
				// multi-line statement starting on either.
				for _, start := range []int{pos.Line, pos.Line + 1} {
					cover(start)
					for l := start + 1; l <= extent[start]; l++ {
						cover(l)
					}
				}
			}
		}
	}
	return ds
}

// statementExtents maps the starting line of every multi-line statement
// (and value spec) in f to its last line. Block-bodied constructs map to
// the line of their opening brace instead, so a directive never silently
// blankets a whole loop or function body.
func statementExtents(fset *token.FileSet, f *ast.File) map[int]int {
	extent := make(map[int]int)
	record := func(from, to token.Pos) {
		s, e := fset.Position(from).Line, fset.Position(to).Line
		if e > s && e > extent[s] {
			extent[s] = e
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt, *ast.AssignStmt, *ast.ReturnStmt, *ast.GoStmt,
			*ast.DeferStmt, *ast.SendStmt, *ast.IncDecStmt, *ast.ValueSpec:
			record(n.Pos(), n.End())
		case *ast.IfStmt:
			record(n.Pos(), n.Body.Lbrace)
		case *ast.ForStmt:
			record(n.Pos(), n.Body.Lbrace)
		case *ast.RangeStmt:
			record(n.Pos(), n.Body.Lbrace)
		case *ast.SwitchStmt:
			record(n.Pos(), n.Body.Lbrace)
		case *ast.TypeSwitchStmt:
			record(n.Pos(), n.Body.Lbrace)
		case *ast.FuncDecl:
			if n.Body != nil {
				record(n.Pos(), n.Body.Lbrace)
			}
		}
		return true
	})
	return extent
}

// allows reports whether a directive for analyzer covers pos.
func (ds *directiveSet) allows(analyzer string, pos token.Position) bool {
	for _, name := range ds.byLine[pos.Filename][pos.Line] {
		if name == analyzer {
			return true
		}
	}
	return false
}
