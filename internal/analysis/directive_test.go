package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

func TestDirectiveCoverage(t *testing.T) {
	const src = `package p

//lint:allow simclock the schedule is still seeded
var a = 1

var b = 2 //lint:allow lockhold send is buffered
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "dir.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ds := collectDirectives(fset, []*ast.File{f})

	at := func(line int) token.Position { return token.Position{Filename: "dir.go", Line: line} }

	// A directive covers its own line and the one below.
	if !ds.allows("simclock", at(3)) || !ds.allows("simclock", at(4)) {
		t.Error("standalone directive should cover its line and the next")
	}
	if ds.allows("simclock", at(5)) {
		t.Error("directive must not leak two lines down")
	}
	// Trailing directive covers the statement it trails.
	if !ds.allows("lockhold", at(6)) {
		t.Error("trailing directive should cover its own line")
	}
	// Analyzer names are not interchangeable.
	if ds.allows("lockhold", at(3)) || ds.allows("simclock", at(6)) {
		t.Error("directives must be analyzer-specific")
	}
	if len(ds.malformed) != 0 {
		t.Errorf("well-formed directives reported malformed: %v", ds.malformed)
	}
}

// TestDirectiveStatementExtent pins the multi-line rule: a directive above
// (or trailing the first line of) a statement covers the statement's whole
// extent, but a directive above a block construct stops at the opening
// brace instead of blanketing the body.
func TestDirectiveStatementExtent(t *testing.T) {
	const src = `package p

import "fmt"

//lint:allow tracefmt grandfathered dashboard key
var spec = fmt.Sprintf(
	"%s",
	"legacyKey=1",
)

func f(ch chan int) {
	//lint:allow lockhold send is buffered and cannot block
	ch <- multi(
		1,
		2,
	)

	//lint:allow simclock loop header only
	for i := 0; i < multi(
		3, 4); i++ {
		_ = i
	}
}

func multi(a, b int) int { return a + b }
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "ext.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ds := collectDirectives(fset, []*ast.File{f})
	at := func(line int) token.Position { return token.Position{Filename: "ext.go", Line: line} }

	// Multi-line ValueSpec: lines 6-9 are all covered by the directive on 5.
	for line := 6; line <= 9; line++ {
		if !ds.allows("tracefmt", at(line)) {
			t.Errorf("directive above multi-line var should cover line %d", line)
		}
	}
	if ds.allows("tracefmt", at(10)) {
		t.Error("directive must not leak past the ValueSpec's extent")
	}

	// Multi-line send statement inside a function body: lines 13-16.
	for line := 13; line <= 16; line++ {
		if !ds.allows("lockhold", at(line)) {
			t.Errorf("directive above multi-line send should cover line %d", line)
		}
	}
	if ds.allows("lockhold", at(17)) {
		t.Error("directive must not leak past the send statement's extent")
	}

	// A for statement's extent stops at its opening brace: the multi-line
	// header (19-20) is covered, the body (21) is not.
	if !ds.allows("simclock", at(19)) || !ds.allows("simclock", at(20)) {
		t.Error("directive above a loop should cover its multi-line header")
	}
	if ds.allows("simclock", at(21)) {
		t.Error("directive above a loop must not blanket the loop body")
	}
}

func TestDirectiveMalformed(t *testing.T) {
	const src = `package p

//lint:allow simclock
var a = 1

//lint:allow
var b = 2
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "dir.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ds := collectDirectives(fset, []*ast.File{f})

	if len(ds.malformed) != 2 {
		t.Fatalf("got %d malformed findings, want 2: %v", len(ds.malformed), ds.malformed)
	}
	for _, m := range ds.malformed {
		if m.Analyzer != "directive" {
			t.Errorf("malformed finding attributed to %q, want \"directive\"", m.Analyzer)
		}
	}
	// A reason-less directive grants nothing.
	if ds.allows("simclock", token.Position{Filename: "dir.go", Line: 4}) {
		t.Error("directive without a reason must not suppress anything")
	}
}
