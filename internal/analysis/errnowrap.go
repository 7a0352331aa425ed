package analysis

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"
)

// NewErrnowrap returns the errnowrap analyzer: errors constructed inside
// functions of internal/core cross the wire-protocol boundary (handler
// returns become reply errnos via toErrno; client failures must satisfy
// errors.Is against the typed roots), so they must carry their
// classification in the wrap chain. Concretely:
//
//   - fmt.Errorf must use %w to wrap an Errno or one of the typed roots
//     (ErrConnectionLost, ErrClientClosed, ErrOpTimeout); without %w the
//     chain is cut and toErrno / errors.Is silently degrade to EIO.
//   - errors.New inside a function creates an unclassifiable error; the
//     only legitimate errors.New calls are the package-level typed root
//     declarations, which live outside function bodies and are not flagged.
//
// internal/wal is in scope for the same reason: its I/O failures surface
// through descdb deferred errors and fsync replies, so a WAL error that
// does not wrap core.EIO (or one of the wal typed roots) would reach the
// client as an unclassifiable failure.
func NewErrnowrap() *Analyzer {
	return &Analyzer{
		Name:  "errnowrap",
		Doc:   "errors built on internal/core's and internal/wal's wire paths must be Errno-typed or wrap a typed root with %w",
		Scope: func(path string) bool { return path == "repro/internal/core" || path == "repro/internal/wal" },
		Run:   runErrnowrap,
	}
}

func runErrnowrap(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn := pkgLevelFunc(pass, sel)
				if fn == nil {
					return true
				}
				switch fn.FullName() {
				case "errors.New":
					pass.Reportf(call.Pos(),
						"errors.New on a core error path; return an Errno or wrap a typed root (ErrConnectionLost/ErrClientClosed/ErrOpTimeout) with %%w so errors.Is classification works")
				case "fmt.Errorf":
					if len(call.Args) == 0 {
						return true
					}
					format, ok := stringLiteral(call.Args[0])
					if ok && !strings.Contains(format, "%w") {
						pass.Reportf(call.Pos(),
							"fmt.Errorf without %%w on a core error path; wrap an Errno or typed root so toErrno and errors.Is keep classifying it")
					}
				}
				return true
			})
		}
	}
	return nil
}

// stringLiteral evaluates e if it is a string literal or a concatenation
// of string literals.
func stringLiteral(e ast.Expr) (string, bool) {
	switch e := e.(type) {
	case *ast.BasicLit:
		if e.Kind != token.STRING {
			return "", false
		}
		s, err := strconv.Unquote(e.Value)
		return s, err == nil
	case *ast.BinaryExpr:
		if e.Op != token.ADD {
			return "", false
		}
		l, ok1 := stringLiteral(e.X)
		r, ok2 := stringLiteral(e.Y)
		return l + r, ok1 && ok2
	case *ast.ParenExpr:
		return stringLiteral(e.X)
	}
	return "", false
}
