// Package load type-checks Go packages for the iofwdlint analyzers without
// depending on golang.org/x/tools. It shells out to `go list -json -deps`
// for build metadata (which the go command emits in dependency order) and
// type-checks every package from source with go/types. Only the packages
// matching the load patterns get function bodies and type info; their
// dependencies are checked API-only, so a whole-repo load stays fast.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// Package is one loaded, type-checked package.
type Package struct {
	ImportPath string
	Dir        string
	GoFiles    []string // absolute paths
	Target     bool     // matched the load patterns (vs. pulled in as a dep)
	Syntax     []*ast.File
	Types      *types.Package
	Info       *types.Info // populated for targets only
	TypeErrors []error     // non-fatal type-check problems
}

// listPkg mirrors the subset of `go list -json` output the loader reads.
type listPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	DepOnly    bool
	ImportMap  map[string]string
	Error      *struct{ Err string }
}

// Load lists patterns (and their dependencies) in the module rooted at dir
// and returns the type-checked packages in dependency order. Test files are
// not loaded: the analyzers police production code, and tests legitimately
// use wall-clock timeouts to bound hangs.
func Load(dir string, patterns ...string) ([]*Package, *token.FileSet, error) {
	args := append([]string{"list", "-e", "-json", "-deps"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, nil, fmt.Errorf("go list: %v", err)
	}

	fset := token.NewFileSet()
	byPath := make(map[string]*Package)
	var pkgs []*Package

	dec := json.NewDecoder(out)
	for {
		var lp listPkg
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			_ = cmd.Wait()
			return nil, nil, fmt.Errorf("go list: decoding output: %v (stderr: %s)", err, stderr.String())
		}
		if lp.ImportPath == "unsafe" {
			continue // handled via types.Unsafe in the importer
		}
		p := &Package{
			ImportPath: lp.ImportPath,
			Dir:        lp.Dir,
			Target:     !lp.DepOnly,
		}
		for _, f := range append(append([]string{}, lp.GoFiles...), lp.CgoFiles...) {
			if !filepath.IsAbs(f) {
				f = filepath.Join(lp.Dir, f)
			}
			p.GoFiles = append(p.GoFiles, f)
		}
		if err := check(p, lp.ImportMap, fset, byPath); err != nil {
			_ = cmd.Wait()
			return nil, nil, fmt.Errorf("loading %s: %v", p.ImportPath, err)
		}
		byPath[p.ImportPath] = p
		pkgs = append(pkgs, p)
	}
	if err := cmd.Wait(); err != nil {
		return nil, nil, fmt.Errorf("go list: %v (stderr: %s)", err, stderr.String())
	}
	return pkgs, fset, nil
}

// Targets filters pkgs down to the ones that matched the load patterns.
func Targets(pkgs []*Package) []*Package {
	var out []*Package
	for _, p := range pkgs {
		if p.Target {
			out = append(out, p)
		}
	}
	return out
}

// check parses and type-checks one package whose dependencies are already
// in byPath (guaranteed by go list's dependency-ordered -deps output).
// Targets get full bodies and type info; dependencies are checked API-only.
func check(p *Package, importMap map[string]string, fset *token.FileSet, byPath map[string]*Package) error {
	full := p.Target
	mode := parser.SkipObjectResolution
	if full {
		mode |= parser.ParseComments
	}
	for _, f := range p.GoFiles {
		af, err := parser.ParseFile(fset, f, nil, mode)
		if af == nil {
			return fmt.Errorf("parsing %s: %v", f, err)
		}
		if err != nil {
			p.TypeErrors = append(p.TypeErrors, err)
		}
		p.Syntax = append(p.Syntax, af)
	}
	conf := types.Config{
		Importer:         &mapImporter{importMap: importMap, byPath: byPath},
		IgnoreFuncBodies: !full,
		FakeImportC:      true,
		Error: func(err error) {
			p.TypeErrors = append(p.TypeErrors, err)
		},
	}
	if full {
		p.Info = &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
	}
	// Errors are collected in p.TypeErrors; a partially checked package is
	// still analyzable, so the return value is deliberately dropped.
	p.Types, _ = conf.Check(p.ImportPath, fset, p.Syntax, p.Info)
	return nil
}

// mapImporter resolves imports against already-checked packages, applying
// the per-package ImportMap (std-vendored paths like vendor/golang.org/x/...).
type mapImporter struct {
	importMap map[string]string
	byPath    map[string]*Package
}

func (m *mapImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if r, ok := m.importMap[path]; ok {
		path = r
	}
	if p, ok := m.byPath[path]; ok && p.Types != nil {
		return p.Types, nil
	}
	return nil, fmt.Errorf("package %q not loaded", path)
}
