package load

import (
	"path/filepath"
	"runtime"
	"testing"
)

// moduleRoot finds the repo root from this source file's location.
func moduleRoot(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("no caller info")
	}
	return filepath.Dir(filepath.Dir(filepath.Dir(filepath.Dir(file))))
}

func TestLoadCorePackage(t *testing.T) {
	pkgs, fset, err := Load(moduleRoot(t), "./internal/core")
	if err != nil {
		t.Fatal(err)
	}
	if fset == nil {
		t.Fatal("nil fset")
	}
	targets := Targets(pkgs)
	if len(targets) != 1 || targets[0].ImportPath != "repro/internal/core" {
		t.Fatalf("targets = %v, want [repro/internal/core]", paths(targets))
	}
	core := targets[0]
	if len(core.TypeErrors) > 0 {
		t.Fatalf("type errors in healthy package: %v", core.TypeErrors)
	}
	if core.Info == nil || len(core.Info.Uses) == 0 {
		t.Fatal("target package missing type info")
	}
	// Dependencies (std + telemetry) ride along, deps-first.
	seen := map[string]bool{}
	for _, p := range pkgs {
		seen[p.ImportPath] = true
	}
	for _, want := range []string{"sync", "time", "repro/internal/telemetry"} {
		if !seen[want] {
			t.Errorf("dependency %s not loaded", want)
		}
	}
}

func paths(pkgs []*Package) []string {
	var out []string
	for _, p := range pkgs {
		out = append(out, p.ImportPath)
	}
	return out
}
