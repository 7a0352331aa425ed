package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// deterministicPkgs are the packages whose behaviour must be a pure
// function of their inputs (seed, schedule, op index): the discrete-event
// simulator and everything that runs inside it, plus the seeded chaos
// backend. Wall-clock reads or global RNG state there silently break
// replayability — the property EXPERIMENTS.md figures and the chaos CI
// jobs depend on.
var deterministicPkgs = []string{
	"repro/internal/sim",
	"repro/internal/simnet",
	"repro/internal/simcpu",
	"repro/internal/iofwd",
	"repro/internal/experiments",
	"repro/internal/bgp",
	"repro/internal/core/fault",
	// The forwarding decisions internal/core and the simulator share.
	"repro/internal/policy",
	// The striped tier's health tracker and repair loop are keyed off an
	// op-driven logical clock, never the wall clock — ejection and
	// readmission decisions replay exactly from an op trace.
	"repro/internal/stripetier",
	// The WAL spill tier is append-count-driven by design (fsync pacing,
	// drainer wakeups, crash points are all pure functions of the op
	// sequence); a wall-clock read there would make kill/restart drills
	// unreproducible.
	"repro/internal/wal",
}

// scopePrefixes builds a Scope func matching any of the prefixes (a prefix
// matches itself and its subpackages).
func scopePrefixes(prefixes ...string) func(string) bool {
	return func(path string) bool {
		for _, p := range prefixes {
			if path == p || strings.HasPrefix(path, p+"/") {
				return true
			}
		}
		return false
	}
}

// bannedTimeFuncs are package time functions that read or wait on the wall
// clock. time.Duration arithmetic and time.Time values remain fine.
var bannedTimeFuncs = map[string]string{
	"Now":       "reads the wall clock",
	"Sleep":     "blocks on the wall clock",
	"After":     "waits on the wall clock",
	"AfterFunc": "schedules on the wall clock",
	"Tick":      "ticks on the wall clock",
	"NewTimer":  "schedules on the wall clock",
	"NewTicker": "ticks on the wall clock",
	"Since":     "reads the wall clock",
	"Until":     "reads the wall clock",
}

// allowedRandFuncs are the math/rand package-level functions that only
// construct explicitly seeded sources — the blessed pattern.
var allowedRandFuncs = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

// NewSimclock returns the simclock analyzer: deterministic packages must
// use the sim clock and per-engine seeded RNGs, never the wall clock or the
// global math/rand state.
func NewSimclock() *Analyzer {
	return &Analyzer{
		Name:  "simclock",
		Doc:   "forbids wall-clock reads (time.Now/Sleep/After/...) and global math/rand functions in the deterministic simulation packages",
		Scope: scopePrefixes(deterministicPkgs...),
		Run:   runSimclock,
	}
}

func runSimclock(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn := pkgLevelFunc(pass, sel)
			if fn == nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				if why, bad := bannedTimeFuncs[fn.Name()]; bad {
					pass.Reportf(sel.Pos(),
						"time.%s %s; deterministic code must take time from the sim engine (sim.Engine.Now / At)",
						fn.Name(), why)
				}
			case "math/rand", "math/rand/v2":
				if !allowedRandFuncs[fn.Name()] {
					pass.Reportf(sel.Pos(),
						"rand.%s uses the global math/rand state; use a per-engine seeded *rand.Rand (sim.Engine.Rand) so replay stays a pure function of the seed",
						fn.Name())
				}
			}
			return true
		})
	}
	return nil
}

// pkgLevelFunc resolves sel to a package-level function object, or nil if
// it is a method, a variable, or unresolved.
func pkgLevelFunc(pass *Pass, sel *ast.SelectorExpr) *types.Func {
	if pass.Info == nil {
		return nil
	}
	obj := pass.Info.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return nil
	}
	return fn
}
