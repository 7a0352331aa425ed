package analysis_test

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

func TestSimclockFixture(t *testing.T) {
	analysistest.Run(t, analysis.NewSimclock, "simclock")
}

func TestLockholdFixture(t *testing.T) {
	analysistest.Run(t, analysis.NewLockhold, "lockhold")
}

func TestErrnowrapFixture(t *testing.T) {
	analysistest.Run(t, analysis.NewErrnowrap, "errnowrap")
}

func TestTracefmtFixture(t *testing.T) {
	analysistest.Run(t, analysis.NewTracefmt, "tracefmt")
}

func TestOpexhaustiveFixture(t *testing.T) {
	analysistest.Run(t, analysis.NewOpexhaustive, "opexhaustive")
}

func TestGoroleakFixture(t *testing.T) {
	analysistest.Run(t, analysis.NewGoroleak, "goroleak")
}

func TestCtxpropagateFixture(t *testing.T) {
	analysistest.Run(t, analysis.NewCtxpropagate, "ctxpropagate")
}

// TestSuiteCleanOnRepo is the revert guard: the committed tree must be
// free of findings. Reintroducing global math/rand in internal/sim, a
// blocking op under a core lock, an unwrapped core error, an
// off-vocabulary trace key or stage name, or an opcode gap turns this
// test red — the same signal CI's
// lint job gives, but available to a plain `go test ./...`.
func TestSuiteCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-repo type-check is slow; run without -short")
	}
	findings := analysistest.Findings(t, "./...")
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// TestScopes pins each analyzer's package scope so a refactor cannot
// silently stop analyzing a deterministic package.
func TestScopes(t *testing.T) {
	byName := map[string]func(string) bool{}
	for _, a := range analysis.Analyzers() {
		byName[a.Name] = a.Scope
	}

	cases := []struct {
		analyzer string
		pkg      string
		want     bool
	}{
		{"simclock", "repro/internal/sim", true},
		{"simclock", "repro/internal/simnet", true},
		{"simclock", "repro/internal/simcpu", true},
		{"simclock", "repro/internal/iofwd/staging", true},
		{"simclock", "repro/internal/experiments", true},
		{"simclock", "repro/internal/bgp", true},
		{"simclock", "repro/internal/core/fault", true},
		{"simclock", "repro/internal/wal", true},        // fsync pacing and crash points are op-driven
		{"simclock", "repro/internal/core", false},      // the real server uses wall time
		{"simclock", "repro/internal/simcputil", false}, // prefix match must not leak

		{"lockhold", "repro/internal/core", true},
		{"lockhold", "repro/internal/core/fault", true},
		{"lockhold", "repro/internal/telemetry", true},
		{"lockhold", "repro/internal/sim", false},

		{"errnowrap", "repro/internal/core", true},
		{"errnowrap", "repro/internal/wal", true},         // WAL I/O errors surface as deferred wire errors
		{"errnowrap", "repro/internal/core/fault", false}, // spec-parse errors are operator-facing

		{"opexhaustive", "repro/internal/core", true},
		{"opexhaustive", "repro/internal/telemetry", false},

		{"goroleak", "repro/internal/core", true},
		{"goroleak", "repro/internal/core/fault", true},
		{"goroleak", "repro/internal/wal", true}, // the drainer must be WaitGroup-joined by Close
		{"goroleak", "repro/internal/telemetry", false},
		{"goroleak", "repro/internal/sim", false}, // sim procs are engine-joined, not WaitGroup-joined

		{"ctxpropagate", "repro/internal/core", true},        // the public client surface is ctx-aware
		{"ctxpropagate", "repro/internal/core/fault", false}, // chaos backends follow core.Backend, not the client API
		{"ctxpropagate", "repro/internal/sim", false},        // sim blocking is engine-scheduled
	}
	for _, c := range cases {
		scope := byName[c.analyzer]
		if scope == nil {
			t.Fatalf("analyzer %s missing or has nil scope", c.analyzer)
		}
		if got := scope(c.pkg); got != c.want {
			t.Errorf("%s scope(%s) = %v, want %v", c.analyzer, c.pkg, got, c.want)
		}
	}
	if byName["tracefmt"] != nil {
		t.Error("tracefmt should be repo-wide (nil scope)")
	}
}

// TestAnalyzerDocs keeps the -list output useful.
func TestAnalyzerDocs(t *testing.T) {
	names := map[string]bool{}
	for _, a := range analysis.Analyzers() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v missing name, doc, or run", a.Name)
		}
		if names[a.Name] {
			t.Errorf("duplicate analyzer name %s", a.Name)
		}
		names[a.Name] = true
		if strings.ContainsAny(a.Name, " \t") {
			t.Errorf("analyzer name %q contains whitespace (breaks //lint:allow parsing)", a.Name)
		}
	}
	for _, want := range []string{"simclock", "lockhold", "errnowrap", "opexhaustive", "goroleak", "ctxpropagate", "tracefmt"} {
		if !names[want] {
			t.Errorf("suite missing analyzer %s", want)
		}
	}
}
