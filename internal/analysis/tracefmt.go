package analysis

import (
	"go/ast"
	"go/types"
	"regexp"
)

// telemetryPkg is the package whose label constructor (telemetry.L) the
// analyzer checks.
const telemetryPkg = "repro/internal/telemetry"

// stageNames are the forwarding-path stages of DESIGN.md §7 (the paper's
// Fig 4-6 cut points). Any "stage" label or stage= trace token must name
// one of them, or per-stage attribution silently fragments.
var stageNames = map[string]bool{
	"recv":    true,
	"queue":   true,
	"backend": true,
	"reply":   true,
	"spill":   true,
}

// snakeKeyRE is the discipline for telemetry label keys and key=value
// tokens in trace/log format strings: lowercase snake_case, matching the
// iofwd_ metric-name convention so scraped logs and metrics join on the
// same vocabulary.
var snakeKeyRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// formatFuncs maps printf-style functions to the index of their format
// string argument.
var formatFuncs = map[string]int{
	"fmt.Errorf":             0,
	"fmt.Printf":             0,
	"fmt.Sprintf":            0,
	"fmt.Fprintf":            1,
	"log.Printf":             0,
	"log.Fatalf":             0,
	"log.Panicf":             0,
	"(*log.Logger).Printf":   0,
	"(*log.Logger).Fatalf":   0,
	"(*log.Logger).Panicf":   0,
	"(*testing.common).Logf": 0, // never reached (test files are filtered); kept for completeness
}

// NewTracefmt returns the tracefmt analyzer: telemetry labels and trace/log
// format strings must keep the repository's key=value discipline so logs,
// metrics, and the paper's stage attribution stay machine-joinable:
//
//   - telemetry.L label keys (when literal) are lowercase snake_case, and
//     a "stage" label's literal value is one of recv/queue/backend/reply/
//     spill — the §7 stage table is closed, and an off-vocabulary stage
//     would silently fall out of every per-stage figure;
//   - key=value tokens inside printf-style format literals use snake_case
//     keys ("torn_tails=%d", not "tornTails=%d"), and a literal stage=
//     token names a real stage;
//   - an Errno value formatted by fmt.Errorf with any verb other than %w
//     (%v, %s, %d, ...) is flagged: the rendering looks fine in the
//     message, but the wrap chain is cut and errors.Is classification is
//     lost. This is the repo-wide complement to errnowrap's wire-path
//     scope.
func NewTracefmt() *Analyzer {
	return &Analyzer{
		Name: "tracefmt",
		Doc:  "telemetry label keys and log format strings keep snake_case key=value discipline, stage names come from the closed §7 set, and Errno values are never formatted with %v where %w is required",
		Run:  runTracefmt,
	}
}

func runTracefmt(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calledFunc(pass, call)
			if fn == nil {
				return true
			}
			if fn.FullName() == telemetryPkg+".L" {
				checkLabelCall(pass, call)
				return true
			}
			if idx, ok := formatFuncs[fn.FullName()]; ok && len(call.Args) > idx {
				checkFormatCall(pass, fn.FullName(), call, idx)
			}
			return true
		})
	}
	return nil
}

// checkLabelCall validates a telemetry.L(key, value) call with literal
// arguments.
func checkLabelCall(pass *Pass, call *ast.CallExpr) {
	if len(call.Args) < 2 {
		return
	}
	key, ok := stringLiteral(call.Args[0])
	if !ok {
		return
	}
	if !snakeKeyRE.MatchString(key) {
		pass.Reportf(call.Args[0].Pos(),
			"telemetry label key %q is not lowercase snake_case; label keys share the iofwd_ metric vocabulary", key)
		return
	}
	if key == "stage" {
		if val, ok := stringLiteral(call.Args[1]); ok && !stageNames[val] {
			pass.Reportf(call.Args[1].Pos(),
				"stage label %q is not a forwarding-path stage (recv/queue/backend/reply/spill); off-vocabulary stages fall out of per-stage attribution", val)
		}
	}
}

// kvTokenRE matches candidate key=value tokens in a format literal. The
// preceding character is checked separately so verbs ("%s=") and word
// tails ("MiB=") inside larger tokens are not misread as keys.
var kvTokenRE = regexp.MustCompile(`[A-Za-z][A-Za-z0-9_]*=`)

// stageTokenRE captures the literal value of a stage= token.
var stageTokenRE = regexp.MustCompile(`\bstage=([a-zA-Z_]+)`)

// checkFormatCall validates one printf-style call: key=value discipline in
// the format literal, and (for fmt.Errorf) no Errno argument formatted with
// a verb other than %w.
func checkFormatCall(pass *Pass, fullName string, call *ast.CallExpr, formatIdx int) {
	format, ok := stringLiteral(call.Args[formatIdx])
	if !ok {
		return
	}
	for _, loc := range kvTokenRE.FindAllStringIndex(format, -1) {
		if loc[0] > 0 {
			prev := format[loc[0]-1]
			if prev == '%' || prev == '_' || prev == '.' || prev == '[' ||
				('a' <= prev && prev <= 'z') || ('A' <= prev && prev <= 'Z') || ('0' <= prev && prev <= '9') {
				continue
			}
		}
		key := format[loc[0] : loc[1]-1]
		if !snakeKeyRE.MatchString(key) {
			pass.Reportf(call.Args[formatIdx].Pos(),
				"format key %q is not lowercase snake_case; trace key=value tokens share the iofwd_ metric vocabulary", key)
		}
	}
	for _, m := range stageTokenRE.FindAllStringSubmatch(format, -1) {
		if !stageNames[m[1]] {
			pass.Reportf(call.Args[formatIdx].Pos(),
				"stage token %q is not a forwarding-path stage (recv/queue/backend/reply/spill)", "stage="+m[1])
		}
	}

	if fullName != "fmt.Errorf" {
		return
	}
	verbs, ok := formatVerbs(format)
	if !ok {
		return // indexed or otherwise exotic verbs: mapping unreliable
	}
	args := call.Args[formatIdx+1:]
	for i, verb := range verbs {
		if verb == 'w' || i >= len(args) {
			continue
		}
		if tv, ok := pass.Info.Types[args[i]]; ok && isErrnoType(tv.Type) {
			pass.Reportf(args[i].Pos(),
				"Errno formatted with %%%c; the text looks right but the wrap chain is cut — use %%w so errors.Is keeps classifying it", verb)
		}
	}
}

// formatVerbs returns the verb runes of a printf format string in argument
// order ('*' width/precision slots appear as '*'). It reports !ok for
// explicit argument indexes (%[n]d), where positional mapping would lie.
func formatVerbs(format string) ([]rune, bool) {
	var verbs []rune
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		if i >= len(format) {
			break
		}
		if format[i] == '%' {
			continue
		}
		// flags, width, precision
		for i < len(format) {
			c := format[i]
			if c == '[' {
				return nil, false
			}
			if c == '*' {
				verbs = append(verbs, '*')
				i++
				continue
			}
			if c == '+' || c == '-' || c == '#' || c == ' ' || c == '0' ||
				c == '.' || ('1' <= c && c <= '9') {
				i++
				continue
			}
			break
		}
		if i < len(format) {
			verbs = append(verbs, rune(format[i]))
		}
	}
	return verbs, true
}

// isErrnoType reports whether t is a named integer type called Errno —
// core.Errno on the real stack, or a fixture mirror of it.
func isErrnoType(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Errno" {
		return false
	}
	basic, ok := named.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsInteger != 0
}
