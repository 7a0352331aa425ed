// Command iofwdlint runs the repository's custom static analyzers (see
// internal/analysis) over Go packages. It mechanically enforces the
// invariants the forwarding stack's correctness rests on: sim determinism
// (simclock), no blocking under locks (lockhold), wire-error
// classification (errnowrap), opcode exhaustiveness (opexhaustive),
// joined goroutines (goroleak), context propagation (ctxpropagate), and
// trace/label formatting discipline (tracefmt). Every rule is checked
// within one package, so only the packages matching the patterns are
// analyzed:
//
//	go run ./cmd/iofwdlint ./...
//
// Diagnostics are suppressed by `//lint:allow <analyzer> <reason>` on the
// offending line or the line above; the reason is mandatory.
//
// Exit status: 0 clean, 1 usage/load error, 2 diagnostics found.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
)

func main() {
	listOnly := flag.Bool("list", false, "list analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: iofwdlint [packages]   (default ./...)\n\nanalyzers:\n")
		for _, a := range analysis.Analyzers() {
			fmt.Fprintf(os.Stderr, "  %-13s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	if *listOnly {
		for _, a := range analysis.Analyzers() {
			fmt.Printf("%-13s %s\n", a.Name, a.Doc)
		}
		return
	}
	os.Exit(lint(flag.Args()))
}

func lint(patterns []string) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	pkgs, fset, err := load.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	findings := analysis.Run(pkgs, fset, analysis.Analyzers(), analysis.Options{})
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "iofwdlint: %d finding(s)\n", len(findings))
		return 2
	}
	return 0
}
