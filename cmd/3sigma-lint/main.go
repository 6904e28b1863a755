// 3sigma-lint enforces the repository's determinism and concurrency
// invariants statically (DESIGN.md §10): no map-order dependence in the
// deterministic packages, no wall-clock reads outside simulator/clock.go,
// no math/rand outside internal/stats, no exact float equality, no mutex
// copies, no unguarded access to "// guarded by <mu>" fields, no discarded
// durability errors, no time.Sleep polling loops under internal/ — and,
// interprocedurally, no lock-order cycles, no
// *Locked call without its guard, and no blocking work under a hot mutex.
//
// Usage:
//
//	3sigma-lint [-rule name[,name...]] [-json] [-hotmu pat[,pat...]] [packages]
//
// The package arguments are accepted for familiarity ("./..." is what CI
// passes) and act as path filters on the reported diagnostics; the whole
// module at the working directory (or -C dir) is always loaded, because
// type-checking is whole-module anyway. -json emits one object per line in
// the stable schema documented on lint.JSONDiagnostic. -allows prints the
// number of well-formed //lint:allow directives and exits (the
// suppression-budget gate in scripts/ci.sh). Exit status: 0 clean, 1 when
// any unsuppressed diagnostic was reported, 2 on load/type-check errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"threesigma/internal/lint"
)

func main() {
	var (
		ruleFlag   = flag.String("rule", "", "comma-separated rule names to run (default: all of "+strings.Join(lint.RuleNames(), ",")+")")
		jsonFlag   = flag.Bool("json", false, "emit one JSON object per diagnostic (stable schema; grep-able CI output)")
		dirFlag    = flag.String("C", ".", "module root to lint (directory containing go.mod)")
		hotFlag    = flag.String("hotmu", strings.Join(lint.DefaultHotLocks, ","), "comma-separated hot-mutex patterns for lockedcall's blocking check")
		allowsFlag = flag.Bool("allows", false, "print the number of well-formed //lint:allow directives and exit")
	)
	flag.Parse()

	if *allowsFlag {
		n, err := lint.CountAllows(*dirFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "3sigma-lint:", err)
			os.Exit(2)
		}
		fmt.Println(n)
		return
	}

	opts := lint.Options{HotLocks: splitList(*hotFlag)}
	opts.Rules = splitList(*ruleFlag)
	diags, err := lint.RunOpts(*dirFlag, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "3sigma-lint:", err)
		os.Exit(2)
	}
	diags = filterPatterns(diags, flag.Args())

	if *jsonFlag {
		if err := lint.WriteJSON(os.Stdout, diags); err != nil {
			fmt.Fprintln(os.Stderr, "3sigma-lint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d.String())
		}
	}
	if len(diags) > 0 {
		if !*jsonFlag {
			fmt.Fprintf(os.Stderr, "3sigma-lint: %d diagnostic(s)\n", len(diags))
		}
		os.Exit(1)
	}
}

func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

// filterPatterns keeps diagnostics under the given go-style package path
// patterns ("./...", "./internal/milp", "internal/milp/..."). No patterns,
// "." or "./..." keep everything.
func filterPatterns(diags []lint.Diagnostic, patterns []string) []lint.Diagnostic {
	var prefixes []string
	for _, p := range patterns {
		p = filepath.ToSlash(p)
		p = strings.TrimPrefix(p, "./")
		p = strings.TrimSuffix(p, "...")
		p = strings.TrimSuffix(p, "/")
		if p == "" || p == "." {
			return diags
		}
		prefixes = append(prefixes, p)
	}
	if len(prefixes) == 0 {
		return diags
	}
	var out []lint.Diagnostic
	for _, d := range diags {
		file := filepath.ToSlash(d.Pos.Filename)
		for _, p := range prefixes {
			if file == p || strings.HasPrefix(file, p+"/") {
				out = append(out, d)
				break
			}
		}
	}
	return out
}
