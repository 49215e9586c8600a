// Command nocvet runs the repository's determinism and
// simulator-invariant static analysis over package patterns and exits
// nonzero on findings. It is the compile-time complement to the
// runtime parallelism-invariance regression test: every property that
// keeps a run byte-identical at any -parallel level is encoded as a
// rule in internal/analysis.
//
// Usage:
//
//	go run ./cmd/nocvet ./...                    # whole module, human-readable
//	go run ./cmd/nocvet -json ./...              # machine-readable findings
//	go run ./cmd/nocvet -list                    # list the rule set
//	go run ./cmd/nocvet -rules maprange ./...    # run a rule subset
//	go run ./cmd/nocvet -explain maprange        # long-form rule documentation
//
// Exit status: 0 clean, 1 findings, 2 tool error (bad pattern, unknown
// rule, unparseable or untypeable source).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"nocsim/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nocvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jsonOut   = fs.Bool("json", false, "emit findings as a JSON array")
		listRules = fs.Bool("list", false, "list rules and exit")
		rulesCSV  = fs.String("rules", "", "comma-separated rule subset to run (default: all)")
		explain   = fs.String("explain", "", "print a rule's long-form documentation and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *listRules {
		for _, a := range analysis.Rules() {
			fmt.Fprintf(stdout, "%-11s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *explain != "" {
		a := analysis.ByName(*explain)
		if a == nil {
			fmt.Fprintf(stderr, "nocvet: unknown rule %q; run -list for the rule set\n", *explain)
			return 2
		}
		fmt.Fprintf(stdout, "%s — %s\n", a.Name, a.Doc)
		if a.Explain != "" {
			fmt.Fprintf(stdout, "\n%s\n", a.Explain)
		}
		return 0
	}

	rules, err := analysis.Select(*rulesCSV)
	if err != nil {
		fmt.Fprintln(stderr, "nocvet:", err)
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintln(stderr, "nocvet:", err)
		return 2
	}
	dirs, err := loader.Expand(patterns)
	if err != nil {
		fmt.Fprintln(stderr, "nocvet:", err)
		return 2
	}

	var diags []analysis.Diagnostic
	for _, dir := range dirs {
		pass, typeErrs, err := loader.LoadDir(dir, loader.ImportPath(dir), true)
		if err != nil {
			fmt.Fprintln(stderr, "nocvet:", err)
			return 2
		}
		if len(typeErrs) > 0 {
			fmt.Fprintf(stderr, "nocvet: type-checking %s failed:\n", loader.ImportPath(dir))
			for _, e := range typeErrs {
				fmt.Fprintf(stderr, "\t%v\n", e)
			}
			return 2
		}
		diags = append(diags, analysis.Run(pass, rules)...)
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(stderr, "nocvet:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "nocvet: %d finding(s)\n", len(diags))
		}
		return 1
	}
	return 0
}
