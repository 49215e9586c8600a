package analysis

import "go/ast"

// Goroutine forbids go statements and sync.WaitGroup outside the three
// sanctioned concurrency layers: internal/runner (cross-simulation —
// the bounded pool keeps results in declaration order at any -parallel
// level), internal/serve (the service daemon's HTTP listener and
// job-queue workers, which sit strictly above the runner: a job's
// simulations still execute through the runner's pool, and concurrent
// jobs share no simulator state), and internal/fleet (the
// coordinator's dispatch workers and health prober, which sit strictly
// above serve and touch only HTTP clients and the coordinator's own
// mutex-guarded queues). A simulation itself always steps on one
// goroutine.
var Goroutine = &Analyzer{
	Name: "goroutine",
	Doc:  "no go statements or sync.WaitGroup outside internal/runner, internal/serve and internal/fleet",
	Explain: `All concurrency flows through three audited layers: internal/runner
(cross-simulation: a bounded pool that keeps results in declaration
order at any -parallel level), internal/serve (the daemon's listener
and job queue, strictly above the runner), and internal/fleet (the
coordinator's dispatch workers and health prober, strictly above
serve). A simulation itself always steps on one goroutine. An ad-hoc
go statement or WaitGroup anywhere else creates an interleaving the
determinism argument does not cover. The rule flags go statements and
any mention of sync.WaitGroup outside those packages.

Waive with //nocvet:allow goroutine only for concurrency that cannot
touch simulator state, with the isolation argument in the
justification.`,
	Run: func(pass *Pass) {
		rel := pass.Rel()
		if rel == "internal/runner" || rel == "internal/serve" || rel == "internal/fleet" {
			return
		}
		for _, f := range pass.Files {
			syncName, hasSync := importName(f.AST, "sync")
			ast.Inspect(f.AST, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					pass.Reportf(f, n.Pos(),
						"go statement outside internal/runner; route parallelism through the bounded pool")
				case ast.Expr:
					if hasSync && isPkgSel(n, syncName, "WaitGroup") {
						pass.Reportf(f, n.Pos(),
							"sync.WaitGroup outside internal/runner; route parallelism through the bounded pool")
					}
				}
				return true
			})
		}
	},
}
