// Package detlint is a go/analysis suite that proves, at compile time, the
// determinism and protocol invariants the repo's empirical harnesses
// (cmd/fsbench's TestGate, the lincheck sweep) can only probe after the fact:
//
//   - maprange: map iteration order must not leak into packet emission,
//     escaping slices, or last-writer-wins state (the PR 5 change-log bug
//     class).
//   - wallclock: simulator-visible packages take time and randomness from
//     the env runtime, never from the wall clock or global math/rand.
//   - rawgo: simulator-scheduled packages use env.Proc and the env blocking
//     primitives, never raw goroutines, channels or sync parks.
//   - walorder: annotated protocol decisions are WAL-logged before any
//     packet carrying them leaves (the PR 3/5 2PC bug class).
//   - lockpair: sim locks are released on every return path, or the
//     function declares the handoff (the PR 5 2PC lock-leak class).
//   - sendalias: packets are never written after they crossed Send (the
//     PR 8 copy-before-stamp class).
//   - idempotent: mutating handlers for retransmittable RPCs consult the
//     dedup cache before their first side effect (the PR 2/4 class).
//   - dettaint: nondeterminism sources (wall clock, pool internals,
//     map-order slices) never reach packets, WAL records or bench rows —
//     maprange generalized across functions and packages via facts.
//   - detdirective: the suite's own suppressions carry written reasons.
//
// The suite runs through cmd/detlint under `go vet -vettool` (make detlint,
// CI job detlint). Policy — which packages each analyzer governs and which
// files are exempt — lives in detlint.json; per-site exceptions use
// `//detlint:ignore <analyzer> -- <reason>`, and a missing reason is itself
// a diagnostic. See DESIGN.md "Determinism lint".
package detlint

import "golang.org/x/tools/go/analysis"

// Analyzers returns the full suite in a stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Maprange,
		Wallclock,
		Rawgo,
		Walorder,
		Lockpair,
		Sendalias,
		Idempotent,
		Dettaint,
		Detdirective,
	}
}
