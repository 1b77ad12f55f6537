// Package detlint is a go/analysis suite that proves, at compile time, the
// determinism and protocol invariants the repo's empirical harnesses
// (cmd/fsbench's TestGate, the lincheck sweep) can only probe after the fact.
// One line per bug class: the analyzer that flags it, then the fixture that
// shows it flagged.
//
//   - map iteration order leaks into packets, escaping slices or
//     last-writer-wins state (a change-log multicast sent in map order):
//     maprange, testdata/maprange;
//   - a wall-clock read or globally seeded randomness in simulator code:
//     hostapi, testdata/wallclock;
//   - a raw goroutine, channel or sync park escapes the token-passing
//     scheduler: hostapi, testdata/rawgo;
//   - a sim lock is still held on a return path (a 2PC prepare that gives
//     up holding its key locks): lockpair, testdata/lockpair;
//   - a packet is written after it crossed Send (stamping a packet that is
//     still in flight): sendalias, testdata/sendalias;
//   - a nondeterministic value (wall clock, pool internals, map-order slice)
//     reaches a packet, WAL record or bench row, across functions and
//     packages: dettaint, testdata/dettaint;
//   - a suppression without a written reason, or a malformed directive:
//     detdirective, testdata/detdirective.
//
// Two protocol rules are not linted: the code keeps each at one place
// (DESIGN.md "One dispatch", "Log, then send"). A retransmitted request
// passes one replay-or-begin step in its node's dispatch table, so it is
// answered from the memo and never runs again; a prepared vote, a commit
// decision or a commit notice is sent only by a function that takes its WAL
// record.
//
// Every analyzer but maprange's and hostapi's syntax walks asks the same
// questions of the package's call graph, and one summary analyzer answers
// them once per package (emits, appends a record, releases parameter i),
// together with the ignore-directive index. lockpair asks one CFG
// reachability query (flow.go).
//
// The suite runs through cmd/detlint under `go vet -vettool`; cmd/detlint's
// TestVetTree does that over the whole tree inside `go test ./...`. Policy —
// which packages each analyzer governs — lives in detlint.json; per-site
// exceptions use `//detlint:ignore <analyzer> -- <reason>`, and a missing
// reason is itself a diagnostic. See DESIGN.md "Determinism lint".
package detlint

import "golang.org/x/tools/go/analysis"

// Analyzers returns the full suite in a stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Maprange,
		Hostapi,
		Lockpair,
		Sendalias,
		Dettaint,
		Detdirective,
	}
}
