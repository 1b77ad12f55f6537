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
//   - a protocol decision is sent before its WAL record is appended (a 2PC
//     commit a crash forgets): walorder, testdata/walorder;
//   - a sim lock is still held on a return path (a 2PC prepare that gives
//     up holding its key locks): lockpair, testdata/lockpair;
//   - a packet is written after it crossed Send (stamping a packet that is
//     still in flight): sendalias, testdata/sendalias;
//   - a retransmitted RPC re-executes its mutation instead of replaying the
//     dedup cache: idempotent, testdata/idempotent;
//   - a nondeterministic value (wall clock, pool internals, map-order slice)
//     reaches a packet, WAL record or bench row, across functions and
//     packages: dettaint, testdata/dettaint;
//   - a suppression without a written reason, or a malformed directive:
//     detdirective, testdata/detdirective.
//
// Every analyzer but maprange's and hostapi's syntax walks asks the same
// questions of the package's call graph, and one summary analyzer answers
// them once per package (emits, appends record r, mutates, releases
// parameter i), together with the ignore-directive index. walorder,
// idempotent and lockpair share one CFG reachability query (flow.go).
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
		Walorder,
		Lockpair,
		Sendalias,
		Idempotent,
		Dettaint,
		Detdirective,
	}
}
