// Package lincheck checks SwitchFS's full metadata API for linearizability
// and for agreement with the in-repo baseline implementation, and owns the
// one runner every checked run goes through.
//
// The pieces:
//
//   - Model, a pure sequential reference implementation of the fsapi surface
//     (plus hard links) with the exact error semantics of the public Session
//     API — ErrNotExist/ErrExist/ErrNotDir/ErrIsDir/ErrNotEmpty/ErrInvalid/
//     ErrLoop, in the order the servers check them;
//   - Run, the checked-run runner: it spawns a Source's client op loops on a
//     cluster — fault-free or across a chaos plan — records one History of
//     invocation/response intervals in virtual time, and ends every run with
//     the same epilogue (heal and recover, wedge check, drain, audit reads).
//     Two sources feed it: generated programs (RunConcurrent) and the
//     closed-loop chaos mix (RunMix);
//   - two oracles over a History, both tolerant of the at-least-once
//     ambiguity of UDP RPC (a timed-out mutation may apply late or never; a
//     retransmitted one may observe its own earlier effect): Check, a
//     WGL/porcupine-style linearizability search for short histories, with
//     Minimize shrinking any counterexample to a small printable trace; and
//     Replay, the three-valued oracle for the long, per-client-sequential
//     histories of a chaos mix.
//
// Programs are generated deterministically from a seed (GenProgram), run
// concurrently against SwitchFS (RunConcurrent) and sequentially against
// SwitchFS, the baseline, and the model at once (RunDiff), diffing per-op
// results and final namespace trees.
package lincheck

import (
	"fmt"
	"strings"

	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/workload"
)

// Event is one completed operation of a concurrent history.
type Event struct {
	// Client identifies the issuing session (audit reads use a fresh id).
	Client int
	Op     workload.Op
	// Out is the observation, with the client's raw error.
	Out workload.Outcome
	// Call and Ret are the invocation/response instants in virtual time.
	Call, Ret env.Time
	// TimedOut marks an ambiguous operation: the client gave up, but the
	// request (or a retransmission still queued) may execute at any later
	// point — or never. The checker linearizes it anywhere after Call or
	// drops it entirely. It classifies Out.Err (ambiguousErr); Replay keeps
	// its own, narrower rule.
	TimedOut bool
	// Resent marks a retransmitted mutation: if a server crash discarded the
	// RPC dedup cache between tries, the retry re-executed and may have
	// observed the operation's own earlier effect (EEXIST from its own
	// create, ENOENT from its own delete/rename). The checker then accepts
	// the success interpretation too.
	Resent bool
	// Wipe marks no operation but the instant a plan's data-node crash left
	// at least r data nodes down: any chunk's whole replica set may be gone
	// from then on. Only chunk histories carry it; Replay reads it.
	Wipe bool
}

func (e Event) String() string {
	if e.Wipe {
		return fmt.Sprintf("%-5s [%8d] data wipe: >= r data nodes down", "plan", e.Call)
	}
	who := fmt.Sprintf("c%d", e.Client)
	if e.Client < 0 {
		who = "ghost"
	}
	ret := fmt.Sprintf("%8d", e.Ret)
	flag := ""
	if e.TimedOut {
		ret = "       ∞"
		flag = "  (timed out: may apply late, twice, or never)"
	} else if e.Resent {
		flag = "  (resent)"
	}
	return fmt.Sprintf("%-5s [%8d, %s] %-28s = %s%s", who, e.Call, ret, e.Op, e.Out, flag)
}

// History is a recorded concurrent execution, in completion order.
type History []Event

func (h History) String() string {
	var b strings.Builder
	for i, e := range h {
		fmt.Fprintf(&b, "%3d: %s\n", i, e.String())
	}
	return b.String()
}

// errno compresses an error to a comparable code. Timeouts must be filtered
// by the caller first (core.ErrnoOf folds unknown errors to ErrnoInvalid).
func errno(err error) core.Errno { return core.ErrnoOf(err) }

// sameErr reports whether two non-timeout errors are the same sentinel.
func sameErr(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	return errno(a) == errno(b)
}
