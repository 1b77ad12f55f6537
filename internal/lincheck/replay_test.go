package lincheck

import (
	"strings"
	"testing"

	"switchfs/internal/core"
	"switchfs/internal/wire"
	"switchfs/internal/workload"
)

// nsEv builds a completed namespace event; resent marks a retransmitted
// mutation.
func nsEv(kind core.Op, path string, err error, resent bool) Event {
	return Event{Op: workload.Op{Kind: kind, Path: path}, Out: workload.Outcome{Err: err}, Resent: resent}
}

func statDirEv(path string, size int64) Event {
	return Event{Op: workload.Op{Kind: core.OpStatDir, Path: path}, Out: workload.Outcome{Attr: core.Attr{Size: size}}}
}

func readDirEv(path string, names ...string) Event {
	es := make([]core.DirEntry, len(names))
	for i, n := range names {
		es[i] = core.DirEntry{Name: n}
	}
	return Event{Op: workload.Op{Kind: core.OpReadDir, Path: path}, Out: workload.Outcome{Entries: es}}
}

// chunkEv builds a completed chunk write or read of version ver.
func chunkEv(kind core.Op, file uint32, ver uint64, err error) Event {
	return Event{Op: workload.Op{Kind: kind, Chunk: wire.ChunkKey{File: file}}, Out: workload.Outcome{Version: ver, Err: err}}
}

type replayCase struct {
	name string
	h    History
	// want holds one substring per expected violation, in detection order.
	want      []string
	ambiguous int
}

func runReplayCases(t *testing.T, cases []replayCase) {
	t.Helper()
	for _, tc := range cases {
		v := Replay(tc.h)
		if len(v.Violations) != len(tc.want) {
			t.Errorf("%s: %d violations %q, want %d", tc.name, len(v.Violations), v.Violations, len(tc.want))
			continue
		}
		for i, w := range tc.want {
			if !strings.Contains(v.Violations[i], w) {
				t.Errorf("%s: violation %d is %q, want it to mention %q", tc.name, i, v.Violations[i], w)
			}
		}
		if v.Ambiguous != tc.ambiguous {
			t.Errorf("%s: %d ambiguous, want %d", tc.name, v.Ambiguous, tc.ambiguous)
		}
	}
}

// TestCheckerUnitTransitions exercises Replay's three-valued namespace
// semantics over hand-built histories, one row per verdict.
func TestCheckerUnitTransitions(t *testing.T) {
	const (
		C, D, S = core.OpCreate, core.OpDelete, core.OpStat
	)
	ok := error(nil)
	runReplayCases(t, []replayCase{
		{name: "lost ack",
			h:    History{nsEv(C, "/d/a", ok, false), nsEv(S, "/d/a", core.ErrNotExist, false)},
			want: []string{"lost acknowledged write: stat /d/a"}},
		{name: "resurrection",
			h: History{nsEv(C, "/d/a", ok, false), nsEv(D, "/d/a", ok, false),
				nsEv(S, "/d/a", ok, false)},
			want: []string{"resurrection: stat /d/a"}},
		{name: "impossible EEXIST",
			h:    History{nsEv(C, "/d/s", core.ErrExist, false)},
			want: []string{"EEXIST over a definitely-absent entry"}},
		{name: "impossible ENOENT",
			h:    History{nsEv(C, "/d/s", ok, false), nsEv(D, "/d/s", core.ErrNotExist, false)},
			want: []string{"lost acknowledged write: delete /d/s reported ENOENT"}},
		{name: "resent own effect",
			h: History{nsEv(C, "/d/r", core.ErrExist, true), nsEv(S, "/d/r", ok, false),
				nsEv(D, "/d/r", core.ErrNotExist, true), readDirEv("/d")}},
		{name: "resent own effect, then lost",
			h:    History{nsEv(C, "/d/r", core.ErrExist, true), nsEv(S, "/d/r", core.ErrNotExist, false)},
			want: []string{"lost acknowledged write: stat /d/r"}},
		{name: "timed-out create may land or not",
			h: History{nsEv(C, "/d/b", core.ErrTimeout, true), nsEv(S, "/d/b", ok, false),
				nsEv(S, "/d/b", core.ErrNotExist, false)},
			ambiguous: 1},
		{name: "size within bounds",
			h: History{nsEv(C, "/d/x", ok, false), nsEv(C, "/d/y", core.ErrTimeout, false),
				statDirEv("/d", 1), statDirEv("/d", 2)},
			ambiguous: 1},
		{name: "size outside bounds",
			h: History{nsEv(C, "/d/x", ok, false), nsEv(C, "/d/y", core.ErrTimeout, false),
				statDirEv("/d", 0), statDirEv("/d", 3)},
			want:      []string{"size 0 outside model bounds [1, 2]", "size 3 outside model bounds [1, 2]"},
			ambiguous: 1},
		{name: "readdir",
			h: History{nsEv(C, "/d/p", ok, false), nsEv(D, "/d/q", core.ErrNotExist, false),
				readDirEv("/d", "p"), readDirEv("/d", "q")},
			want: []string{"resurrection: readdir /d lists definitely-absent entry \"q\"",
				"lost acknowledged write: readdir /d is missing definitely-present entry \"p\""}},
		{name: "only a timeout is ambiguous",
			h:    History{nsEv(C, "/d/u", core.ErrUnavailable, false)},
			want: []string{"unexpected error"}},
	})
}

// TestCheckerDataUnitTransitions drives Replay's chunk model, one row per
// verdict.
func TestCheckerDataUnitTransitions(t *testing.T) {
	const W, R = core.OpWrite, core.OpRead
	ok := error(nil)
	runReplayCases(t, []replayCase{
		{name: "clean", h: History{chunkEv(W, 1, 1, ok), chunkEv(R, 1, 1, ok)}},
		{name: "lost chunk version",
			h:    History{chunkEv(W, 1, 1, ok), chunkEv(R, 1, 0, ok)},
			want: []string{"lost acked content write: chunk 1/0 read version 0"}},
		{name: "phantom chunk version",
			h:    History{chunkEv(W, 1, 1, ok), chunkEv(R, 1, 5, ok)},
			want: []string{"phantom content write: chunk 1/0 read version 5"}},
		{name: "acks must grow",
			h:    History{chunkEv(W, 2, 3, ok), chunkEv(W, 2, 3, ok)},
			want: []string{"write acked version 3, but 3 was already acknowledged"}},
		{name: "timed-out write taints",
			h: History{chunkEv(W, 1, 1, ok), chunkEv(W, 1, 0, core.ErrTimeout),
				chunkEv(R, 1, 0, ok), chunkEv(R, 1, 9, ok)},
			ambiguous: 1},
		{name: "wipe taints every chunk, seen and unseen",
			h: History{chunkEv(W, 7, 4, ok), {Wipe: true},
				chunkEv(R, 7, 0, ok), chunkEv(R, 8, 11, ok)}},
	})
}
