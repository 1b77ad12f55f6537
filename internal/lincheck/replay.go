package lincheck

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"

	"switchfs/internal/core"
	"switchfs/internal/wire"
)

// Verdict is the outcome of Replay.
type Verdict struct {
	// Ops counts operations replayed; Ambiguous those that timed out
	// (outcome unknown).
	Ops, Ambiguous int
	// Violations lists every invariant violation in detection order.
	Violations []string
}

// Replay is the three-valued oracle for histories too long for Check's
// search: a chaos mix records thousands of events per client. It replays the
// history in completion order against an in-memory namespace and chunk
// model and flags outcomes no linearization can produce. It is exact only
// when each directory's and each chunk's history is sequential — every
// client owns its directory and its chunks.
//
// UDP at-least-once delivery makes timed-out operations genuinely ambiguous:
// the request (or a retransmission still in flight) may be executed long
// after the client gave up. The model is therefore three-valued — an entry
// is Present, Absent, or Unknown — and a name any mutation ever timed out on
// stays Unknown for good: late ghost executions may flip it at any point, so
// the oracle stops pinning its state and only range-checks reads against
// it. Only ErrTimeout is ambiguous here; any other error is a violation.
// What must NEVER happen:
//
//   - a lost acknowledged write: an entry whose create was acked (and that
//     was never deleted or tainted) failing a read;
//   - a resurrection: an entry whose delete was acked (and that was never
//     recreated or tainted) appearing in a read;
//   - an impossible error: create over definitely-absent reporting EEXIST,
//     delete of definitely-present reporting ENOENT, and the like;
//   - a directory count outside [definitely-present, present+unknown];
//   - a chunk read below its highest acknowledged write version (lost acked
//     content) or above it (a re-executed retransmission), unless a
//     timed-out write or a data wipe (Event.Wipe) tainted the chunk.
func Replay(h History) Verdict {
	r := &replayer{
		dirs:   make(map[string]map[string]entryState),
		chunks: make(map[wire.ChunkKey]*chunkModel),
	}
	for _, e := range h {
		r.apply(e)
	}
	return r.v
}

// entryState is the model state of one name; the zero value is a name no
// operation has touched.
type entryState uint8

const (
	stAbsent entryState = iota
	stPresent
	// stUnknown is a tainted name: a mutation on it timed out.
	stUnknown
)

// chunkModel is the oracle state of one content chunk.
type chunkModel struct {
	// acked is the highest version any acknowledged write returned.
	acked uint64
	// tainted marks a chunk a write ever timed out on: a late ghost
	// execution may bump its version at any point, so only existence — not
	// the exact version — remains checkable.
	tainted bool
}

type replayer struct {
	// dirs maps each directory to its touched names' states.
	dirs map[string]map[string]entryState
	// chunks holds, per content chunk, the highest acknowledged version:
	// an acked chunk write must survive any ≤ r−1 data-node failures.
	chunks    map[wire.ChunkKey]*chunkModel
	dataWiped bool
	v         Verdict
}

func (r *replayer) violatef(format string, args ...any) {
	r.v.Violations = append(r.v.Violations, fmt.Sprintf(format, args...))
}

func (r *replayer) chunkOf(c wire.ChunkKey) *chunkModel {
	m := r.chunks[c]
	if m == nil {
		m = &chunkModel{}
		r.chunks[c] = m
	}
	if r.dataWiped {
		m.tainted = true
	}
	return m
}

// splitPath splits a client path into its directory and final name.
func splitPath(path string) (dir, name string) {
	i := strings.LastIndexByte(path, '/')
	return path[:i], path[i+1:]
}

func (r *replayer) apply(e Event) {
	if e.Wipe {
		// >= r data nodes were down at once: some chunk's whole replica set
		// may be gone, so no read is checkable against acked history anymore.
		r.dataWiped = true
		for _, m := range r.chunks {
			m.tainted = true
		}
		return
	}
	r.v.Ops++
	err := e.Out.Err
	timeout := errors.Is(err, core.ErrTimeout)
	if timeout {
		r.v.Ambiguous++
	}
	switch op := e.Op.Kind; op {
	case core.OpCreate, core.OpMkdir, core.OpDelete, core.OpRmdir, core.OpStat, core.OpOpen:
		dir, name := splitPath(e.Op.Path)
		r.applyEntry(op, dir, name, e.Resent, err, timeout)
	case core.OpStatDir:
		r.applyStatDir(e.Op.Path, e.Out.Attr.Size, err, timeout)
	case core.OpReadDir:
		r.applyReadDir(e.Op.Path, e.Out.Entries, err, timeout)
	case core.OpWrite:
		r.applyWrite(e.Op.Chunk, e.Out.Version, err, timeout)
	case core.OpRead:
		r.applyRead(e.Op.Chunk, e.Out.Version, err, timeout)
	default:
		r.violatef("replay: unsupported op %v on %s", op, e.Op.Path)
	}
}

// applyEntry replays one namespace operation on dir/name. A retried
// (resent) mutation is at-least-once: a server crash between tries discards
// the RPC dedup cache, so the retry re-executes and can observe the
// operation's own earlier effect — EEXIST from a create that did apply,
// ENOENT from a delete that did. Either reading leaves the entry in the same
// final state, so those outcomes resolve definitely rather than flagging.
// An Unknown entry stays Unknown whatever the outcome: a late ghost of the
// timed-out mutation may still land.
func (r *replayer) applyEntry(op core.Op, dir, name string, resent bool, err error, timeout bool) {
	dm := r.dirs[dir]
	if dm == nil {
		dm = make(map[string]entryState)
		r.dirs[dir] = dm
	}
	st := dm[name]
	switch op {
	case core.OpCreate, core.OpMkdir:
		switch {
		case err == nil:
			if st == stPresent {
				r.violatef("%s %s/%s succeeded over a definitely-present entry", op, dir, name)
			}
			if st != stUnknown {
				st = stPresent
			}
		case errors.Is(err, core.ErrExist):
			if st == stAbsent && !resent {
				r.violatef("%s %s/%s reported EEXIST over a definitely-absent entry", op, dir, name)
			}
			if st != stUnknown {
				// Genuine EEXIST or the retried create's own effect: either
				// way the entry is now definitely present.
				st = stPresent
			}
		case timeout:
			// The create may be executed late; the entry's fate is no longer
			// decidable from this history. A definitely-present entry is
			// immune: the late create can only fail with EEXIST.
			if st != stPresent {
				st = stUnknown
			}
		default:
			r.violatef("%s %s/%s: unexpected error %v", op, dir, name, err)
		}
	case core.OpDelete, core.OpRmdir:
		switch {
		case err == nil:
			if st == stAbsent {
				r.violatef("%s %s/%s succeeded on a definitely-absent entry", op, dir, name)
			}
			if st != stUnknown {
				st = stAbsent
			}
		case errors.Is(err, core.ErrNotExist):
			if st == stPresent && !resent {
				r.violatef("lost acknowledged write: %s %s/%s reported ENOENT on a definitely-present entry",
					op, dir, name)
			}
			if st != stUnknown {
				// Genuine ENOENT or the retried delete's own effect: either
				// way the entry is now definitely absent.
				st = stAbsent
			}
		case timeout:
			// Deleting a definitely-absent entry can only fail; no taint.
			if st != stAbsent {
				st = stUnknown
			}
		default:
			r.violatef("%s %s/%s: unexpected error %v", op, dir, name, err)
		}
	default: // stat, open
		switch {
		case err == nil:
			if st == stAbsent {
				r.violatef("resurrection: stat %s/%s succeeded on a definitely-absent entry", dir, name)
			}
		case errors.Is(err, core.ErrNotExist):
			if st == stPresent {
				r.violatef("lost acknowledged write: stat %s/%s reported ENOENT on a definitely-present entry",
					dir, name)
			}
		case timeout:
			// No information.
		default:
			r.violatef("stat %s/%s: unexpected error %v", dir, name, err)
		}
	}
	dm[name] = st
}

// applyStatDir checks a directory-size observation against the model's
// definite and possible live-entry counts.
func (r *replayer) applyStatDir(dir string, size int64, err error, timeout bool) {
	switch {
	case err == nil:
		lo, hi := 0, 0
		for _, st := range r.dirs[dir] {
			switch st {
			case stPresent:
				lo++
				hi++
			case stUnknown:
				hi++
			}
		}
		if size < int64(lo) || size > int64(hi) {
			r.violatef("statdir %s: size %d outside model bounds [%d, %d]", dir, size, lo, hi)
		}
	case timeout:
	case errors.Is(err, core.ErrNotExist):
		r.violatef("statdir %s: harness directory reported ENOENT", dir)
	default:
		r.violatef("statdir %s: unexpected error %v", dir, err)
	}
}

// applyReadDir checks an entry-list observation against the model: every
// definitely-present entry must be listed, and no definitely-absent entry
// may appear.
func (r *replayer) applyReadDir(dir string, listing []core.DirEntry, err error, timeout bool) {
	switch {
	case err == nil:
		dm := r.dirs[dir]
		listed := make(map[string]bool, len(listing))
		for _, le := range listing {
			listed[le.Name] = true
			if st, seen := dm[le.Name]; seen && st == stAbsent {
				r.violatef("resurrection: readdir %s lists definitely-absent entry %q", dir, le.Name)
			}
		}
		for _, n := range slices.Sorted(maps.Keys(dm)) {
			if dm[n] == stPresent && !listed[n] {
				r.violatef("lost acknowledged write: readdir %s is missing definitely-present entry %q", dir, n)
			}
		}
	case timeout:
	default:
		r.violatef("readdir %s: unexpected error %v", dir, err)
	}
}

// applyWrite replays one completed chunk write: ver is the version the
// primary acknowledged (0 on error). Acked versions of a chunk must grow.
func (r *replayer) applyWrite(chunk wire.ChunkKey, ver uint64, err error, timeout bool) {
	m := r.chunkOf(chunk)
	switch {
	case err == nil:
		if !m.tainted && ver <= m.acked {
			r.violatef("lost acked content write: chunk %d/%d write acked version %d, but %d was already acknowledged",
				chunk.File, chunk.Stripe, ver, m.acked)
		}
		m.acked = max(m.acked, ver)
	case timeout:
		// The write (or a retransmission still queued) may execute late and
		// bump the version at any point — the chunk's exact version is no
		// longer decidable.
		m.tainted = true
	default:
		r.violatef("chunk %d/%d write: unexpected error %v", chunk.File, chunk.Stripe, err)
	}
}

// applyRead replays one completed chunk read: ver is the version the
// primary reported (0 for a never-written chunk).
func (r *replayer) applyRead(chunk wire.ChunkKey, ver uint64, err error, timeout bool) {
	m := r.chunkOf(chunk)
	switch {
	case err == nil:
		if m.tainted {
			return // ghost writes may have moved the version either way
		}
		if ver < m.acked {
			r.violatef("lost acked content write: chunk %d/%d read version %d, but %d was acknowledged",
				chunk.File, chunk.Stripe, ver, m.acked)
		}
		if ver > m.acked {
			// No un-acked, un-timed-out write exists in a sequential
			// history: a higher version means a retransmission re-executed
			// (the duplicate-bump bug class).
			r.violatef("phantom content write: chunk %d/%d read version %d above acknowledged %d",
				chunk.File, chunk.Stripe, ver, m.acked)
		}
	case timeout:
	default:
		r.violatef("chunk %d/%d read: unexpected error %v", chunk.File, chunk.Stripe, err)
	}
}
