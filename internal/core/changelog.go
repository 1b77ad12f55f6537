package core

import "fmt"

// LogEntry is one committed-but-not-yet-applied asynchronous directory
// update (§5.3, Fig. 7): the timestamp, operation type, and component name.
// Entries live in a per-server, per-directory FIFO queue; FIFO order is what
// preserves the commit order of dependent updates to the same name (create
// then delete of one file are always logged by the same server because both
// hash to the file's owner).
type LogEntry struct {
	// ID is the logging server's commit sequence number for this entry.
	// Within one (server, directory) change-log IDs strictly increase; the
	// directory's owner uses them to apply each entry exactly once even when
	// crash recovery re-sends entries (§A.1 "Idempotence of recovery").
	ID uint64
	// Time is the commit timestamp (virtual ns); timestamp merges keep the
	// maximum (§5.3 action type (b)).
	Time int64
	// Op is one of OpCreate, OpDelete, OpMkdir, OpRmdir.
	Op Op
	// Name is the directory entry affected.
	Name string
	// Type and Perm describe the entry for insertions.
	Type FileType
	Perm Perm
}

// ChangeLog is the FIFO queue of deferred updates to one remote directory,
// held by the server that executed the local halves of the operations.
// ChangeLog is not self-synchronized: the owning server guards it with the
// per-directory change-log lock required by the protocol (§5.2.1 step 2).
//
// Entries are immutable once appended: Snapshot hands out views of the
// backing array instead of copies, so no method may write to an index a view
// can see. Append only writes past every view's length, and AckThrough either
// reslices (dropped prefix) or moves the survivors to a fresh array.
type ChangeLog struct {
	entries []LogEntry
	// bytes approximates the wire size of pending entries, for the
	// fill-an-MTU proactive push trigger (§5.3).
	bytes int
}

// entryWireBytes approximates one entry's size in a change-log push packet.
func entryWireBytes(e LogEntry) int { return 8 + 8 + 1 + 1 + 2 + 2 + len(e.Name) }

// Append adds a committed update to the tail of the queue.
func (l *ChangeLog) Append(e LogEntry) {
	l.entries = append(l.entries, e)
	l.bytes += entryWireBytes(e)
}

// Len returns the number of pending entries.
func (l *ChangeLog) Len() int { return len(l.entries) }

// Bytes returns the approximate wire size of pending entries.
func (l *ChangeLog) Bytes() int { return l.bytes }

// Snapshot returns the pending entries without draining them; used when
// sending entries to the owner while they must remain re-sendable until the
// owner's acknowledgment arrives (§5.2.2 steps 6–9). The result is an O(1)
// read-only view that stays what it was when taken; its capacity is clipped,
// so an append onto it copies instead of writing into the log.
func (l *ChangeLog) Snapshot() []LogEntry {
	n := len(l.entries)
	return l.entries[:n:n]
}

// AckThrough drops every entry with ID ≤ id — called when the directory owner
// acknowledges application, after the entries were marked "applied" in the
// local WAL. The whole queue is filtered (not just a prefix): concurrent
// appenders of different names may interleave ID assignment and queue order.
func (l *ChangeLog) AckThrough(id uint64) {
	k, dropped := 0, 0
	for i, e := range l.entries {
		if e.ID > id {
			continue
		}
		l.bytes -= entryWireBytes(e)
		dropped++
		if i == k {
			k++ // still inside the acknowledged prefix
		}
	}
	switch {
	case dropped == len(l.entries):
		l.entries = nil
	case dropped == k:
		l.entries = l.entries[k:]
	default:
		kept := make([]LogEntry, 0, len(l.entries)-dropped)
		for _, e := range l.entries[k:] {
			if e.ID > id {
				kept = append(kept, e)
			}
		}
		l.entries = kept
	}
}

// EntryOp is a compacted entry-list mutation: the final fate of one name.
type EntryOp struct {
	Name string
	Put  bool // true: insert/overwrite dentry; false: remove dentry
	Type FileType
	Perm Perm
}

// Compacted is the result of change-log compaction (§5.3): commuting
// attribute deltas merged into one update, and entry-list operations folded
// per name. Applying a Compacted update to the directory inode is equivalent
// to applying the original entries in FIFO order — see Compact.
type Compacted struct {
	// MaxTime is the largest commit timestamp among the entries; the
	// directory's mtime/ctime advance to it (timestamps are overwrite-max).
	MaxTime int64
	// NetEntries is the net change to the directory's entry count (its Size
	// attribute): +1 per create/mkdir, −1 per delete/rmdir.
	NetEntries int64
	// Ops holds one operation per distinct name, in first-touch order.
	// Creates cancelled by later deletes of the same name disappear.
	Ops []EntryOp
	// MaxID is the largest entry ID covered, acknowledged back to the
	// logging server.
	MaxID uint64
	// Count is the number of raw entries compacted.
	Count int
}

// Compact folds a FIFO slice of change-log entries into a Compacted update.
//
// Correctness argument (paper §5.3): (a) size deltas commute — summation;
// (b) timestamps are overwrite-largest — max; (c) insert/remove of different
// names commute, while repeated insert/remove of the same name must respect
// FIFO order — folding to the *last* operation per name is equivalent because
// dentry insertion is a blind overwrite and removal a blind delete, so the
// final state only depends on the final operation.
func Compact(entries []LogEntry) Compacted {
	c := Compacted{Count: len(entries)}
	if len(entries) == 0 {
		return c
	}
	last := make(map[string]int, len(entries)) // name → index into c.Ops
	for _, e := range entries {
		if e.Time > c.MaxTime {
			c.MaxTime = e.Time
		}
		if e.ID > c.MaxID {
			c.MaxID = e.ID
		}
		op := EntryOp{Name: e.Name, Type: e.Type, Perm: e.Perm}
		switch e.Op {
		case OpCreate, OpMkdir:
			c.NetEntries++
			op.Put = true
		case OpDelete, OpRmdir:
			c.NetEntries--
			op.Put = false
		default:
			panic(fmt.Sprintf("core: op %v cannot appear in a change-log", e.Op))
		}
		if i, ok := last[e.Name]; ok {
			c.Ops[i] = op
		} else {
			last[e.Name] = len(c.Ops)
			c.Ops = append(c.Ops, op)
		}
	}
	// A create later cancelled by a delete leaves a remove for a dentry that
	// never reached the owner; the remove is harmless (blind delete) but we
	// can prune pure create+delete pairs: they are detectable as !Put ops
	// whose net contribution already cancelled. We keep them — pruning would
	// require knowing prior presence at the owner, which only the owner has.
	return c
}

// ApplyToAttr merges the compacted attribute update into a directory inode's
// attributes: entry-count delta and overwrite-max timestamps. Entry-list
// mutations are applied separately by the owner against its dentry records.
func (c Compacted) ApplyToAttr(a *Attr) {
	a.Size += c.NetEntries
	if a.Size < 0 {
		a.Size = 0
	}
	if c.MaxTime > a.Mtime {
		a.Mtime = c.MaxTime
	}
	if c.MaxTime > a.Ctime {
		a.Ctime = c.MaxTime
	}
}
