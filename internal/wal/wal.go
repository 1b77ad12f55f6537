// Package wal implements the per-server write-ahead log used for crash
// recovery (paper §5.2, §5.4.2). The log records the sequence of committed
// operations and marks whether each asynchronous update has been applied to
// the remote directory inode; recovery replays unmarked records.
//
// The one backend is an in-memory log: under Sim "persistence" means
// surviving a modeled crash. Append copies each payload once, into an arena
// of 64 KiB chunks (a payload larger than a chunk gets a chunk of its own),
// and indexes it with a 16-byte entry. A record its writer resolves later
// goes in through AppendTransient instead, into 4 KiB chunks that hold only
// such records: marking one applied gives its payload up, and a chunk whose
// transient records are all marked is released whole. Its records keep their
// index entries. Nothing in the arena is ever rewritten, so Replay hands out
// views of it rather than copies: read-only, and capped so that appending to
// one cannot reach the next record.
package wal

import (
	"fmt"
	"slices"
)

// LSN is a log sequence number: the position of a record, starting at 1.
type LSN uint64

// Record is one log entry.
type Record struct {
	LSN     LSN
	Kind    uint8
	Payload []byte
	// Applied marks asynchronous updates whose remote application has been
	// acknowledged; recovery skips them (§5.4.2).
	Applied bool
}

// --- In-memory backend ---------------------------------------------------

// chunkSize is the arena's allocation unit; transientChunkSize is the
// transient records' one, small so that a chunk empties soon after the
// records in it are resolved.
const (
	chunkSize          = 64 << 10
	transientChunkSize = 4 << 10
)

// entry indexes one record: its payload is chunks[chunk][off:off+n], or
// tchunks[chunk][off:off+n] for a transient record. The record's LSN is its
// index position plus one.
type entry struct {
	chunk, off, n uint32
	kind          uint8
	applied       bool
	transient     bool
}

// Mem is the in-memory log. It survives simulated crashes (the server's
// volatile structures are cleared; the Mem log is handed back to the
// restarted server), which models stable storage.
type Mem struct {
	chunks [][]byte
	// tail is the chunk small payloads are appended to; an oversized payload's
	// own chunk never becomes it.
	tail int
	// tchunks hold the transient records, appended to the last one; pending
	// counts each one's records not yet marked applied. A chunk other than
	// the last is released (set to nil, never reused) once its count is 0;
	// the last is released when the next record rolls over from it empty.
	tchunks [][]byte
	pending []uint32
	index   []entry
	// held is the payload bytes the arena holds: every record's, until the
	// chunk it sits in is released.
	held uint64
}

// NewMem creates an empty in-memory log.
func NewMem() *Mem { return &Mem{} }

// Append durably adds a record and returns its LSN. The payload is copied,
// so the caller may reuse its buffer as soon as Append returns. An in-memory
// append never fails; the error stays in the signature for the callers that
// check the durability contract.
func (m *Mem) Append(kind uint8, payload []byte) (LSN, error) {
	n := len(payload)
	e := entry{n: uint32(n), kind: kind}
	if n > chunkSize {
		e.chunk = uint32(len(m.chunks))
		m.chunks = append(m.chunks, slices.Clone(payload))
	} else {
		if len(m.chunks) == 0 || len(m.chunks[m.tail])+n > chunkSize {
			m.tail = len(m.chunks)
			m.chunks = append(m.chunks, make([]byte, 0, chunkSize))
		}
		c := m.chunks[m.tail]
		e.chunk, e.off = uint32(m.tail), uint32(len(c))
		m.chunks[m.tail] = append(c, payload...)
	}
	return m.add(e), nil
}

// AppendTransient is Append for a record whose payload is needed only until
// the record is marked applied. Its payload is given up then: Replay yields
// the record with an empty one, and the bytes go once every transient record
// sharing the chunk is marked too.
func (m *Mem) AppendTransient(kind uint8, payload []byte) (LSN, error) {
	n := len(payload)
	t := len(m.tchunks) - 1
	if t < 0 || len(m.tchunks[t])+n > cap(m.tchunks[t]) {
		if t >= 0 && m.pending[t] == 0 {
			m.release(t)
		}
		t++
		m.tchunks = append(m.tchunks, make([]byte, 0, max(n, transientChunkSize)))
		m.pending = append(m.pending, 0)
	}
	c := m.tchunks[t]
	m.tchunks[t] = append(c, payload...)
	m.pending[t]++
	return m.add(entry{chunk: uint32(t), off: uint32(len(c)), n: uint32(n), kind: kind, transient: true}), nil
}

// add indexes e, whose payload the arena now holds, and returns its LSN.
func (m *Mem) add(e entry) LSN {
	m.held += uint64(e.n)
	m.index = append(m.index, e)
	return LSN(len(m.index))
}

// MarkApplied durably marks the record at lsn as applied. A transient
// record's payload is given up.
func (m *Mem) MarkApplied(lsn LSN) error {
	if lsn == 0 || int(lsn) > len(m.index) {
		return fmt.Errorf("wal: MarkApplied(%d) out of range (%d records)", lsn, len(m.index))
	}
	e := &m.index[lsn-1]
	if e.transient && !e.applied {
		t := int(e.chunk)
		if m.pending[t]--; m.pending[t] == 0 && t != len(m.tchunks)-1 {
			m.release(t)
		}
	}
	e.applied = true
	return nil
}

// release drops transient chunk t. A view of it handed out earlier stays
// readable: the garbage collector keeps the array while the view lives.
func (m *Mem) release(t int) {
	m.held -= uint64(len(m.tchunks[t]))
	m.tchunks[t] = nil
}

// Replay streams every record in order. It walks a snapshot of the index and
// of the chunk table taken on entry: records the callback appends or marks
// are not seen, and a record the callback releases is yielded as it stood.
// A transient record marked applied before the walk is yielded with an empty
// payload. Payloads are views of the arena, readable for as long as they are
// held, a released chunk's too; the callback must not write through them.
func (m *Mem) Replay(fn func(r Record) error) error {
	tchunks := slices.Clone(m.tchunks)
	for i, e := range slices.Clone(m.index) {
		r := Record{LSN: LSN(i + 1), Kind: e.kind, Applied: e.applied}
		switch end := e.off + e.n; {
		case !e.transient:
			r.Payload = m.chunks[e.chunk][e.off:end:end]
		case !e.applied:
			r.Payload = tchunks[e.chunk][e.off:end:end]
		}
		if err := fn(r); err != nil {
			return err
		}
	}
	return nil
}

// Held returns the payload bytes the arena holds, index entries and unused
// chunk capacity aside.
func (m *Mem) Held() uint64 { return m.held }

// Len returns the number of records.
func (m *Mem) Len() int {
	return len(m.index)
}
