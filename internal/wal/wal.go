// Package wal implements the per-server write-ahead log used for crash
// recovery (paper §5.2, §5.4.2). The log records the sequence of committed
// operations and marks whether each asynchronous update has been applied to
// the remote directory inode; recovery replays unmarked records.
//
// The one backend is an in-memory log: under Sim "persistence" means
// surviving a modeled crash. Append copies each payload once, into an
// append-only arena of 64 KiB chunks (a payload larger than a chunk gets a
// chunk of its own), and indexes it with a 16-byte entry. Nothing in the
// arena is ever rewritten, so Replay hands out views of it rather than
// copies: read-only, and capped so that appending to one cannot reach the
// next record.
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

// chunkSize is the arena's allocation unit.
const chunkSize = 64 << 10

// entry indexes one record: its payload is chunks[chunk][off:off+n]. The
// record's LSN is its index position plus one.
type entry struct {
	chunk, off, n uint32
	kind          uint8
	applied       bool
}

// Mem is the in-memory log. It survives simulated crashes (the server's
// volatile structures are cleared; the Mem log is handed back to the
// restarted server), which models stable storage.
type Mem struct {
	chunks [][]byte
	// tail is the chunk small payloads are appended to; an oversized payload's
	// own chunk never becomes it.
	tail  int
	index []entry
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
	m.index = append(m.index, e)
	return LSN(len(m.index)), nil
}

// MarkApplied durably marks the record at lsn as applied.
func (m *Mem) MarkApplied(lsn LSN) error {
	if lsn == 0 || int(lsn) > len(m.index) {
		return fmt.Errorf("wal: MarkApplied(%d) out of range (%d records)", lsn, len(m.index))
	}
	m.index[lsn-1].applied = true
	return nil
}

// Replay streams every record in order. It walks a snapshot of the index
// taken on entry: records the callback appends or marks are not seen.
// Payloads are views of the arena, valid for the log's lifetime; the
// callback must not write through them.
func (m *Mem) Replay(fn func(r Record) error) error {
	for i, e := range slices.Clone(m.index) {
		end := e.off + e.n
		r := Record{LSN: LSN(i + 1), Kind: e.kind, Payload: m.chunks[e.chunk][e.off:end:end], Applied: e.applied}
		if err := fn(r); err != nil {
			return err
		}
	}
	return nil
}

// Len returns the number of records.
func (m *Mem) Len() int {
	return len(m.index)
}
