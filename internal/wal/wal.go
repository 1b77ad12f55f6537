// Package wal implements the per-server write-ahead log used for crash
// recovery (paper §5.2, §5.4.2). The log records the sequence of committed
// operations and marks whether each asynchronous update has been applied to
// the remote directory inode; recovery replays unmarked records.
//
// The one backend is an in-memory log: under Sim "persistence" means
// surviving a modeled crash.
package wal

import (
	"fmt"
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

// Log is the interface the server logs through.
type Log interface {
	// Append durably adds a record and returns its LSN.
	Append(kind uint8, payload []byte) (LSN, error)
	// MarkApplied durably marks the record at lsn as applied.
	MarkApplied(lsn LSN) error
	// Replay streams every record in order.
	Replay(fn func(r Record) error) error
	// Len returns the number of records.
	Len() int
	// Close releases resources.
	Close() error
}

// --- In-memory backend ---------------------------------------------------

// Mem is the in-memory log. It survives simulated crashes (the server's
// volatile structures are cleared; the Mem log is handed back to the
// restarted server), which models stable storage.
type Mem struct {
	records []Record
}

// NewMem creates an empty in-memory log.
func NewMem() *Mem { return &Mem{} }

// Append implements Log.
func (m *Mem) Append(kind uint8, payload []byte) (LSN, error) {
	lsn := LSN(len(m.records) + 1)
	m.records = append(m.records, Record{
		LSN:     lsn,
		Kind:    kind,
		Payload: append([]byte(nil), payload...),
	})
	return lsn, nil
}

// MarkApplied implements Log.
func (m *Mem) MarkApplied(lsn LSN) error {
	if lsn == 0 || int(lsn) > len(m.records) {
		return fmt.Errorf("wal: MarkApplied(%d) out of range (%d records)", lsn, len(m.records))
	}
	m.records[lsn-1].Applied = true
	return nil
}

// Replay implements Log.
func (m *Mem) Replay(fn func(r Record) error) error {
	recs := make([]Record, len(m.records))
	copy(recs, m.records)
	for _, r := range recs {
		if err := fn(r); err != nil {
			return err
		}
	}
	return nil
}

// Len implements Log.
func (m *Mem) Len() int {
	return len(m.records)
}

// Close implements Log.
func (m *Mem) Close() error { return nil }

var _ Log = (*Mem)(nil)
