// Package wal implements the per-server write-ahead log used for crash
// recovery (paper §5.2, §5.4.2). The log records the sequence of committed
// operations and marks whether each asynchronous update has been applied to
// the remote directory inode; recovery replays unmarked records.
//
// The one backend is an in-memory log: under Sim "persistence" means
// surviving a modeled crash. Append copies each payload once, into an arena
// of 4 KiB chunks (a payload larger than a chunk gets a chunk of its own),
// and indexes it with a 16-byte entry. Nothing in the arena is ever
// rewritten, so Replay hands out views of it rather than copies: read-only,
// and capped so that appending to one cannot reach the next record.
//
// Checkpoint cuts the log behind a durable image of what its prefix built
// (ARIES-style, Mohan et al., TODS 1992): the image replaces records 1..cut,
// whose index entries and chunks go, but for the unapplied records the
// writer says the image does not cover, which are carried below the cut with
// their LSNs. LSNs stay monotonic and Len still counts every record ever
// appended.
package wal

import (
	"cmp"
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

// chunkSize is the arena's allocation unit, small so that a cut frees the
// bytes below it soon after (with 64 KiB chunks a server whose log spans a
// few chunks freed next to nothing, and its images cost more than the cut
// gave back).
const chunkSize = 4 << 10

// entry indexes one record: its payload is chunk chunk's [off:off+n].
// Chunks are numbered from the log's first, cut ones included. The record's
// LSN is the log's base plus its index position plus one.
type entry struct {
	chunk, off, n uint32
	kind          uint8
	applied       bool
}

// carried is an unapplied record below the cut that the image does not
// cover. Its payload, nil once it is marked applied, is a view of chunk
// chunk (view) while a record past the cut keeps that chunk, or a copy of
// its own, which later cuts carry as it is.
type carried struct {
	lsn     LSN
	kind    uint8
	applied bool
	view    bool
	chunk   uint32
	payload []byte
}

// Mem is the in-memory log. It survives simulated crashes (the server's
// volatile structures are cleared; the Mem log is handed back to the
// restarted server), which models stable storage.
type Mem struct {
	// chunks[i] is chunk chunk0+i; a cut drops the leading chunks no entry
	// points into.
	chunks [][]byte
	chunk0 uint32
	// tail is the chunk number small payloads are appended to, none once a
	// cut dropped it; an oversized payload's own chunk never becomes it.
	tail uint32
	// index[i] is record base+i+1. Records through base were cut behind
	// image, but for carried, ascending by LSN.
	index   []entry
	base    LSN
	carried []carried
	image   []byte
	// held is the payload bytes the arena holds: every record's, until the
	// chunk it sits in is cut, and the carried records' own copies.
	held uint64
}

// NewMem creates an empty in-memory log.
func NewMem() *Mem { return &Mem{} }

// chunk returns chunk c.
func (m *Mem) chunk(c uint32) []byte { return m.chunks[c-m.chunk0] }

// Append durably adds a record and returns its LSN. The payload is copied,
// so the caller may reuse its buffer as soon as Append returns. An in-memory
// append never fails; the error stays in the signature for the callers that
// check the durability contract.
func (m *Mem) Append(kind uint8, payload []byte) (LSN, error) {
	n := len(payload)
	e := entry{n: uint32(n), kind: kind}
	next := m.chunk0 + uint32(len(m.chunks))
	if n > chunkSize {
		e.chunk = next
		m.chunks = append(m.chunks, slices.Clone(payload))
	} else {
		if m.tail < m.chunk0 || len(m.chunks) == 0 || len(m.chunk(m.tail))+n > chunkSize {
			m.tail = next
			m.chunks = append(m.chunks, make([]byte, 0, chunkSize))
		}
		c := m.chunk(m.tail)
		e.chunk, e.off = m.tail, uint32(len(c))
		m.chunks[m.tail-m.chunk0] = append(c, payload...)
	}
	m.held += uint64(n)
	m.index = append(m.index, e)
	return LSN(m.Len()), nil
}

// MarkApplied durably marks the record at lsn as applied. A carried record's
// payload is given up. Marking a record the cut dropped, which the image
// covers, does nothing.
func (m *Mem) MarkApplied(lsn LSN) error {
	if lsn == 0 || int(lsn) > m.Len() {
		return fmt.Errorf("wal: MarkApplied(%d) out of range (%d records)", lsn, m.Len())
	}
	if lsn > m.base {
		m.index[lsn-m.base-1].applied = true
		return nil
	}
	i, ok := slices.BinarySearchFunc(m.carried, lsn, func(c carried, l LSN) int { return cmp.Compare(c.lsn, l) })
	if !ok {
		return nil
	}
	if c := &m.carried[i]; !c.applied {
		m.unhold(c)
		c.applied, c.payload = true, nil
	}
	return nil
}

// payload returns e's payload as a view of its chunk.
func (m *Mem) payload(e entry) []byte {
	end := e.off + e.n
	return m.chunk(e.chunk)[e.off:end:end]
}

// Replay streams every record in order: the carried records, then the
// records past the cut. It walks a snapshot of the index and of the carried
// records taken on entry: records the callback appends or marks are not
// seen, and it must not cut the log. A carried record marked applied before
// the walk is yielded with an empty payload. Payloads are views of the
// arena, readable for as long as they are held, a cut chunk's too; the
// callback must not write through them.
func (m *Mem) Replay(fn func(r Record) error) error {
	for _, c := range slices.Clone(m.carried) {
		if err := fn(Record{LSN: c.lsn, Kind: c.kind, Payload: c.payload, Applied: c.applied}); err != nil {
			return err
		}
	}
	for i, e := range slices.Clone(m.index) {
		if err := fn(Record{LSN: m.base + LSN(i+1), Kind: e.kind, Applied: e.applied, Payload: m.payload(e)}); err != nil {
			return err
		}
	}
	return nil
}

// Walk calls fn for every record through LSN through, in order, the carried
// ones first, until fn returns false. Unlike Replay it takes no snapshot, so
// it allocates nothing: fn must not touch the log.
func (m *Mem) Walk(through LSN, fn func(r Record) bool) {
	for _, c := range m.carried {
		if c.lsn > through || !fn(Record{LSN: c.lsn, Kind: c.kind, Payload: c.payload, Applied: c.applied}) {
			return
		}
	}
	for i, e := range m.index {
		lsn := m.base + LSN(i+1)
		if lsn > through || !fn(Record{LSN: lsn, Kind: e.kind, Applied: e.applied, Payload: m.payload(e)}) {
			return
		}
	}
}

// Checkpoint makes image the log's durable image of records 1..cut and
// cuts them, returning the image it replaces, whose buffer the caller may
// reuse. keep is called for every unapplied record through cut, in LSN
// order, the ones carried from earlier cuts first, and must not touch the
// log: the records it keeps are carried below the cut as they are; every
// other record goes, and with it each chunk no record past the cut points
// into. A kept record stays a view of its chunk while a record past the cut
// keeps the chunk, and is copied by the cut that drops it. A cut below the
// current one, or past the last record, is an error and changes nothing.
func (m *Mem) Checkpoint(image []byte, cut LSN, keep func(Record) bool) ([]byte, error) {
	if cut < m.base || int(cut) > m.Len() {
		return nil, fmt.Errorf("wal: Checkpoint(%d) outside the log's records %d..%d", cut, m.base, m.Len())
	}
	k := int(cut - m.base)
	low := m.chunk0 + uint32(len(m.chunks)) // the first chunk a record past the cut points into
	for _, e := range m.index[k:] {
		low = min(low, e.chunk)
	}
	var kept []carried
	carry := func(c carried) {
		if c.applied || !keep(Record{LSN: c.lsn, Kind: c.kind, Payload: c.payload}) {
			m.unhold(&c)
			return
		}
		if c.view && c.chunk < low {
			c.view, c.payload = false, slices.Clone(c.payload)
			m.held += uint64(len(c.payload))
		}
		kept = append(kept, c)
	}
	for _, c := range m.carried {
		carry(c)
	}
	for i, e := range m.index[:k] {
		carry(carried{lsn: m.base + LSN(i+1), kind: e.kind, applied: e.applied, view: true, chunk: e.chunk, payload: m.payload(e)})
	}
	m.carried, m.base = kept, cut
	m.index = m.index[:copy(m.index, m.index[k:])]
	for ; m.chunk0 < low; m.chunk0++ {
		m.held -= uint64(len(m.chunks[0]))
		m.chunks[0] = nil
		m.chunks = m.chunks[1:]
	}
	old := m.image
	m.image = image
	return old, nil
}

// unhold takes a carried record's own copy out of held; a view's bytes are
// its chunk's.
func (m *Mem) unhold(c *carried) {
	if !c.view {
		m.held -= uint64(len(c.payload))
	}
}

// Image returns the durable image and the last record it covers: nil and 0
// before the first checkpoint.
func (m *Mem) Image() ([]byte, LSN) { return m.image, m.base }

// Held returns the payload bytes the arena holds, index entries, unused
// chunk capacity and the image aside.
func (m *Mem) Held() uint64 { return m.held }

// Len returns the number of records ever appended, the cut ones included.
func (m *Mem) Len() int { return int(m.base) + len(m.index) }
