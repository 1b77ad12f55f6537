// Package wal implements the per-server write-ahead log used for crash
// recovery (paper §5.2, §5.4.2). The log records the sequence of committed
// operations and marks whether each asynchronous update has been applied to
// the remote directory inode; recovery replays unmarked records.
//
// The one backend is an in-memory log: under Sim "persistence" means
// surviving a modeled crash. Append copies each payload once, into an arena
// of 4 KiB chunks (a payload larger than a chunk gets a chunk of its own),
// and indexes it with a 16-byte entry. A record its writer resolves later
// goes in through AppendTransient instead, into 4 KiB chunks that hold only
// such records: marking one applied gives its payload up, and a chunk whose
// transient records are all marked is released whole. Nothing in the arena
// is ever rewritten, so Replay hands out views of it rather than copies:
// read-only, and capped so that appending to one cannot reach the next
// record.
//
// Checkpoint cuts the log behind a durable image of what its prefix built
// (ARIES-style, Mohan et al., TODS 1992): the image replaces records 1..cut,
// whose index entries and chunks go, but for the records the writer says the
// image does not cover, which are carried below the cut with their LSNs.
// LSNs stay monotonic and Len still counts every record ever appended.
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
// gave back); transientChunkSize is the transient records' one, small so
// that a chunk empties soon after the records in it are resolved.
const (
	chunkSize          = 4 << 10
	transientChunkSize = 4 << 10
)

// entry indexes one record: its payload is chunk chunk's [off:off+n], a
// transient chunk's for a transient record. Chunks are numbered from the
// log's first, cut ones included. The record's LSN is the log's base plus
// its index position plus one.
type entry struct {
	chunk, off, n uint32
	kind          uint8
	applied       bool
	transient     bool
}

// carried is a record below the cut that the image does not cover. Its
// payload, nil once it is marked applied, is a view of chunk chunk (view) —
// a permanent one while a record past the cut keeps it, a transient one,
// which counts the record pending, until it is marked — or a copy of its own.
type carried struct {
	lsn       LSN
	kind      uint8
	applied   bool
	view      bool
	transient bool
	chunk     uint32
	payload   []byte
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
	// tchunks hold the transient records, tchunks[i] chunk tchunk0+i,
	// appended to the last one; pending counts each one's records not yet
	// marked applied. A chunk other than the last is released (set to nil,
	// never reused) once its count is 0; the last is released when the next
	// record rolls over from it empty.
	tchunks [][]byte
	pending []uint32
	tchunk0 uint32
	// index[i] is record base+i+1. Records through base were cut behind
	// image, but for carried, ascending by LSN.
	index   []entry
	base    LSN
	carried []carried
	image   []byte
	// held is the payload bytes the arena holds: every record's, until the
	// chunk it sits in is released or cut, and the carried records'.
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
	return m.add(entry{chunk: m.tchunk0 + uint32(t), off: uint32(len(c)), n: uint32(n), kind: kind, transient: true}), nil
}

// add indexes e, whose payload the arena now holds, and returns its LSN.
func (m *Mem) add(e entry) LSN {
	m.held += uint64(e.n)
	m.index = append(m.index, e)
	return LSN(m.Len())
}

// MarkApplied durably marks the record at lsn as applied. A transient
// record's payload is given up, and so is a carried record's. Marking a
// record the cut dropped, which the image covers, does nothing.
func (m *Mem) MarkApplied(lsn LSN) error {
	if lsn == 0 || int(lsn) > m.Len() {
		return fmt.Errorf("wal: MarkApplied(%d) out of range (%d records)", lsn, m.Len())
	}
	if lsn <= m.base {
		i, ok := slices.BinarySearchFunc(m.carried, lsn, func(c carried, l LSN) int { return cmp.Compare(c.lsn, l) })
		if !ok {
			return nil
		}
		if c := &m.carried[i]; !c.applied {
			m.unhold(c)
			if c.view && c.transient {
				m.unpend(int(c.chunk - m.tchunk0))
			}
			c.applied, c.payload = true, nil
		}
		return nil
	}
	e := &m.index[lsn-m.base-1]
	if e.transient && !e.applied {
		m.unpend(int(e.chunk - m.tchunk0))
	}
	e.applied = true
	return nil
}

// unpend counts one record of transient chunk t resolved, releasing the
// chunk when it was the last and the chunk is not the one appended to.
func (m *Mem) unpend(t int) {
	if m.pending[t]--; m.pending[t] == 0 && t != len(m.tchunks)-1 {
		m.release(t)
	}
}

// release drops transient chunk t. A view of it handed out earlier stays
// readable: the garbage collector keeps the array while the view lives.
func (m *Mem) release(t int) {
	m.held -= uint64(len(m.tchunks[t]))
	m.tchunks[t] = nil
}

// payload returns e's payload as a view of snapshot tchunks, empty for a
// transient record marked applied.
func (m *Mem) payload(e entry, tchunks [][]byte) []byte {
	end := e.off + e.n
	switch {
	case !e.transient:
		return m.chunk(e.chunk)[e.off:end:end]
	case !e.applied:
		return tchunks[e.chunk-m.tchunk0][e.off:end:end]
	}
	return nil
}

// Replay streams every record in order: the carried records, then the
// records past the cut. It walks a snapshot of the index and of the chunk
// table taken on entry: records the callback appends or marks are not seen,
// and a record the callback releases is yielded as it stood. A transient or
// carried record marked applied before the walk is yielded with an empty
// payload. Payloads are views of the arena, readable for as long as they are
// held, a released chunk's too; the callback must not write through them.
func (m *Mem) Replay(fn func(r Record) error) error {
	for _, c := range slices.Clone(m.carried) {
		if err := fn(Record{LSN: c.lsn, Kind: c.kind, Payload: c.payload, Applied: c.applied}); err != nil {
			return err
		}
	}
	tchunks := slices.Clone(m.tchunks)
	for i, e := range slices.Clone(m.index) {
		r := Record{LSN: m.base + LSN(i+1), Kind: e.kind, Applied: e.applied, Payload: m.payload(e, tchunks)}
		if err := fn(r); err != nil {
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
		if lsn > through || !fn(Record{LSN: lsn, Kind: e.kind, Applied: e.applied, Payload: m.payload(e, m.tchunks)}) {
			return
		}
	}
}

// Checkpoint makes image the log's durable image of records 1..cut and
// cuts them, returning the image it replaces, whose buffer the caller may
// reuse. carry is called for every record through cut, in LSN order, the
// ones carried from earlier cuts first, and must not touch the log: the
// records it keeps (keep true) are carried below the cut, in the kind and
// payload it returns for them; every other record goes, and with it each
// chunk no record past the cut points into. A kept record whose payload
// carry returns as it was given stays a view of its chunk while a record
// past the cut keeps the chunk; any other is copied. A cut below the current
// one, or past the last record, is an error and changes nothing.
func (m *Mem) Checkpoint(image []byte, cut LSN, carry func(r Record) (kind uint8, payload []byte, keep bool)) ([]byte, error) {
	if cut < m.base || int(cut) > m.Len() {
		return nil, fmt.Errorf("wal: Checkpoint(%d) outside the log's records %d..%d", cut, m.base, m.Len())
	}
	k := int(cut - m.base)
	low := m.chunk0 + uint32(len(m.chunks)) // the first chunk a record past the cut points into
	for _, e := range m.index[k:] {
		if !e.transient {
			low = min(low, e.chunk)
		}
	}
	var kept []carried
	// keep carries r if carry keeps it. c says where r's payload sits: a view
	// of a chunk, or its own copy.
	keep := func(r Record, c carried) {
		kind, p, ok := carry(r)
		same := len(p) == len(r.Payload) && (len(p) == 0 || &p[0] == &r.Payload[0])
		pending := c.view && c.transient && !r.Applied
		switch {
		case !ok || r.Applied:
			if pending {
				m.unpend(int(c.chunk - m.tchunk0))
			}
			if ok {
				kept = append(kept, carried{lsn: r.LSN, kind: kind, applied: true})
			}
			return
		case c.view && same && (c.transient || c.chunk >= low):
			c.payload = p
		default:
			if pending {
				m.unpend(int(c.chunk - m.tchunk0))
			}
			c.view, c.payload = false, slices.Clone(p)
			m.held += uint64(len(p))
		}
		c.lsn, c.kind, c.applied = r.LSN, kind, false
		kept = append(kept, c)
	}
	for i := range m.carried {
		c := m.carried[i]
		m.unhold(&c)
		keep(Record{LSN: c.lsn, Kind: c.kind, Payload: c.payload, Applied: c.applied}, c)
	}
	for i, e := range m.index[:k] {
		keep(Record{LSN: m.base + LSN(i+1), Kind: e.kind, Applied: e.applied, Payload: m.payload(e, m.tchunks)},
			carried{view: true, transient: e.transient, chunk: e.chunk})
	}
	m.carried, m.base = kept, cut
	m.index = m.index[:copy(m.index, m.index[k:])]
	m.dropChunks(low)
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

// dropChunks drops the chunks below low, the first one a record past the
// cut points into (the tail too if none does), and the leading transient
// chunks already released. The transient chunk appended to stays, as it does
// past a mark: it goes when the next record rolls over from it empty.
func (m *Mem) dropChunks(low uint32) {
	for ; m.chunk0 < low; m.chunk0++ {
		m.held -= uint64(len(m.chunks[0]))
		m.chunks[0] = nil
		m.chunks = m.chunks[1:]
	}
	n := 0
	for n < len(m.tchunks) && m.tchunks[n] == nil {
		n++
	}
	m.tchunks = m.tchunks[:copy(m.tchunks, m.tchunks[n:])]
	m.pending = m.pending[:copy(m.pending, m.pending[n:])]
	m.tchunk0 += uint32(n)
}

// Image returns the durable image and the last record it covers: nil and 0
// before the first checkpoint.
func (m *Mem) Image() ([]byte, LSN) { return m.image, m.base }

// Held returns the payload bytes the arena holds, index entries, unused
// chunk capacity and the image aside.
func (m *Mem) Held() uint64 { return m.held }

// Len returns the number of records ever appended, the cut ones included.
func (m *Mem) Len() int { return int(m.base) + len(m.index) }
