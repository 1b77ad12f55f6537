package wal

import (
	"bytes"
	"testing"
)

// modelRec is one record of walModel: chunk is the arena chunk it was
// appended to, copied is set once a cut carries it past its chunk, and gone
// once a cut drops it.
type modelRec struct {
	kind                  uint8
	payload               []byte
	applied, copied, gone bool
	chunk                 int
}

// walModel is the log as a plain slice of every record appended, through
// base cut, with the arena's chunk numbering: chunks counts the chunks ever
// opened, those below chunk0 cut; small payloads fill chunk tail, tailLen
// bytes so far.
type walModel struct {
	recs                                []modelRec
	base, chunks, chunk0, tail, tailLen int
}

// add appends a record, opening chunks as Append does: an oversized payload
// gets its own, a small one fills the tail until it would not fit.
func (md *walModel) add(kind uint8, p []byte) {
	r := modelRec{kind: kind, payload: p, chunk: md.chunks}
	if len(p) <= chunkSize {
		if md.tail < md.chunk0 || md.tailLen+len(p) > chunkSize {
			md.tail, md.tailLen = md.chunks, 0
		}
		r.chunk = md.tail
		md.tailLen += len(p)
	}
	md.chunks = max(md.chunks, r.chunk+1)
	md.recs = append(md.recs, r)
}

// cut checkpoints through cut, dropping every record through it that is
// applied or that keep does not keep, and copying the kept ones whose chunk
// the cut drops. It reports whether cut is in range.
func (md *walModel) cut(cut int, keep func(lsn int) bool) bool {
	if cut < md.base || cut > len(md.recs) {
		return false
	}
	low := md.chunks
	for _, r := range md.recs[cut:] {
		low = min(low, r.chunk)
	}
	for i := range md.recs[:cut] {
		r := &md.recs[i]
		r.gone = r.gone || r.applied || !keep(i+1)
		r.copied = !r.gone && (r.copied || r.chunk < low)
	}
	md.base, md.chunk0 = cut, max(md.chunk0, low)
	return true
}

// check compares m with the model: Replay yields the unapplied records
// carried below the cut, the ones marked since with no payload, then the
// records past it; Len counts every append; and Held is the payload bytes
// of the chunks a record past the cut points into plus the carried copies.
func (md *walModel) check(t *testing.T, m *Mem) {
	t.Helper()
	var want []Record
	held := 0
	for i, r := range md.recs {
		if r.chunk >= md.chunk0 {
			held += len(r.payload)
		}
		w := Record{LSN: LSN(i + 1), Kind: r.kind, Payload: r.payload, Applied: r.applied}
		switch {
		case i >= md.base:
		case r.gone:
			continue
		case r.applied:
			w.Payload = nil
		case r.copied:
			held += len(r.payload)
		}
		want = append(want, w)
	}
	var got []Record
	m.Replay(func(r Record) error { got = append(got, r); return nil })
	for i := 0; i < max(len(got), len(want)); i++ {
		if i >= len(got) || i >= len(want) || got[i].LSN != want[i].LSN || got[i].Kind != want[i].Kind ||
			got[i].Applied != want[i].Applied || !bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Fatalf("Replay yields %d records, model %d; they differ at %d", len(got), len(want), i)
		}
	}
	if m.Len() != len(md.recs) || m.Held() != uint64(held) {
		t.Fatalf("Len %d, Held %d; model %d, %d", m.Len(), m.Held(), len(md.recs), held)
	}
}

// FuzzCheckpoint runs Append, MarkApplied and Checkpoint, three bytes an
// operation (which, and two arguments), against walModel, checking after
// each one; an out-of-range mark or cut must error and change nothing. Only
// the first 100 operations run: each check replays the whole log, so a long
// input costs the square of its length and stalls the fuzzer for seconds.
func FuzzCheckpoint(f *testing.F) {
	f.Add([]byte{0, 1, 10, 0, 2, 200, 2, 1, 0, 3, 2, 0})
	f.Add([]byte{0, 1, 100, 0, 1, 120, 1, 2, 3, 0, 1, 50, 3, 2, 1, 0, 1, 100, 3, 3, 2, 2, 3, 0, 3, 9, 0})
	f.Add(bytes.Repeat([]byte{0, 1, 90, 0, 2, 90, 2, 1, 0, 3, 5, 1}, 12))
	f.Add([]byte{0, 1, 1, 0, 1, 200, 3, 2, 0, 2, 1, 0}) // a carried copy, then its mark
	f.Fuzz(func(t *testing.T, ops []byte) {
		m, md := NewMem(), &walModel{tail: -1}
		ops = ops[:min(len(ops), 3*100)]
		for i := 0; i+2 < len(ops); i += 3 {
			a, b, n := int(ops[i+1]), int(ops[i+2]), len(md.recs)
			switch ops[i] % 4 {
			case 0, 1: // an append of 0..10 200 bytes, oversized past 4 096
				p := bytes.Repeat([]byte{byte(n)}, 40*b)
				if lsn, err := m.Append(uint8(a), p); err != nil || int(lsn) != n+1 {
					t.Fatalf("Append: %d, %v; want %d", lsn, err, n+1)
				}
				md.add(uint8(a), p)
			case 2: // a mark of 0..Len+1
				lsn := a % (n + 2)
				if err := m.MarkApplied(LSN(lsn)); (err == nil) != (lsn >= 1 && lsn <= n) {
					t.Fatalf("MarkApplied(%d) of %d records: %v", lsn, n, err)
				} else if err == nil {
					md.recs[lsn-1].applied = true
				}
			case 3: // a cut of base-1..Len+1 (Len+1 for -1), keeping the records b picks
				cut := md.base - 1 + a%(n-md.base+3)
				if cut < 0 {
					cut = n + 1
				}
				keep := func(lsn int) bool { return (lsn+b)%3 != 0 }
				offered := 0
				_, err := m.Checkpoint(nil, LSN(cut), func(r Record) bool {
					if r.Applied || int(r.LSN) <= offered || int(r.LSN) > cut {
						t.Fatalf("keep offered record %d (applied %v) after %d, cut %d", r.LSN, r.Applied, offered, cut)
					}
					offered = int(r.LSN)
					return keep(offered)
				})
				if ok := md.cut(cut, keep); (err == nil) != ok {
					t.Fatalf("Checkpoint(%d) of records %d..%d: %v", cut, md.base, n, err)
				}
			}
			md.check(t, m)
		}
	})
}
