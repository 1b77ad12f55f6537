package wal

import (
	"bytes"
	"fmt"
	"testing"
	"unsafe"
)

func testLog(t *testing.T, l *Mem) {
	t.Helper()
	lsn1, err := l.Append(1, []byte("op-1"))
	if err != nil || lsn1 != 1 {
		t.Fatalf("Append: lsn=%d err=%v", lsn1, err)
	}
	lsn2, _ := l.Append(2, []byte("op-2"))
	lsn3, _ := l.Append(1, []byte("op-3"))
	if lsn2 != 2 || lsn3 != 3 {
		t.Fatalf("lsns %d %d", lsn2, lsn3)
	}
	if err := l.MarkApplied(lsn2); err != nil {
		t.Fatal(err)
	}
	var got []Record
	if err := l.Replay(func(r Record) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("replayed %d records", len(got))
	}
	if string(got[0].Payload) != "op-1" || got[0].Kind != 1 || got[0].Applied {
		t.Fatalf("record 1: %+v", got[0])
	}
	if !got[1].Applied {
		t.Fatal("record 2 not marked applied")
	}
	if got[2].Applied {
		t.Fatal("record 3 wrongly applied")
	}
	if l.Len() != 3 {
		t.Fatalf("Len=%d", l.Len())
	}
}

func TestMemLog(t *testing.T) { testLog(t, NewMem()) }

func TestMarkAppliedOutOfRange(t *testing.T) {
	m := NewMem()
	if err := m.MarkApplied(5); err == nil {
		t.Fatal("expected error for out-of-range LSN")
	}
}

// payloads replays m's payloads, copied.
func payloads(t *testing.T, m *Mem) [][]byte {
	t.Helper()
	var out [][]byte
	if err := m.Replay(func(r Record) error {
		out = append(out, bytes.Clone(r.Payload))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestIndexEntrySize: a record costs the log 16 bytes beside its payload.
func TestIndexEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(entry{}); n != 16 {
		t.Fatalf("index entry is %d bytes, want 16", n)
	}
}

// TestAppendCopies: Append keeps its own copy, so a caller that reuses its
// buffer (every server encoder does) leaves the logged record as it was.
func TestAppendCopies(t *testing.T) {
	m := NewMem()
	buf := []byte("first")
	m.Append(1, buf)
	copy(buf, "XXXXX")
	buf = append(buf[:0], "second"...)
	m.Append(1, buf)
	copy(buf, "YYYYYY")
	got := payloads(t, m)
	if string(got[0]) != "first" || string(got[1]) != "second" {
		t.Fatalf("logged %q, want [first second]", got)
	}
}

// TestChunkRollOverAndOversized: records that do not fit the tail chunk open
// a new one, a payload larger than a chunk gets its own, and the small
// records after it keep filling the tail. Every payload replays intact, in
// LSN order.
func TestChunkRollOverAndOversized(t *testing.T) {
	m := NewMem()
	var want [][]byte
	add := func(p []byte) {
		t.Helper()
		if lsn, _ := m.Append(uint8(len(want)), p); int(lsn) != len(want)+1 {
			t.Fatalf("lsn %d, want %d", lsn, len(want)+1)
		}
		want = append(want, p)
	}
	for i := 0; i < 3*chunkSize/1000; i++ {
		add(bytes.Repeat([]byte{byte(i)}, 1000))
	}
	big := bytes.Repeat([]byte("big"), chunkSize)
	add(big)
	add([]byte("after"))
	add(nil)
	add(bytes.Repeat([]byte{7}, chunkSize)) // exactly one chunk
	add([]byte("last"))
	if len(m.chunks) < 5 {
		t.Fatalf("%d chunks: no roll-over", len(m.chunks))
	}
	if c := m.chunks[m.index[len(m.index)-5].chunk]; len(c) != len(big) || cap(c) != len(big) {
		t.Fatalf("oversized payload shares a chunk: len %d cap %d", len(c), cap(c))
	}
	for i, p := range payloads(t, m) {
		if !bytes.Equal(p, want[i]) {
			t.Fatalf("record %d: %d bytes, want %d", i+1, len(p), len(want[i]))
		}
	}
}

// TestReplayViewsAreCapped: a callback that appends to a replayed payload
// gets a fresh array, never the next record's bytes.
func TestReplayViewsAreCapped(t *testing.T) {
	m := NewMem()
	m.Append(1, []byte("aaaa"))
	m.Append(2, []byte("bbbb"))
	m.Replay(func(r Record) error {
		if cap(r.Payload) != len(r.Payload) {
			t.Errorf("record %d: cap %d > len %d", r.LSN, cap(r.Payload), len(r.Payload))
		}
		_ = append(r.Payload, "zzzz"...)
		return nil
	})
	if got := payloads(t, m); string(got[0]) != "aaaa" || string(got[1]) != "bbbb" {
		t.Fatalf("after appending to views: %q", got)
	}
}

// TestReplaySnapshot: Replay walks the index as it stood on entry. A record
// the callback appends is not replayed, and a mark the callback sets on a
// later record is not seen by this replay, only by the next one.
func TestReplaySnapshot(t *testing.T) {
	m := NewMem()
	for i := 0; i < 3; i++ {
		m.Append(1, []byte{byte(i)})
	}
	var seen []string
	m.Replay(func(r Record) error {
		seen = append(seen, fmt.Sprint(r.LSN, r.Applied))
		if r.LSN == 1 {
			m.Append(2, []byte("during"))
			if err := m.MarkApplied(3); err != nil {
				t.Fatal(err)
			}
		}
		return nil
	})
	if fmt.Sprint(seen) != "[1 false 2 false 3 false]" {
		t.Fatalf("first replay saw %v", seen)
	}
	seen = nil
	m.Replay(func(r Record) error {
		seen = append(seen, fmt.Sprint(r.LSN, r.Applied))
		return nil
	})
	if fmt.Sprint(seen) != "[1 false 2 false 3 true 4 false]" {
		t.Fatalf("second replay saw %v", seen)
	}
}

// TestAppendAllocations: in steady state an append allocates nothing but its
// share of a chunk and of the index's growth.
func TestAppendAllocations(t *testing.T) {
	m := NewMem()
	p := make([]byte, 200)
	for i := 0; i < 1000; i++ {
		m.Append(1, p)
	}
	if n := testing.AllocsPerRun(20000, func() { m.Append(1, p) }); n >= 0.01 {
		t.Fatalf("Append: %v allocs/op, want < 0.01", n)
	}
}

// transientHeld is the payload bytes m's live transient chunks hold.
func transientHeld(m *Mem) (n int) {
	for _, c := range m.tchunks {
		n += len(c)
	}
	return n
}

// TestTransientInterleaved: permanent and transient records interleave in
// one LSN order, each replays its own payload, and marking a permanent
// record gives nothing up.
func TestTransientInterleaved(t *testing.T) {
	m := NewMem()
	var want []string
	for i := 0; i < 300; i++ {
		p := fmt.Sprintf("record-%03d-%s", i, bytes.Repeat([]byte{'x'}, i%50))
		var lsn LSN
		if i%3 == 0 {
			lsn, _ = m.AppendTransient(2, []byte(p))
		} else {
			lsn, _ = m.Append(1, []byte(p))
		}
		if int(lsn) != i+1 {
			t.Fatalf("record %d: lsn %d", i, lsn)
		}
		want = append(want, p)
	}
	held := m.Held()
	for lsn := LSN(2); lsn <= 300; lsn += 3 {
		m.MarkApplied(lsn)
	}
	if m.Held() != held {
		t.Fatalf("marking permanent records moved Held %d -> %d", held, m.Held())
	}
	m.Replay(func(r Record) error {
		i := int(r.LSN) - 1
		wantKind := uint8(1)
		if i%3 == 0 {
			wantKind = 2
		}
		if r.Kind != wantKind || string(r.Payload) != want[i] || r.Applied != (i%3 == 1) {
			t.Errorf("record %d: kind %d applied %v %q, want kind %d %q", r.LSN, r.Kind, r.Applied, r.Payload, wantKind, want[i])
		}
		return nil
	})
}

// TestTransientChunkReleased: a transient chunk is released once the last
// of its records is marked, and Held falls by its bytes. The chunk
// appended to is kept, empty or not, until a record rolls over from it.
func TestTransientChunkReleased(t *testing.T) {
	m := NewMem()
	p := make([]byte, 1000)
	for i := 0; i < 6; i++ { // four to a chunk: chunks 0 and 1
		m.AppendTransient(1, p)
	}
	m.Append(2, p)
	if len(m.tchunks) != 2 || m.Held() != 7000 {
		t.Fatalf("%d transient chunks, %d bytes held; want 2, 7000", len(m.tchunks), m.Held())
	}
	for _, lsn := range []LSN{1, 2, 4} {
		m.MarkApplied(lsn)
	}
	if m.tchunks[0] == nil {
		t.Fatal("chunk 0 released with a record unmarked")
	}
	m.MarkApplied(3)
	m.MarkApplied(3) // a second mark counts nothing
	if m.tchunks[0] != nil || m.Held() != 3000 {
		t.Fatalf("chunk 0 held after its last mark: %d bytes held, want 3000", m.Held())
	}
	m.MarkApplied(5)
	m.MarkApplied(6)
	if m.tchunks[1] == nil || m.Held() != 3000 {
		t.Fatal("the tail was released while records are still appended to it")
	}
	m.AppendTransient(1, p)
	m.AppendTransient(1, p)
	m.MarkApplied(8)
	m.MarkApplied(9)
	m.AppendTransient(1, p) // rolls over: the empty tail goes
	if m.tchunks[1] != nil || len(m.tchunks) != 3 || m.Held() != 2000 {
		t.Fatalf("after rolling over an empty tail: %d chunks, %d bytes held; want 3, 2000", len(m.tchunks), m.Held())
	}
	big := bytes.Repeat([]byte{9}, 3*transientChunkSize)
	lsn, _ := m.AppendTransient(3, big) // its own chunk, which becomes the tail
	m.AppendTransient(1, p)
	if m.tchunks[3] == nil || cap(m.tchunks[3]) != len(big) {
		t.Fatal("the oversized record does not have a chunk of its own")
	}
	m.MarkApplied(lsn)
	if m.tchunks[3] != nil || transientHeld(m) != 2000 {
		t.Fatalf("oversized record's chunk kept after its mark: %d transient bytes held", transientHeld(m))
	}
}

// TestTransientViewSurvivesRelease: a payload view handed out before its
// chunk is released still reads the record, and later records never land in
// the released array.
func TestTransientViewSurvivesRelease(t *testing.T) {
	m := NewMem()
	m.AppendTransient(1, []byte("prepared ops"))
	m.AppendTransient(1, bytes.Repeat([]byte{1}, transientChunkSize)) // rolls over
	var view []byte
	m.Replay(func(r Record) error {
		if r.LSN == 1 {
			view = r.Payload
		}
		return nil
	})
	m.MarkApplied(1)
	if m.tchunks[0] != nil {
		t.Fatal("chunk 0 not released")
	}
	for i := 0; i < 100; i++ {
		m.AppendTransient(1, []byte("overwrite?!!"))
	}
	if string(view) != "prepared ops" {
		t.Fatalf("view after release reads %q", view)
	}
}

// TestReplayReleasedRecords: a transient record marked applied still
// replays, in order, with its kind, LSN and mark, and an empty payload.
func TestReplayReleasedRecords(t *testing.T) {
	m := NewMem()
	m.AppendTransient(7, []byte("commit decision"))
	m.Append(1, []byte("inode"))
	m.AppendTransient(8, []byte("prepare"))
	m.MarkApplied(1)
	var seen []string
	m.Replay(func(r Record) error {
		seen = append(seen, fmt.Sprintf("%d/%d/%v/%q", r.LSN, r.Kind, r.Applied, r.Payload))
		return nil
	})
	if got := fmt.Sprint(seen); got != `[1/7/true/"" 2/1/false/"inode" 3/8/false/"prepare"]` {
		t.Fatalf("replayed %s", got)
	}
}

// TestReplayReleasesMidWalk: records the callback marks, releasing their
// chunk, are yielded as they stood when the walk began; the next walk
// yields them released.
func TestReplayReleasesMidWalk(t *testing.T) {
	m := NewMem()
	p := make([]byte, 1000)
	for i := 0; i < 8; i++ { // chunks 0 and 1, four records each
		p[0] = byte(i)
		m.AppendTransient(1, p)
	}
	var seen []string
	m.Replay(func(r Record) error {
		seen = append(seen, fmt.Sprint(r.LSN, r.Applied, len(r.Payload), r.Payload[0]))
		if r.LSN == 1 {
			for lsn := LSN(1); lsn <= 4; lsn++ {
				m.MarkApplied(lsn)
			}
			if m.tchunks[0] != nil {
				t.Fatal("chunk 0 not released by the marks")
			}
		}
		return nil
	})
	if got := fmt.Sprint(seen); got != "[1 false 1000 0 2 false 1000 1 3 false 1000 2 4 false 1000 3 5 false 1000 4 6 false 1000 5 7 false 1000 6 8 false 1000 7]" {
		t.Fatalf("walk saw %s", got)
	}
	n := 0
	m.Replay(func(r Record) error {
		if r.Applied != (r.LSN <= 4) || (len(r.Payload) == 0) != r.Applied {
			t.Errorf("record %d: applied %v, %d payload bytes", r.LSN, r.Applied, len(r.Payload))
		}
		n++
		return nil
	})
	if n != 8 {
		t.Fatalf("second walk yielded %d records", n)
	}
}

// TestAppendTransientAllocations: in steady state a transient append and its
// mark allocate nothing but their share of a chunk and of the tables'
// growth.
func TestAppendTransientAllocations(t *testing.T) {
	m := NewMem()
	p := make([]byte, 167)
	next := LSN(1)
	step := func() {
		m.AppendTransient(1, p)
		m.MarkApplied(next)
		next++
	}
	for i := 0; i < 1000; i++ {
		step()
	}
	if n := testing.AllocsPerRun(20000, step); n != 0 {
		t.Fatalf("AppendTransient + MarkApplied: %v allocs/op, want 0 amortized", n)
	}
	if held := transientHeld(m); held > transientChunkSize {
		t.Fatalf("%d transient bytes held after 21 000 resolved records", held)
	}
}
