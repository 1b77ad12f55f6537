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

// TestViewSurvivesCut: a payload view handed out before a cut drops its
// chunk still reads the record, and later records never land in the dropped
// array.
func TestViewSurvivesCut(t *testing.T) {
	m := NewMem()
	m.Append(1, []byte("prepared ops"))
	var view []byte
	m.Replay(func(r Record) error {
		view = r.Payload
		return nil
	})
	m.Checkpoint(nil, 1, func(Record) bool { return false })
	if len(m.chunks) != 0 {
		t.Fatal("chunk 0 not dropped")
	}
	for i := 0; i < 100; i++ {
		m.Append(1, []byte("overwrite?!!"))
	}
	if string(view) != "prepared ops" {
		t.Fatalf("view after the cut reads %q", view)
	}
}

// TestReplayReleasedRecords: a carried record marked applied still
// replays, in order, with its kind, LSN and mark, and an empty payload.
func TestReplayReleasedRecords(t *testing.T) {
	m := NewMem()
	m.Append(7, []byte("commit decision"))
	m.Append(1, []byte("inode"))
	m.Append(8, []byte("prepare"))
	m.Checkpoint(nil, 3, func(r Record) bool { return r.Kind != 1 })
	m.MarkApplied(1)
	var seen []string
	m.Replay(func(r Record) error {
		seen = append(seen, fmt.Sprintf("%d/%d/%v/%q", r.LSN, r.Kind, r.Applied, r.Payload))
		return nil
	})
	if got := fmt.Sprint(seen); got != `[1/7/true/"" 3/8/false/"prepare"]` {
		t.Fatalf("replayed %s", got)
	}
}

// TestReplayReleasesMidWalk: carried records the callback marks, giving
// their payloads up, are yielded as they stood when the walk began; the
// next walk yields them released.
func TestReplayReleasesMidWalk(t *testing.T) {
	m := NewMem()
	p := make([]byte, 1000)
	for i := 0; i < 8; i++ {
		p[0] = byte(i)
		m.Append(1, p)
	}
	m.Checkpoint(nil, 8, func(Record) bool { return true })
	var seen []string
	m.Replay(func(r Record) error {
		seen = append(seen, fmt.Sprint(r.LSN, r.Applied, len(r.Payload), r.Payload[0]))
		if r.LSN == 1 {
			for lsn := LSN(1); lsn <= 4; lsn++ {
				m.MarkApplied(lsn)
			}
			if m.Held() != 4000 {
				t.Fatalf("Held %d after the marks, want 4000", m.Held())
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

// checkpointLog is 300 records, every third of kind 2, the rest of kind 1,
// record i's payload "r<i>" padded to 200 bytes (20 to a chunk), and every
// record whose number is 1 mod 3 marked applied.
func checkpointLog() *Mem {
	m := NewMem()
	for i := 1; i <= 300; i++ {
		p := append([]byte(fmt.Sprintf("r%d", i)), bytes.Repeat([]byte{'.'}, 200)...)[:200]
		kind := uint8(1)
		if i%3 == 0 {
			kind = 2
		}
		m.Append(kind, p)
		if i%3 == 1 {
			m.MarkApplied(LSN(i))
		}
	}
	return m
}

// keepKind2 keeps the records of kind 2.
func keepKind2(r Record) bool { return r.Kind == 2 }

// TestCheckpointCuts: a cut keeps the LSNs and Len, carries exactly the
// unapplied records keep keeps, as they are, ahead of the records past the
// cut, and Held falls to their copies and the records past the cut. Marking
// a carried record gives its copy up; marking a cut one does nothing.
func TestCheckpointCuts(t *testing.T) {
	m := checkpointLog()
	var offered []LSN
	old, err := m.Checkpoint([]byte("image"), 200, func(r Record) bool {
		if r.Applied {
			t.Fatalf("keep offered applied record %d", r.LSN)
		}
		offered = append(offered, r.LSN)
		return keepKind2(r)
	})
	if err != nil || old != nil {
		t.Fatalf("Checkpoint: %q, %v", old, err)
	}
	if len(offered) != 133 || offered[0] != 2 || offered[132] != 200 {
		t.Fatalf("keep offered %d records, want the 133 unapplied ones through 200", len(offered))
	}
	if img, cut := m.Image(); string(img) != "image" || cut != 200 || m.Len() != 300 {
		t.Fatalf("image %q through %d, Len %d", img, cut, m.Len())
	}
	var seen []string
	m.Replay(func(r Record) error {
		seen = append(seen, fmt.Sprintf("%d/%d/%v/%.4s", r.LSN, r.Kind, r.Applied, r.Payload))
		return nil
	})
	if len(seen) != 66+100 || seen[0] != "3/2/false/r3.." || seen[65] != "198/2/false/r198" || seen[66] != "201/2/false/r201" {
		t.Fatalf("replay after the cut: %d records, %v ... %v", len(seen), seen[:3], seen[64:68])
	}
	// Records 201..300 fill chunks 10..14 on their own: the carried records'
	// chunks are cut, so each is a copy.
	if copies, tail := 66*200, 100*200; m.Held() != uint64(copies+tail) {
		t.Fatalf("Held %d, want %d copied + %d past the cut", m.Held(), copies, tail)
	}
	if err := m.MarkApplied(4); err != nil { // cut: the image covers it
		t.Fatal(err)
	}
	for lsn := LSN(3); lsn <= 198; lsn += 3 {
		if err := m.MarkApplied(lsn); err != nil {
			t.Fatal(err)
		}
	}
	if m.Held() != 100*200 {
		t.Fatalf("marking the carried records left Held %d", m.Held())
	}
	m.Replay(func(r Record) error {
		if r.LSN == 3 && (!r.Applied || r.Payload != nil) {
			t.Fatalf("carried record 3 after its mark: %+v", r)
		}
		return nil
	})
	if _, err := m.Checkpoint(nil, 199, keepKind2); err == nil {
		t.Fatal("a cut below the last one succeeded")
	}
	if _, err := m.Checkpoint(nil, 301, keepKind2); err == nil {
		t.Fatal("a cut past the last record succeeded")
	}
}

// TestCheckpointAgain: a second cut offers the unapplied carried records
// first, then the unapplied indexed ones; a carried record marked since is
// dropped unoffered. A cut through every record with nothing kept leaves no
// chunk and nothing held, and the next append and its mark work at their
// LSNs.
func TestCheckpointAgain(t *testing.T) {
	m := checkpointLog()
	m.Checkpoint([]byte("one"), 150, keepKind2)
	m.MarkApplied(3)
	var offered []LSN
	old, _ := m.Checkpoint([]byte("two"), 300, func(r Record) bool {
		offered = append(offered, r.LSN)
		return false
	})
	if string(old) != "one" || len(offered) != 49+100 || offered[0] != 6 || offered[48] != 150 || offered[49] != 152 {
		t.Fatalf("second cut returned %q, offered %d records %v", old, len(offered), offered)
	}
	if m.Held() != 0 || len(m.chunks) != 0 || len(m.index) != 0 || len(m.carried) != 0 {
		t.Fatalf("after cutting everything: Held %d, %d chunks, %d indexed, %d carried", m.Held(), len(m.chunks), len(m.index), len(m.carried))
	}
	m.MarkApplied(300)
	if lsn, _ := m.Append(2, []byte("next")); lsn != 301 {
		t.Fatalf("next append at %d", lsn)
	}
	m.Append(1, []byte("more"))
	m.MarkApplied(301)
	var got []string
	m.Replay(func(r Record) error {
		got = append(got, fmt.Sprintf("%d/%v/%s", r.LSN, r.Applied, r.Payload))
		return nil
	})
	if fmt.Sprint(got) != "[301/true/next 302/false/more]" || m.Held() != 8 {
		t.Fatalf("after the cut: %v, Held %d", got, m.Held())
	}
}

// TestCheckpointSteadyState: a log cut behind each 1 000 appends holds no
// more than the records since the last cut, and its tables stay short.
func TestCheckpointSteadyState(t *testing.T) {
	m := NewMem()
	p := make([]byte, 300)
	for round := 0; round < 50; round++ {
		for i := 0; i < 1000; i++ {
			lsn, _ := m.Append(1, p)
			if i%10 == 0 {
				m.MarkApplied(lsn)
			}
		}
		m.Checkpoint(nil, LSN(m.Len()), func(Record) bool { return false })
	}
	if m.Held() != 0 || len(m.chunks) != 0 || cap(m.index) > 2048 {
		t.Fatalf("Held %d, %d chunks, index capacity %d", m.Held(), len(m.chunks), cap(m.index))
	}
}

// TestCheckpointCarriesViews: a record carried as it is stays a view of its
// chunk, adding nothing to Held, while a record past the cut keeps the chunk;
// the cut that drops the chunk copies it, and it still reads its payload.
// Later cuts carry the copy as it is: the same array, the same Held.
func TestCheckpointCarriesViews(t *testing.T) {
	m := NewMem()
	keepFirst := func(r Record) bool { return r.LSN == 1 }
	m.Append(1, []byte("pending commit"))
	m.Append(1, []byte("applied"))
	m.Append(1, bytes.Repeat([]byte{'x'}, 100))
	m.Checkpoint(nil, 2, keepFirst)
	if m.Held() != 14+7+100 || m.carried[0].view != true {
		t.Fatalf("Held %d, carried %+v: want the record a view of its chunk", m.Held(), m.carried)
	}
	for i := 0; i < 700; i++ { // past the first chunk
		m.Append(1, bytes.Repeat([]byte{'y'}, 100))
	}
	m.Checkpoint(nil, LSN(m.Len()-1), keepFirst)
	if len(m.carried) != 1 || m.carried[0].view || m.Held() > 14+chunkSize {
		t.Fatalf("after its chunk went: carried %+v, Held %d", m.carried, m.Held())
	}
	m.Replay(func(r Record) error {
		if r.LSN == 1 && string(r.Payload) != "pending commit" {
			t.Fatalf("carried record reads %q", r.Payload)
		}
		return nil
	})
	m.Checkpoint(nil, LSN(m.Len()), keepFirst)
	copied := &m.carried[0].payload[0]
	for i := 0; i < 3; i++ {
		m.Append(1, []byte("later"))
		m.Checkpoint(nil, LSN(m.Len()), keepFirst)
		if len(m.carried) != 1 || &m.carried[0].payload[0] != copied || m.Held() != 14 {
			t.Fatalf("cut %d after the copy: carried %+v, Held %d; want the same copy, 14 bytes held", i, m.carried, m.Held())
		}
	}
}
