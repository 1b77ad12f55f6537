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
