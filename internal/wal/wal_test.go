package wal

import "testing"

func testLog(t *testing.T, l Log) {
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
