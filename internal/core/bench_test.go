package core

import (
	"fmt"
	"testing"
)

// Layer microbenchmarks of the change-log (`make bench-layers`).

func pendingLog(n int) (*ChangeLog, []LogEntry) {
	var l ChangeLog
	for i := 1; i <= n; i++ {
		l.Append(LogEntry{ID: uint64(i), Time: int64(i), Op: OpCreate,
			Name: fmt.Sprintf("file-%06d", i), Type: TypeRegular, Perm: DefaultFilePerm})
	}
	return &l, l.Snapshot()
}

// BenchmarkChangeLogSnapshot is what every async commit pays to put the
// pending log into its CommitNotice: it must not grow with the backlog.
func BenchmarkChangeLogSnapshot(b *testing.B) {
	for _, pending := range []int{16, 1024, 4096} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			l, _ := pendingLog(pending)
			b.ReportAllocs()
			n := 0
			for i := 0; i < b.N; i++ {
				n += len(l.Snapshot())
			}
			if n != b.N*pending {
				b.Fatal("short snapshot")
			}
		})
	}
}

// BenchmarkCompact folds a 64-entry push batch (PushEntries' order of
// magnitude) of distinct names; ns/op is per batch.
func BenchmarkCompact(b *testing.B) {
	_, entries := pendingLog(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if c := Compact(entries); c.Count != len(entries) {
			b.Fatal("short compaction")
		}
	}
}

// BenchmarkKeyAppend encodes an inode key the way every handler does: into
// stack scratch, for a lookup that copies what it keeps.
func BenchmarkKeyAppend(b *testing.B) {
	k := Key{PID: DirID{1, 2, 3, 4}, Name: "file-000123"}
	b.ReportAllocs()
	n := 0
	for i := 0; i < b.N; i++ {
		var kb KeyBuf
		n += len(k.AppendTo(kb[:0]))
	}
	if n != b.N*k.EncodedLen() {
		b.Fatal("short key")
	}
}

// BenchmarkInodeCodec is one store round trip of an inode without the store:
// append-encode into stack scratch, decode into a caller's value.
func BenchmarkInodeCodec(b *testing.B) {
	in := &Inode{Attr: Attr{Type: TypeRegular, Perm: DefaultFilePerm, Nlink: 1, Mtime: 99}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var vb InodeBuf
		var out Inode
		if err := DecodeInodeInto(&out, AppendInode(vb[:0], in)); err != nil || out.Attr != in.Attr {
			b.Fatal("round trip failed")
		}
	}
}
