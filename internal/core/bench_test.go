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
