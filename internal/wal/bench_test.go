package wal

import "testing"

// Layer microbenchmarks of the log (`make bench-layers`). The payload is the
// size of a create's commit record.

func BenchmarkAppend(b *testing.B) {
	m := NewMem()
	p := make([]byte, 256)
	b.ReportAllocs()
	b.SetBytes(int64(len(p)))
	for i := 0; i < b.N; i++ {
		m.Append(1, p)
	}
}

// BenchmarkReplay reports the cost per replayed record of a 10⁵-record log.
func BenchmarkReplay(b *testing.B) {
	const records = 100_000
	m := NewMem()
	p := make([]byte, 256)
	for i := 0; i < records; i++ {
		m.Append(1, p)
	}
	n := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Replay(func(r Record) error {
			n += len(r.Payload)
			return nil
		})
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/rec")
}

// BenchmarkAppendTransient is a resolved 2PC record's life in steady state:
// a prepare-sized transient append, then its mark, which releases each chunk
// as the next one opens.
func BenchmarkAppendTransient(b *testing.B) {
	m := NewMem()
	p := make([]byte, 167)
	b.ReportAllocs()
	b.SetBytes(int64(len(p)))
	for i := 0; i < b.N; i++ {
		lsn, _ := m.AppendTransient(1, p)
		m.MarkApplied(lsn)
	}
	b.ReportMetric(float64(m.Held()), "held-B")
}
