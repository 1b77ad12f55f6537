package env

// Costs is the calibrated service-time model. Every cost is the CPU time one
// software section occupies a server core (via Proc.Compute), calibrated so
// that single-client operation latencies land in the same few-microsecond
// regime the paper's DPDK testbed reports (Fig. 2b, Fig. 13). The zero value
// disables service-time modeling.
//
// The reproduction targets shapes, not absolute microseconds; these constants
// set the scale, and the protocol (hop counts, lock scopes, KV-operation
// counts) sets the shape.
type Costs struct {
	// Parse is the cost of parsing a request or building a response.
	Parse Duration
	// KVGet / KVPut / KVDel are single key-value store operations
	// (RocksDB-class, in-memory memtable, async WAL — §7.1).
	KVGet Duration
	KVPut Duration
	KVDel Duration
	// KVScanEntry is the per-entry cost of an entry-list prefix scan.
	KVScanEntry Duration
	// WALAppend persists one record to the write-ahead log.
	WALAppend Duration
	// LockOp is the bookkeeping cost of one lock acquire or release.
	LockOp Duration
	// LogAppend appends one change-log entry (§5.3).
	LogAppend Duration
	// LogApplyEntry applies one compacted change-log operation at the owner.
	LogApplyEntry Duration
	// TxnOverhead is the extra commit bookkeeping of a local transaction;
	// distributed transactions additionally pay network RTTs.
	TxnOverhead Duration
	// SwitchPipe is the switch pipeline traversal for packets carrying a
	// dirty-set operation (sub-RTT, §4.1).
	SwitchPipe Duration
	// ClientOp is the client-side library cost per operation.
	ClientOp Duration
	// CacheLookup is one client metadata-cache probe per path component.
	CacheLookup Duration
	// DirTxn is the directory-transaction commit overhead the synchronous
	// baselines pay per double-inode operation (lock manager, transaction
	// log, index maintenance on the hot directory) — calibrated against the
	// paper's E-InfiniFS create latency (Fig. 2b: ~13 µs vs ~5 µs stat).
	DirTxn Duration
	// HeavyStack is the per-op software overhead of the modeled CephFS
	// (§7.2.1 observation 4: CephFS stays below 100 Kops/s because of its
	// heavy software stack).
	HeavyStack Duration
	// DataIO is the data-node service time per small-file read/write in the
	// end-to-end workloads (§7.6, files mostly under 256 KB).
	DataIO Duration
	// WALReplay is the per-record redo cost during crash recovery (§7.7:
	// ~5.8 s for ~2.5 M records on the paper's testbed).
	WALReplay Duration
}

// DefaultCosts returns the calibration used by all figure benchmarks.
func DefaultCosts() Costs {
	return Costs{
		Parse:         300 * Nanosecond,
		KVGet:         500 * Nanosecond,
		KVPut:         800 * Nanosecond,
		KVDel:         700 * Nanosecond,
		KVScanEntry:   60 * Nanosecond,
		WALAppend:     700 * Nanosecond,
		LockOp:        80 * Nanosecond,
		LogAppend:     200 * Nanosecond,
		LogApplyEntry: 350 * Nanosecond,
		TxnOverhead:   900 * Nanosecond,
		DirTxn:        4500 * Nanosecond,
		SwitchPipe:    400 * Nanosecond,
		ClientOp:      250 * Nanosecond,
		CacheLookup:   40 * Nanosecond,
		HeavyStack:    550 * Microsecond,
		DataIO:        120 * Microsecond,
		WALReplay:     2300 * Nanosecond,
	}
}
