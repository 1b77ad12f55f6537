package server

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/wire"
)

// WAL record kinds.
const (
	recCommit uint8 = 1 // double-inode commit: inode mutation + clog entry
	recInode  uint8 = 3 // direct inode put/delete (sync ops, txns, mkdir)

	// Dentry mutations performed outside the aggregation path (entry-list
	// migration during directory rename).
	recDentry      uint8 = 5 // put/delete one dentry
	recDelDentries uint8 = 6 // drop a directory's whole entry list
	// recMark persists an exactly-once watermark transferred with a
	// migrated directory (§5.5): without it, a source re-pushing entries
	// already applied at the previous owner would double-apply them here.
	recMark uint8 = 7

	// recTxnCommit persists a 2PC commit decision at the coordinator before
	// the first decision packet leaves: a restarted coordinator must answer
	// an in-doubt participant's status query with commit, never
	// presumed-abort, for a transaction whose decision some participant may
	// already have applied. recTxnPrepare persists a participant's prepared
	// op set before its vote leaves: a restarted participant must still be
	// able to apply a commit decided on that vote. Both are marked applied
	// once resolved (full ack / decision received).
	recTxnCommit  uint8 = 8
	recTxnPrepare uint8 = 9

	// recEvict marks a fingerprint group migrated away from this server:
	// replay must drop the group's records, or a restarted source would
	// resurrect inodes that now live (and have advanced) on another server.
	recEvict uint8 = 10

	// recAggBatch holds what one aggregation batch applies at a directory's
	// owner (applyBatch): every source's entries above its watermark.
	recAggBatch uint8 = 11

	// recCommitAt is a recCommit whose parent is named by a slot: the n-th
	// recCommit in a log defines slot n, its parent's DirRef.
	recCommitAt uint8 = 12
)

// Record layouts. Every length, count, entry id, source id and timestamp is
// a uvarint; directory ids take 32 bytes, fingerprints 8 and permissions 2,
// big-endian. An inode image is core.AppendInode's, the same bytes the store
// keeps and the wire carries (a fresh file's is 5 bytes and its timestamp):
// last in a commit or inode record, it runs to the end; in a prepared op it
// is length-prefixed. No field is written twice: a commit's key is (parent
// id, entry name) and its op the entry's, so its decoder derives both, and a
// delete carries no inode image. An aggregation batch names its directory
// once, then per source its id and its entries, each entry id a delta from
// the source's previous one: a create applied at the owner logs about 18
// bytes, not a record of its own. A commit names its parent once per log:
// the directory's first commit in a log is a recCommit, whose DirRef (32-byte
// id, 32-byte parent id and name, 8-byte fingerprint) defines the log's next
// slot, numbered from 1 in log order; every later commit into it is a
// recCommitAt, the same bytes with the DirRef replaced by the slot's uvarint,
// so a create logs about 29 bytes at the name's owner instead of 103. Slots
// are scoped to the log, and replay resolves them in log order (commitSlots);
// a checkpoint's image keeps the slots a record past its cut may name.
// Each kind's decoder sits next to its encoder and returns an error for a
// payload it cannot parse, a slot no earlier record defined included, so a
// corrupt log fail-stops the server (Recover) instead of panicking the
// process.

var (
	errShort    = errors.New("truncated field")
	errTrailing = errors.New("trailing bytes")
)

// recReader reads one record's fields in order. The first read past the end,
// or of a uvarint that overflows its field, sets err; every read after it
// returns zero values, so a decoder checks err once, in end.
type recReader struct {
	b   []byte
	err error
}

func (r *recReader) take(n uint64) []byte {
	if r.err == nil && n > uint64(len(r.b)) {
		r.err = errShort
	}
	if r.err != nil {
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

func (r *recReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	switch {
	case n == 0:
		r.err = errShort
	case n < 0:
		r.err = errors.New("uvarint overflow")
	default:
		r.b = r.b[n:]
	}
	return v
}

func (r *recReader) node() env.NodeID {
	v := r.uvarint()
	if v > math.MaxUint32 && r.err == nil {
		r.err = errors.New("node id overflow")
	}
	return env.NodeID(v)
}

// fixed takes n ≤ 32 bytes, or past an error n zero bytes.
func (r *recReader) fixed(n int) []byte {
	if b := r.take(uint64(n)); r.err == nil {
		return b
	}
	return zeros[:n]
}

var zeros [32]byte

func (r *recReader) u8() byte { return r.fixed(1)[0] }

func (r *recReader) u16() uint16 { return binary.BigEndian.Uint16(r.fixed(2)) }

func (r *recReader) u64() uint64 { return binary.BigEndian.Uint64(r.fixed(8)) }

func (r *recReader) dirID() core.DirID { return core.DirIDFromBytes(r.fixed(32)) }

func (r *recReader) bytes() []byte { return r.take(r.uvarint()) }

func (r *recReader) str() string { return string(r.bytes()) }

func (r *recReader) key() core.Key {
	return core.Key{PID: r.dirID(), Name: r.str()}
}

// rest takes every byte left.
func (r *recReader) rest() []byte { return r.take(uint64(len(r.b))) }

// inode reads the inode image that runs to the record's end; the image
// decoder refuses bytes past the image itself.
func (r *recReader) inode() *core.Inode {
	b := r.rest()
	if r.err != nil {
		return nil
	}
	in, err := core.DecodeInode(b)
	r.err = err
	return in
}

// end reports the first error, or bytes left over, as a corrupt record of
// the named kind.
func (r *recReader) end(kind string) error {
	if r.err == nil && len(r.b) != 0 {
		r.err = errTrailing
	}
	if r.err != nil {
		return fmt.Errorf("server: corrupt %s record: %w", kind, r.err)
	}
	return nil
}

func appendStr(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendKey(b []byte, k core.Key) []byte { return appendStr(k.PID.AppendBinary(b), k.Name) }

func appendDirRef(b []byte, dir core.DirRef) []byte {
	b = appendKey(dir.ID.AppendBinary(b), dir.Key)
	return binary.BigEndian.AppendUint64(b, uint64(dir.FP))
}

func (r *recReader) dirRef() core.DirRef {
	return core.DirRef{ID: r.dirID(), Key: r.key(), FP: core.Fingerprint(r.u64())}
}

// appendEntryFields appends what follows a change-log entry's id.
func appendEntryFields(b []byte, e core.LogEntry) []byte {
	b = binary.AppendUvarint(b, uint64(e.Time))
	b = append(b, byte(e.Op), byte(e.Type))
	b = binary.BigEndian.AppendUint16(b, uint16(e.Perm))
	return appendStr(b, e.Name)
}

// entryFields reads what appendEntryFields wrote into e.
func (r *recReader) entryFields(e *core.LogEntry) {
	e.Time = int64(r.uvarint())
	e.Op = core.Op(r.u8())
	e.Type = core.FileType(r.u8())
	e.Perm = core.Perm(r.u16())
	e.Name = r.str()
}

// encodeEntry appends one change-log entry of dir: the update of a prepared
// op, and the bytes a recCommit record starts with.
func encodeEntry(b []byte, dir core.DirRef, e core.LogEntry) []byte {
	return appendEntryFields(binary.AppendUvarint(appendDirRef(b, dir), e.ID), e)
}

// entry reads what encodeEntry wrote.
func (r *recReader) entry() (dir core.DirRef, e core.LogEntry) {
	dir = r.dirRef()
	e.ID = r.uvarint()
	r.entryFields(&e)
	return dir, e
}

// encodeCommit appends a recCommit WAL record to b: the committed
// double-inode operation's deferred parent update (§5.2.1 step 4) and,
// unless the entry is a delete, the inode image the operation stored. The
// operation's key is (parent.ID, entry.Name) and its op entry.Op.
func encodeCommit(b []byte, parent core.DirRef, entry core.LogEntry, in *core.Inode) []byte {
	return appendCommitTail(appendDirRef(b, parent), entry, in)
}

// encodeCommitAt appends a recCommitAt WAL record to b: encodeCommit's
// record with the parent's DirRef replaced by the slot that names it.
func encodeCommitAt(b []byte, slot uint32, entry core.LogEntry, in *core.Inode) []byte {
	return appendCommitTail(binary.AppendUvarint(b, uint64(slot)), entry, in)
}

// appendCommitTail appends what follows a commit's parent: the entry and,
// unless it is a delete, the inode image.
func appendCommitTail(b []byte, entry core.LogEntry, in *core.Inode) []byte {
	b = appendEntryFields(binary.AppendUvarint(b, entry.ID), entry)
	if entry.Op != core.OpDelete {
		b = core.AppendInode(b, in)
	}
	return b
}

// decodeCommit parses a recCommit record; in is nil for a delete.
func decodeCommit(b []byte) (key core.Key, parent core.DirRef, entry core.LogEntry, in *core.Inode, err error) {
	r := recReader{b: b}
	return r.commitTail(r.dirRef(), "commit")
}

// decodeCommitAt parses a recCommitAt record, its parent the DirRef of the
// slot it names in t. A slot t does not define is an error.
func decodeCommitAt(b []byte, t *commitSlots) (key core.Key, parent core.DirRef, entry core.LogEntry, in *core.Inode, err error) {
	r := recReader{b: b}
	n := r.uvarint()
	if ref, ok := t.ref(n); ok {
		parent = ref
	} else if r.err == nil {
		r.err = fmt.Errorf("slot %d undefined (%d kept, %d..%d defined)", n, len(t.kept), t.base+1, t.count())
	}
	return r.commitTail(parent, "slot commit")
}

// commitTail reads what appendCommitTail wrote, under parent.
func (r *recReader) commitTail(parent core.DirRef, kind string) (key core.Key, _ core.DirRef, entry core.LogEntry, in *core.Inode, err error) {
	entry.ID = r.uvarint()
	r.entryFields(&entry)
	if entry.Op != core.OpDelete {
		in = r.inode()
	}
	return core.Key{PID: parent.ID, Name: entry.Name}, parent, entry, in, r.end(kind)
}

// commitSlots is the slot table of one log, built while it replays in order:
// slot n is the parent of the log's n-th recCommit. Past a checkpoint's cut,
// refs holds the slots past base, the count the image recorded, and kept the
// earlier ones a record past the cut may still name: those the image kept,
// ascending by number.
type commitSlots struct {
	base uint32
	refs []core.DirRef
	kept []slotRef
}

// slotRef is a slot and the DirRef it names.
type slotRef struct {
	n   uint32
	ref core.DirRef
}

// decode parses a recCommit, which defines the next slot, or a recCommitAt,
// which names one defined before it.
func (t *commitSlots) decode(kind uint8, b []byte) (key core.Key, parent core.DirRef, entry core.LogEntry, in *core.Inode, err error) {
	if kind == recCommitAt {
		return decodeCommitAt(b, t)
	}
	key, parent, entry, in, err = decodeCommit(b)
	t.refs = append(t.refs, parent)
	return key, parent, entry, in, err
}

// decodeCarried parses a commit carried below a checkpoint's cut: in full
// form, or naming a slot the image keeps. It defines no slot.
func (t *commitSlots) decodeCarried(kind uint8, b []byte) (key core.Key, parent core.DirRef, entry core.LogEntry, in *core.Inode, err error) {
	if kind == recCommitAt {
		return decodeCommitAt(b, t)
	}
	return decodeCommit(b)
}

// ref returns the DirRef slot n names.
func (t *commitSlots) ref(n uint64) (core.DirRef, bool) {
	if n > uint64(t.base) {
		if n-uint64(t.base) <= uint64(len(t.refs)) {
			return t.refs[n-uint64(t.base)-1], true
		}
		return core.DirRef{}, false
	}
	i, ok := slices.BinarySearchFunc(t.kept, n, func(s slotRef, n uint64) int { return cmp.Compare(uint64(s.n), n) })
	if !ok {
		return core.DirRef{}, false
	}
	return t.kept[i].ref, true
}

// count is the number of slots defined, the ones before base included.
func (t *commitSlots) count() uint32 { return t.base + uint32(len(t.refs)) }

// encodeAggBatch appends a recAggBatch record to b: the entries of dir that
// one batch applies at the owner, each log's fresh ones under its source, in
// order; logs with no fresh entries are left out. Fresh ids ascend, so each
// is written as its distance from the one before, the first from 0, and a
// zero distance, which no entry has, ends one source's entries before the
// next source's id. The last source's entries run to the end, so a batch of
// one entry takes the bytes a record of that entry alone would.
func encodeAggBatch(b []byte, dir core.DirRef, logs []aggLog) []byte {
	b = appendDirRef(b, dir)
	sources := 0
	for i := range logs {
		l := &logs[i]
		var prev uint64 // fresh ids are above a watermark, so never 0
		for e := range l.fresh {
			if prev == 0 {
				if sources > 0 {
					b = append(b, 0)
				}
				sources++
				b = binary.AppendUvarint(b, uint64(l.from))
			}
			b = appendEntryFields(binary.AppendUvarint(b, e.ID-prev), e)
			prev = e.ID
		}
	}
	return b
}

// decodeAggBatch parses a recAggBatch record into its directory and one log
// per source, whose entries are all fresh. It refuses a batch without
// sources, a source without entries, and an id distance that wraps past the
// largest id.
func decodeAggBatch(b []byte) (dir core.DirRef, logs []aggLog, err error) {
	r := recReader{b: b}
	dir = r.dirRef()
	// Every source's entries share one array, sized once: an entry takes at
	// least 7 bytes (distance, time, op, type, two of perm, name length).
	all := make([]core.LogEntry, 0, len(r.b)/7)
	for more := true; more && r.err == nil; {
		l := aggLog{from: r.node(), log: wire.DirLog{Dir: dir}}
		more = false
		start := len(all)
		var prev uint64
		for r.err == nil && len(r.b) > 0 {
			d := r.uvarint()
			if more = d == 0; more {
				break // the next source follows
			}
			e := core.LogEntry{ID: prev + d}
			if e.ID <= prev && r.err == nil {
				r.err = errors.New("entry id delta wraps")
			}
			prev = e.ID
			r.entryFields(&e)
			all = append(all, e)
		}
		if l.log.Entries = all[start:len(all):len(all)]; len(l.log.Entries) == 0 && r.err == nil {
			r.err = errors.New("source without entries")
		}
		logs = append(logs, l)
	}
	return dir, logs, r.end("aggregation batch")
}

// encodeInodeRec appends a recInode record to b: a direct inode put, or for
// a nil inode a delete, which carries no image.
func encodeInodeRec(b []byte, key core.Key, in *core.Inode) []byte {
	b = appendKey(b, key)
	if in != nil {
		b = core.AppendInode(b, in)
	}
	return b
}

// decodeInodeRec parses a recInode record; in is nil for a delete.
func decodeInodeRec(b []byte) (key core.Key, in *core.Inode, err error) {
	r := recReader{b: b}
	key = r.key()
	if len(r.b) > 0 {
		in = r.inode()
	}
	return key, in, r.end("inode")
}

// encodeDentryRec appends a recDentry record to b: the name runs to the end.
func encodeDentryRec(b []byte, dir core.DirID, name string, put bool, t core.FileType, perm core.Perm) []byte {
	b = dir.AppendBinary(b)
	if put {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = append(b, byte(t))
	b = binary.BigEndian.AppendUint16(b, uint16(perm))
	return append(b, name...)
}

// decodeDentryRec parses a recDentry record.
func decodeDentryRec(b []byte) (dir core.DirID, e core.DirEntry, put bool, err error) {
	r := recReader{b: b}
	dir = r.dirID()
	put = r.u8() == 1
	e.Type = core.FileType(r.u8())
	e.Perm = core.Perm(r.u16())
	e.Name = string(r.rest())
	return dir, e, put, r.end("dentry")
}

// encodeDelDentries appends a recDelDentries record to b.
func encodeDelDentries(b []byte, dir core.DirID) []byte { return dir.AppendBinary(b) }

// decodeDelDentries parses a recDelDentries record.
func decodeDelDentries(b []byte) (core.DirID, error) {
	r := recReader{b: b}
	dir := r.dirID()
	return dir, r.end("entry-list drop")
}

// encodeMark appends a recMark record to b: src's watermark id for dir.
func encodeMark(b []byte, src env.NodeID, dir core.DirID, id uint64) []byte {
	b = binary.AppendUvarint(b, uint64(src))
	b = dir.AppendBinary(b)
	return binary.AppendUvarint(b, id)
}

// decodeMark parses a recMark record.
func decodeMark(b []byte) (src env.NodeID, dir core.DirID, id uint64, err error) {
	r := recReader{b: b}
	src = r.node()
	dir = r.dirID()
	id = r.uvarint()
	return src, dir, id, r.end("watermark")
}

// encodeTxnCommit appends a recTxnCommit record to b: the transaction and,
// to the end, its participants.
func encodeTxnCommit(b []byte, txn uint64, parts []env.NodeID) []byte {
	b = binary.AppendUvarint(b, txn)
	for _, n := range parts {
		b = binary.AppendUvarint(b, uint64(n))
	}
	return b
}

// decodeTxnCommit parses a recTxnCommit record.
func decodeTxnCommit(b []byte) (txn uint64, parts []env.NodeID, err error) {
	r := recReader{b: b}
	txn = r.uvarint()
	for r.err == nil && len(r.b) > 0 {
		parts = append(parts, r.node())
	}
	return txn, parts, r.end("2PC commit")
}

// encodeTxnPrepare appends a prepared transaction's durable state to b: txn
// id, coordinator, and the op list (checks already validated — only the
// appliable ops matter to a restarted incarnation).
func encodeTxnPrepare(b []byte, txn uint64, coord env.NodeID, ops []wire.TxnOp) []byte {
	b = binary.AppendUvarint(b, txn)
	b = binary.AppendUvarint(b, uint64(coord))
	b = binary.AppendUvarint(b, uint64(len(ops)))
	for _, op := range ops {
		b = append(b, byte(op.Kind))
		b = appendKey(b, op.Key)
		b = append(binary.AppendUvarint(b, uint64(len(op.Inode))), op.Inode...)
		b = encodeEntry(b, op.Dir, op.Entry)
	}
	return b
}

// decodeTxnPrepare parses a recTxnPrepare record.
func decodeTxnPrepare(b []byte) (txn uint64, coord env.NodeID, ops []wire.TxnOp, err error) {
	r := recReader{b: b}
	txn = r.uvarint()
	coord = r.node()
	n := r.uvarint()
	if n > uint64(len(r.b)) && r.err == nil {
		r.err = errShort // every op takes at least its kind byte
	}
	if r.err == nil {
		ops = make([]wire.TxnOp, 0, n)
	}
	for i := uint64(0); i < n && r.err == nil; i++ {
		var op wire.TxnOp
		op.Kind = wire.TxnKind(r.u8())
		op.Key = r.key()
		if in := r.bytes(); len(in) > 0 {
			op.Inode = append([]byte(nil), in...)
		}
		op.Dir, op.Entry = r.entry()
		ops = append(ops, op)
	}
	return txn, coord, ops, r.end("2PC prepare")
}

// encodeEvict appends a recEvict record to b.
func encodeEvict(b []byte, fp core.Fingerprint) []byte {
	return binary.BigEndian.AppendUint64(b, uint64(fp))
}

// decodeEvict parses a recEvict record.
func decodeEvict(b []byte) (core.Fingerprint, error) {
	r := recReader{b: b}
	fp := core.Fingerprint(r.u64())
	return fp, r.end("eviction")
}
