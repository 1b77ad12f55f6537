package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/ring"
	"switchfs/internal/wal"
	"switchfs/internal/wire"
)

func randName(rnd *rand.Rand) string { return strings.Repeat("n", rnd.Intn(core.MaxNameLen+1)) }

func randDirRef(rnd *rand.Rand) core.DirRef {
	k := core.Key{PID: core.DirID{rnd.Uint64(), rnd.Uint64(), rnd.Uint64(), rnd.Uint64()}, Name: randName(rnd)}
	return core.DirRef{ID: core.DirID{rnd.Uint64(), 1, 2, rnd.Uint64()}, Key: k, FP: k.Fingerprint()}
}

func randEntry(rnd *rand.Rand) core.LogEntry {
	return core.LogEntry{ID: rnd.Uint64(), Time: rnd.Int63(), Op: core.Op(1 + rnd.Intn(4)),
		Name: randName(rnd), Type: core.FileType(1 + rnd.Intn(2)), Perm: core.Perm(rnd.Intn(1 << 12))}
}

func randInode(rnd *rand.Rand) *core.Inode {
	in := &core.Inode{Attr: core.Attr{Type: core.TypeRegular, Perm: core.Perm(rnd.Intn(1 << 12)),
		Size: rnd.Int63(), Mtime: rnd.Int63(), Nlink: rnd.Uint32()}, File: core.FileID(rnd.Uint64())}
	for n := rnd.Intn(6); n > 0; n-- {
		in.DataLoc = append(in.DataLoc, rnd.Uint32())
	}
	return in
}

// randBatch is 1–4 sources' fresh entries: the first source's 1–6, each
// other's 0–5, as applyBatch logs no batch without entries. Each source's ids
// ascend from a random start by random steps; with edges the steps are 1 and
// the last id is the largest there is.
func randBatch(rnd *rand.Rand, edges bool) []aggLog {
	logs := make([]aggLog, 1+rnd.Intn(4))
	for i := range logs {
		logs[i].from = env.NodeID(rnd.Uint32())
		id := uint64(rnd.Int63n(1 << 50))
		for k := rnd.Intn(6) + max(0, 1-i); k > 0; k-- {
			step := uint64(1 + rnd.Intn(1<<20))
			if edges {
				step = 1
			}
			id += step
			e := randEntry(rnd)
			e.ID = id
			logs[i].log.Entries = append(logs[i].log.Entries, e)
		}
		if es := logs[i].log.Entries; edges && len(es) > 0 {
			es[len(es)-1].ID = math.MaxUint64
		}
	}
	return logs
}

func sameInode(a, b *core.Inode) bool {
	return a.Attr == b.Attr && a.ID == b.ID && a.File == b.File && slices.Equal(a.DataLoc, b.DataLoc)
}

// TestEncodersAppend: every WAL encoder appends its record to the buffer it
// is handed, as the server's reused record buffer needs. For random values
// each encoder leaves a non-empty prefix intact, and the decoders round-trip
// what follows it. The first rows put ids, times, sources, transaction ids
// and slots at the uvarint edges; a delete's commit record carries no inode
// image, and a slot commit is the full one with its DirRef replaced by the
// slot.
func TestEncodersAppend(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	prefix := []byte("an earlier record")
	// rec encodes after a copy of prefix and returns the record alone.
	rec := func(what string, enc func(b []byte) []byte) []byte {
		t.Helper()
		b := enc(slices.Clone(prefix))
		if !bytes.HasPrefix(b, prefix) {
			t.Fatalf("%s overwrote the bytes before it: %q", what, b)
		}
		return b[len(prefix):]
	}
	edges := []uint64{0, 127, 128, 1 << 14, 1<<63 - 1}
	for i := 0; i < 500; i++ {
		dir, e, in := randDirRef(rnd), randEntry(rnd), randInode(rnd)
		src, txn := env.NodeID(rnd.Uint32()), uint64(i)
		if i < len(edges) {
			e.ID, e.Time, txn = edges[i], int64(edges[i]), edges[i]
			src = env.NodeID(min(edges[i], math.MaxUint32))
		}
		key := core.Key{PID: dir.ID, Name: e.Name}

		for _, op := range []core.Op{e.Op, core.OpDelete} {
			e := e
			e.Op = op
			b := rec("encodeCommit", func(b []byte) []byte { return encodeCommit(b, dir, e, in) })
			k2, d2, e2, in2, err := decodeCommit(b)
			if err != nil || k2 != key || d2 != dir || e2 != e {
				t.Fatalf("commit round trip: %v %v %+v %v", k2, d2, e2, err)
			}
			if op == core.OpDelete {
				if in2 != nil || len(b) != len(encodeEntry(nil, dir, e)) {
					t.Fatalf("delete commit carries an inode image: %d bytes, %+v", len(b), in2)
				}
			} else if !sameInode(in2, in) {
				t.Fatalf("commit round trip: inode %+v, want %+v", in2, in)
			}
			slot := uint32(1 + i%3)
			if i < len(edges) {
				slot = uint32(min(max(edges[i], 1), 1<<14)) // a slot's uvarint 1 to 3 bytes wide
			}
			slots := make([]core.DirRef, slot)
			slots[slot-1] = dir
			at := rec("encodeCommitAt", func(b []byte) []byte { return encodeCommitAt(b, slot, e, in) })
			k3, d3, e3, in3, err := decodeCommitAt(at, &commitSlots{refs: slots})
			if err != nil || k3 != key || d3 != dir || e3 != e || (in3 == nil) != (in2 == nil) ||
				!bytes.Equal(at[len(binary.AppendUvarint(nil, uint64(slot))):], b[len(appendDirRef(nil, dir)):]) {
				t.Fatalf("slot commit round trip: %v %v %+v %v", k3, d3, e3, err)
			}
		}

		logs := randBatch(rnd, i < len(edges))
		b := rec("encodeAggBatch", func(b []byte) []byte { return encodeAggBatch(b, dir, logs) })
		d2, logs2, err := decodeAggBatch(b)
		if err != nil || d2 != dir {
			t.Fatalf("aggregation batch round trip: %v %v", d2, err)
		}
		for _, l := range logs {
			if len(l.log.Entries) == 0 {
				continue
			}
			if len(logs2) == 0 || logs2[0].from != l.from || !slices.Equal(logs2[0].log.Entries, l.log.Entries) {
				t.Fatalf("aggregation batch round trip: source %d %+v, got %+v", l.from, l.log.Entries, logs2)
			}
			logs2 = logs2[1:]
		}
		if len(logs2) != 0 {
			t.Fatalf("aggregation batch round trip: %d sources more than encoded", len(logs2))
		}

		for _, want := range []*core.Inode{in, nil} {
			b = rec("encodeInodeRec", func(b []byte) []byte { return encodeInodeRec(b, key, want) })
			k2, in2, err := decodeInodeRec(b)
			if err != nil || k2 != key || (want == nil) != (in2 == nil) || (want != nil && !sameInode(in2, want)) {
				t.Fatalf("inode record round trip: %v %+v %v", k2, in2, err)
			}
		}

		b = rec("encodeDentryRec", func(b []byte) []byte { return encodeDentryRec(b, dir.ID, e.Name, i%2 == 0, e.Type, e.Perm) })
		if d2, de, put, err := decodeDentryRec(b); err != nil || d2 != dir.ID || put != (i%2 == 0) ||
			de != (core.DirEntry{Name: e.Name, Type: e.Type, Perm: e.Perm}) {
			t.Fatalf("dentry record round trip: %v %+v %v %v", d2, de, put, err)
		}

		b = rec("encodeDelDentries", func(b []byte) []byte { return encodeDelDentries(b, dir.ID) })
		if d2, err := decodeDelDentries(b); err != nil || d2 != dir.ID {
			t.Fatalf("entry-list drop round trip: %v %v", d2, err)
		}

		b = rec("encodeMark", func(b []byte) []byte { return encodeMark(b, src, dir.ID, e.ID) })
		if s2, d2, id, err := decodeMark(b); err != nil || s2 != src || d2 != dir.ID || id != e.ID {
			t.Fatalf("watermark round trip: %d %v %d %v", s2, d2, id, err)
		}

		parts := make([]env.NodeID, rnd.Intn(4))
		for j := range parts {
			parts[j] = env.NodeID(rnd.Uint32())
		}
		b = rec("encodeTxnCommit", func(b []byte) []byte { return encodeTxnCommit(b, txn, parts) })
		if txn2, parts2, err := decodeTxnCommit(b); err != nil || txn2 != txn || !slices.Equal(parts2, parts) {
			t.Fatalf("2PC commit round trip: %d %v %v", txn2, parts2, err)
		}

		b = rec("encodeEvict", func(b []byte) []byte { return encodeEvict(b, dir.FP) })
		if fp, err := decodeEvict(b); err != nil || fp != dir.FP {
			t.Fatalf("eviction round trip: %v %v", fp, err)
		}

		ops := make([]wire.TxnOp, rnd.Intn(5))
		for j := range ops {
			ops[j] = wire.TxnOp{Kind: wire.TxnKind(1 + rnd.Intn(6)), Key: randDirRef(rnd).Key,
				Dir: randDirRef(rnd), Entry: randEntry(rnd)}
			if rnd.Intn(2) == 0 {
				ops[j].Inode = core.EncodeInode(randInode(rnd))
			}
		}
		b = rec("encodeTxnPrepare", func(b []byte) []byte { return encodeTxnPrepare(b, txn, src, ops) })
		txn2, coord, ops2, err := decodeTxnPrepare(b)
		if err != nil || txn2 != txn || coord != src || len(ops2) != len(ops) {
			t.Fatalf("txn prepare round trip: txn %d coord %d, %d ops, %v", txn2, coord, len(ops2), err)
		}
		for j, op := range ops {
			got := ops2[j]
			if got.Kind != op.Kind || got.Key != op.Key || got.Dir != op.Dir || got.Entry != op.Entry || !slices.Equal(got.Inode, op.Inode) {
				t.Fatalf("txn op %d round trip: %+v, want %+v", j, got, op)
			}
		}
	}
}

// TestCreateRecordBytes pins a create's log footprint, through the real
// encoders: an 8-byte name created in directory d0 as entry 12 345 at t = 3 ms
// logs its commit at the name's owner, and its entry in d0's owner's
// aggregation batch, after entry 12 344 of the same source, in at most 121
// bytes. (With every length and id 8 bytes wide, and the commit repeating its
// key and op and stating the inode's length, the two took 390; with uvarint
// fields and an 89-byte fixed-width inode image, 278; with a record of its
// own for each aggregated entry, 198.) The next create into d0 names d0 by
// the slot the first commit defined and logs at most 47 bytes, 29 + 18; a
// server's handler logs it so: its second commit into a directory is the
// first's record with the DirRef replaced by the slot (no checkpoint comes
// between them: the store holds more than the two log).
func TestCreateRecordBytes(t *testing.T) {
	d0 := core.DirRef{ID: core.DirID{7, 1, 2, 3}, Key: core.Key{PID: core.RootDirID, Name: "d0"}}
	d0.FP = d0.Key.Fingerprint()
	now := int64(3 * env.Millisecond)
	e := core.LogEntry{ID: 12345, Time: now, Op: core.OpCreate, Name: "f0000001", Type: core.TypeRegular, Perm: core.DefaultFilePerm}
	in := &core.Inode{Attr: core.Attr{Type: core.TypeRegular, Perm: core.DefaultFilePerm, Nlink: 1, Atime: now, Mtime: now, Ctime: now}}
	before, next := e, e
	before.ID--
	next.ID++
	next.Name = "f0000002"
	batch := func(es ...core.LogEntry) int {
		return len(encodeAggBatch(nil, d0, []aggLog{{from: 101, log: wire.DirLog{Entries: es}}}))
	}
	commit, agg := len(encodeCommit(nil, d0, e, in)), batch(before, e)-batch(before)
	t.Logf("create: %d + %d = %d bytes logged", commit, agg, commit+agg)
	if commit+agg > 121 {
		t.Errorf("create logs %d + %d = %d bytes, want at most 121", commit, agg, commit+agg)
	}
	commit, agg = len(encodeCommitAt(nil, 1, next, in)), batch(before, e, next)-batch(before, e)
	t.Logf("next create: %d + %d = %d bytes logged", commit, agg, commit+agg)
	if commit+agg > 47 {
		t.Errorf("the next create logs %d + %d = %d bytes, want at most 47", commit, agg, commit+agg)
	}

	r := newRig(t)
	padStore(r.s, 4<<10)
	r.createsIn(map[string]core.DirRef{e.Name: d0, next.Name: d0}, 1, e.Name, next.Name)
	var recs []wal.Record // the commits; an idle push's aggregation logs a batch too
	r.s.wal.Replay(func(rec wal.Record) error {
		if rec.Kind == recCommit || rec.Kind == recCommitAt {
			recs = append(recs, rec)
		}
		return nil
	})
	if len(recs) != 2 || recs[0].Kind != recCommit || recs[1].Kind != recCommitAt ||
		len(recs[1].Payload) != len(recs[0].Payload)-len(appendDirRef(nil, d0))+1 {
		t.Errorf("two creates into d0 logged %d commits: want a full one, then a slot one with the DirRef replaced by one byte", len(recs))
		for _, rec := range recs {
			t.Logf("kind %d, %d bytes", rec.Kind, len(rec.Payload))
		}
	}
}

// TestInodeImageBytes pins the inode image a server stores for a fresh file
// and a fresh directory, created through the handler one second into the
// run: the header, nlink and a 5-byte timestamp (the three are equal), and
// for the directory its 32-byte id.
func TestInodeImageBytes(t *testing.T) {
	r := newRig(t)
	root := core.RootRef()
	for i, c := range []struct {
		op   core.Op
		name string
	}{{core.OpCreate, "f"}, {core.OpMkdir, "d"}} {
		r.send(rigServer, env.Second, &wire.MutateReq{ReqCommon: wire.ReqCommon{RPC: uint64(i + 1), Client: rigClient},
			Op: c.op, Parent: root, Name: c.name})
	}
	r.sim.Run()
	for name, want := range map[string]int{"f": 10, "d": 42} {
		var kb core.KeyBuf
		raw, ok := r.s.kv.GetView(core.Key{PID: root.ID, Name: name}.AppendTo(kb[:0]))
		if !ok {
			t.Fatalf("%s was not created", name)
		}
		if len(raw) != want {
			t.Errorf("%s's image is %d bytes (%x), want %d", name, len(raw), raw, want)
		}
	}
}

// TestRecordBufferReuse: once the server's record buffer has grown, encoding
// into it allocates nothing, and logging what it holds allocates nothing
// beyond the log's own amortized growth.
func TestRecordBufferReuse(t *testing.T) {
	_, s := newTestServer(t)
	parent := core.DirRef{ID: core.DirID{1, 2, 3, 4}, Key: core.Key{PID: core.RootDirID, Name: "hot"}}
	parent.FP = parent.Key.Fingerprint()
	key := core.Key{PID: parent.ID, Name: "file-000123"}
	e := core.LogEntry{ID: 7, Time: 99, Op: core.OpCreate, Name: key.Name, Type: core.TypeRegular, Perm: 0o644}
	in := &core.Inode{Attr: core.Attr{Type: core.TypeRegular, Perm: 0o644, Nlink: 1}, DataLoc: []uint32{1, 2}}
	ops := []wire.TxnOp{{Kind: wire.TxnPutInode, Key: key, Inode: core.EncodeInode(in), Dir: parent, Entry: e}}
	batch := []aggLog{{from: 3, log: wire.DirLog{Entries: []core.LogEntry{e, e}}}}
	batch[0].log.Entries[1].ID++
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"encodeCommit", func() { s.walBuf = encodeCommit(s.walBuf[:0], parent, e, in) }},
		{"encodeCommitAt", func() { s.walBuf = encodeCommitAt(s.walBuf[:0], 3, e, in) }},
		{"encodeAggBatch", func() { s.walBuf = encodeAggBatch(s.walBuf[:0], parent, batch) }},
		{"encodeInodeRec", func() { s.walBuf = encodeInodeRec(s.walBuf[:0], key, in) }},
		{"encodeDentryRec", func() { s.walBuf = encodeDentryRec(s.walBuf[:0], key.PID, key.Name, true, e.Type, e.Perm) }},
		{"encodeMark", func() { s.walBuf = encodeMark(s.walBuf[:0], 3, key.PID, 7) }},
		{"encodeTxnCommit", func() { s.walBuf = encodeTxnCommit(s.walBuf[:0], 9, []env.NodeID{100, 101}) }},
		{"encodeTxnPrepare", func() { s.walBuf = encodeTxnPrepare(s.walBuf[:0], 9, 100, ops) }},
	} {
		c.fn() // the first record may grow the buffer
		if n := testing.AllocsPerRun(100, c.fn); n != 0 {
			t.Errorf("%s into the warm buffer: %v allocs/op, want 0", c.name, n)
		}
	}
	if n := testing.AllocsPerRun(1000, func() { s.putInode(key, in) }); n >= 0.1 {
		t.Errorf("putInode: %v allocs/op, want the log's amortized growth only", n)
	}
}

// TestHandlerAllocationBudgets pins the request path's stack-scratch reads:
// a lock pin and its release — of a key already pinned, or of a fresh key
// served from the free list — and an inode read decode by value without
// allocating; a store write costs what the store keeps, not the encodings
// handed to it. The protocol bookkeeping of the 2PC and aggregation rounds
// allocates nothing into buffers its callers size once: a transaction's
// fingerprint footprint, its key locks taken and released, and a group's
// change-logs in order. So does the dispatch: a message's route and a
// deduplicated request's replay-or-begin step.
func TestHandlerAllocationBudgets(t *testing.T) {
	sim, s := newTestServer(t)
	key := core.Key{PID: core.DirID{1, 2, 3, 4}, Name: "file-000123"}
	in := &core.Inode{Attr: core.Attr{Type: core.TypeRegular, Perm: 0o644, Nlink: 1}}
	s.storeInode(key, in)
	s.lockOf(key)
	fresh := core.Key{PID: key.PID, Name: "file-000124"}
	var got core.Inode
	parent := core.DirRef{ID: core.DirID{5, 6, 7, 8}, Key: core.Key{PID: core.RootDirID, Name: "p"}}
	parent.FP = parent.Key.Fingerprint()
	other := core.Key{PID: core.RootDirID, Name: "q"}
	ops := []wire.TxnOp{{Kind: wire.TxnDelInode, Key: key}, {Kind: wire.TxnPutInode, Key: fresh},
		{Kind: wire.TxnDirUpdate, Dir: parent}, {Kind: wire.TxnDirUpdate, Dir: parent}}
	checks := []wire.TxnCheck{{Key: key, MustExist: true}, {Key: fresh, MustNotExist: true}}
	fps := make([]core.Fingerprint, 0, len(ops)+len(checks))
	locks := make([]*keyLock, 0, len(ops)+len(checks))
	group := parent.FP
	for _, i := range []uint64{3, 1, 2} {
		s.clogOf(core.DirRef{ID: core.DirID{i, 9, 9, 9}, Key: other, FP: group})
	}
	clogs := make([]*dirLog, 0, 3)
	// The dispatch: a duplicate of a create still in flight, which the
	// replay-or-begin step drops, and a peer message (an ack for a log this
	// server does not hold). A memo replay's one packet is not counted.
	dup := &wire.Packet{Dst: 100, Origin: 9000, Body: &wire.MutateReq{ReqCommon: wire.ReqCommon{RPC: 1, Client: 9000}}}
	s.served.Admit(9000, 1, 0, nil)
	ack := &wire.Packet{Dst: 100, Origin: 101, Body: &wire.ChangePushAck{Dir: core.DirID{9}}}
	var p *env.Proc
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"lockOf hit", func() { s.unpin(s.lockOf(key)) }},
		{"lockOf from the free list", func() { s.unpin(s.lockOf(fresh)) }},
		{"readInode", func() {
			if err := s.readInode(key, &got); err != nil || got.Attr != in.Attr {
				t.Fatalf("readInode: %+v, %v", got, err)
			}
		}},
		{"storeInode overwrite", func() { s.storeInode(key, in) }},
		{"putDentry overwrite", func() { s.putDentry(key.PID, core.DirEntry{Name: key.Name, Type: core.TypeRegular}, true) }},
		{"txnFPs", func() {
			if fps = txnFPs(fps, ops, checks); len(fps) != 3 {
				t.Fatalf("txnFPs: %v, want the three distinct groups", fps)
			}
		}},
		{"lockTxnKeys and release", func() {
			if locks = s.lockTxnKeys(p, locks, ops, checks); len(locks) != 3 {
				t.Fatalf("lockTxnKeys: %d locks, want one per distinct key", len(locks))
			}
			for _, l := range locks {
				s.unlockKey(l)
			}
		}},
		{"dispatch of a duplicate in flight", func() { s.handle(p, 9000, dup) }},
		{"dispatch of a peer message", func() { s.handle(p, 101, ack) }},
		{"a group's logs snapshot", func() {
			if clogs = append(clogs[:0], s.groups[group].logs...); len(clogs) != 3 || clogs[0].ref.ID[0] != 1 || clogs[2].ref.ID[0] != 3 {
				t.Fatalf("group logs: %d logs, want 3 in directory order", len(clogs))
			}
		}},
	} {
		sim.Spawn(100, func(proc *env.Proc) {
			p = proc
			c.fn() // first use may insert
			if n := testing.AllocsPerRun(100, c.fn); n != 0 {
				t.Errorf("%s: %v allocs/op, want 0", c.name, n)
			}
		})
		sim.Run()
	}
}

// TestChmodSurvivesReplay: chmod's WAL record is a recInode like every other
// direct inode write, so a restart replays it. (It used to append the raw
// store key and value, which decodeInodeRec rejects: one chmod made the
// server's whole WAL unreplayable.)
func TestChmodSurvivesReplay(t *testing.T) {
	sim, s := newTestServer(t)
	parent := core.DirRef{ID: core.DirID{1, 2, 3, 4}, Key: core.Key{PID: core.RootDirID, Name: "p"}}
	parent.FP = parent.Key.Fingerprint()
	key := core.Key{PID: parent.ID, Name: "f"}
	s.InjectInode(key, &core.Inode{Attr: core.Attr{Type: core.TypeRegular, Perm: 0o644, Nlink: 1}}, true)
	sim.Spawn(100, func(p *env.Proc) {
		s.handleFile(p, nil, &wire.FileReq{ReqCommon: wire.ReqCommon{RPC: 1, Client: 9000},
			Op: core.OpChmod, Parent: parent, Name: "f", Perm: 0o600})
	})
	sim.Run()

	log := s.wal
	s.Crash()
	r := Restart(sim, s.cfg, log)
	if _, err := r.replayWAL(); err != nil {
		t.Fatalf("replay after chmod: %v", err)
	}
	var got core.Inode
	if err := r.readInode(key, &got); err != nil || got.Perm != 0o600 {
		t.Fatalf("after replay: perm %o, err %v; want 600", got.Perm, err)
	}
}

// Layer microbenchmarks of the durable-record encoders (`make bench-layers`):
// each encodes into one reused buffer, as the server does, so no allocation
// per record, whatever the name lengths.

var benchSink []byte

// BenchmarkEncodeCommit encodes a create's commit record, naming its parent
// in full (a directory's first commit in the log) or by its slot (every
// later one); wal-B/op is the record's size.
func BenchmarkEncodeCommit(b *testing.B) {
	parent := core.DirRef{ID: core.DirID{1, 2, 3, 4}, Key: core.Key{PID: core.RootDirID, Name: "hot"}}
	parent.FP = parent.Key.Fingerprint()
	key := core.Key{PID: parent.ID, Name: "file-000123"}
	e := core.LogEntry{ID: 7, Time: 99, Op: core.OpCreate, Name: key.Name, Type: core.TypeRegular, Perm: 0o644}
	in := &core.Inode{Attr: core.Attr{Type: core.TypeRegular, Perm: 0o644, Nlink: 1}}
	for _, c := range []struct {
		name string
		enc  func(b []byte) []byte
	}{
		{"full", func(b []byte) []byte { return encodeCommit(b, parent, e, in) }},
		{"slot", func(b []byte) []byte { return encodeCommitAt(b, 1, e, in) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = c.enc(benchSink[:0])
			}
			b.ReportMetric(float64(len(benchSink)), "wal-B/op")
		})
	}
}

// BenchmarkEncodeAggBatch encodes a batch of one source's 32 creates; its
// ns/op is the batch's, so a 32nd of it is one entry's.
func BenchmarkEncodeAggBatch(b *testing.B) {
	dir := core.DirRef{ID: core.DirID{1, 2, 3, 4}, Key: core.Key{PID: core.RootDirID, Name: "hot"}}
	dir.FP = dir.Key.Fingerprint()
	logs := []aggLog{{from: 3}}
	for k := range 32 {
		logs[0].log.Entries = append(logs[0].log.Entries, core.LogEntry{ID: uint64(7 + k), Time: 99, Op: core.OpCreate,
			Name: fmt.Sprintf("file-%06d", k), Type: core.TypeRegular, Perm: 0o644})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = encodeAggBatch(benchSink[:0], dir, logs)
	}
}

// renameRig is the rename budget's deployment: n file renames inside one
// directory on a one-server deployment, so the coordinator, both names'
// owners and the directory's owner are one node and every 2PC message still
// crosses the (loopback) network — the pre-flush and the read run locally,
// one prepare, vote, decision and done each. It returns the server and a
// function that runs renames [from, to) one after another.
func renameRig(tb testing.TB, n int) (*Server, func(from, to int)) {
	sim := env.NewSim(3)
	tb.Cleanup(sim.Shutdown)
	const client env.NodeID = 9000
	done := 0
	sim.AddNode(client, env.NodeConfig{Handler: func(p *env.Proc, from env.NodeID, msg any) {
		if resp, ok := msg.(*wire.Packet).Body.(*wire.RenameResp); ok && resp.Err == core.ErrnoOK {
			done++
		}
	}})
	s := New(sim, Config{ID: 100, Coordinator: 100,
		Ring:      ring.New([]uint32{0}, 0, func(uint32) env.NodeID { return 100 }),
		Peers:     []env.NodeID{100},
		SwitchFor: func(core.Fingerprint) env.NodeID { return 1 }})
	root := core.RootRef()
	file := &core.Inode{Attr: core.Attr{Type: core.TypeRegular, Perm: 0o644, Nlink: 1}}
	reqs := make([]*wire.Packet, n)
	for i := range reqs {
		src := fmt.Sprintf("src-%06d", i)
		s.storeInode(core.Key{PID: root.ID, Name: src}, file)
		s.putDentry(root.ID, core.DirEntry{Name: src, Type: core.TypeRegular, Perm: 0o644}, true)
		reqs[i] = &wire.Packet{Dst: 100, Origin: client, Body: &wire.RenameReq{
			ReqCommon: wire.ReqCommon{RPC: uint64(i + 1), Client: client},
			SrcParent: root, SrcName: src, DstParent: root, DstName: fmt.Sprintf("dst-%06d", i)}}
	}
	return s, func(from, to int) {
		sim.Spawn(client, func(p *env.Proc) {
			for _, pkt := range reqs[from:to] {
				want := done + 1
				p.Send(100, pkt)
				for done < want {
					p.Sleep(env.Microsecond)
				}
			}
		})
		sim.Run()
		if done != to {
			tb.Fatalf("%d of %d renames succeeded", done, to)
		}
	}
}

// aggRig is the aggregation budget's deployment: an owner (100) and two peers
// on one Sim, and a switch stub that multicasts the owner's fetch. Before each
// statdir of the owner's directory, both peers log one create in it, and the
// statdir arrives marked scattered, so it runs one aggregation round: the
// fetch, two replies, one batch applied, two acks. It returns a function that
// runs rounds [from, to) one after another.
func aggRig(tb testing.TB, n int) func(from, to int) {
	sim := env.NewSim(3)
	tb.Cleanup(sim.Shutdown)
	const client, sw env.NodeID = 9000, 1
	peers := []env.NodeID{100, 101, 102}
	rg := ring.New([]uint32{0}, 0, func(uint32) env.NodeID { return 100 })
	servers := make([]*Server, len(peers))
	for i, id := range peers {
		servers[i] = New(sim, Config{ID: id, Coordinator: 100, Costs: env.DefaultCosts(), Ring: rg,
			Peers: peers, SwitchFor: func(core.Fingerprint) env.NodeID { return sw }})
	}
	sim.AddNode(sw, env.NodeConfig{Handler: func(p *env.Proc, from env.NodeID, msg any) {
		pkt := msg.(*wire.Packet)
		if pkt.DS == nil || pkt.DS.Op != wire.DSRemove {
			return
		}
		for _, peer := range peers {
			if peer != pkt.Origin {
				p.Send(peer, &wire.Packet{Dst: peer, Origin: pkt.Origin, Body: pkt.Body})
			}
		}
	}})
	done := 0
	sim.AddNode(client, env.NodeConfig{Handler: func(p *env.Proc, from env.NodeID, msg any) {
		if resp, ok := msg.(*wire.Packet).Body.(*wire.DirReadResp); ok && resp.Err == core.ErrnoOK {
			done++
		}
	}})
	key := core.Key{PID: core.RootDirID, Name: "d"}
	dir := core.DirRef{ID: core.DirID{9, 9, 9, 9}, Key: key, FP: key.Fingerprint()}
	servers[0].storeInode(key, &core.Inode{ID: dir.ID, Attr: core.Attr{Type: core.TypeDir, Perm: core.DefaultDirPerm, Nlink: 2}})
	logs := []*dirLog{servers[1].clogOf(dir), servers[2].clogOf(dir)}
	names := make([]string, 2*n)
	for i := range names {
		names[i] = fmt.Sprintf("f-%06d", i)
	}
	reqs := make([]*wire.Packet, n)
	for i := range reqs {
		reqs[i] = &wire.Packet{Dst: 100, Origin: client, DS: &wire.DSHeader{Op: wire.DSQuery, FP: dir.FP, Ret: true},
			Body: &wire.DirReadReq{ReqCommon: wire.ReqCommon{RPC: uint64(i + 1), Client: client}, Op: core.OpStatDir, Dir: dir}}
	}
	return func(from, to int) {
		sim.Spawn(client, func(p *env.Proc) {
			for i, pkt := range reqs[from:to] {
				i += from
				for j, dl := range logs {
					dl.log.Append(core.LogEntry{ID: uint64(i + 1), Time: p.Now(), Op: core.OpCreate,
						Name: names[2*i+j], Type: core.TypeRegular, Perm: 0o644})
				}
				want := done + 1
				p.Send(100, pkt)
				for done < want {
					p.Sleep(env.Microsecond)
				}
			}
		})
		sim.Run()
		if done != to {
			tb.Fatalf("%d of %d statdirs answered", done, to)
		}
		for _, dl := range logs {
			if dl.log.Len() != 0 {
				tb.Fatalf("a peer's log holds %d entries after the rounds", dl.log.Len())
			}
		}
	}
}

// allocsPerOp runs fn, which performs ops operations, and returns the heap
// allocations it made per operation. The count is deterministic under Sim.
func allocsPerOp(fn func(), ops int) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(ops)
}

// TestRenameAllocationBudget keeps a rename's allocation count from rotting
// (renameRig). The budget is the count measured when the 2PC bookkeeping
// stopped allocating and every message was carved with its packet, 27.24,
// plus 2.
func TestRenameAllocationBudget(t *testing.T) {
	const renames, warm, budget = 200, 20, 29.24
	_, rename := renameRig(t, renames)
	rename(0, warm) // warm the lock table, the prepare memo and the worker pool
	perOp := allocsPerOp(func() { rename(warm, renames) }, renames-warm)
	t.Logf("rename: %.2f allocs/op (budget %.2f)", perOp, budget)
	if perOp > budget {
		t.Errorf("rename: %.2f allocs/op, over the budget of %.2f", perOp, budget)
	}
}

// TestAggregationAllocationBudget keeps an aggregation round's allocation
// count from rotting (aggRig). The budget is the count measured when the
// round's bookkeeping stopped allocating and every message was carved with
// its packet, 29.17 (44.17 before), plus 1.
func TestAggregationAllocationBudget(t *testing.T) {
	const rounds, warm, budget = 200, 20, 30.17
	agg := aggRig(t, rounds)
	agg(0, warm)
	perOp := allocsPerOp(func() { agg(warm, rounds) }, rounds-warm)
	t.Logf("aggregation: %.2f allocs/round (budget %.2f)", perOp, budget)
	if perOp > budget {
		t.Errorf("aggregation: %.2f allocs/round, over the budget of %.2f", perOp, budget)
	}
}

// BenchmarkRename is the rename layer benchmark (`make bench-layers`): one
// 2PC file rename per op on renameRig. wal-held-B/op is the log bytes a
// rename leaves held: its records until a checkpoint cuts them, so the
// figure follows the store's size, not the rename count.
func BenchmarkRename(b *testing.B) {
	s, rename := renameRig(b, b.N+20)
	rename(0, 20)
	held := s.wal.Held()
	b.ReportAllocs()
	b.ResetTimer()
	rename(20, 20+b.N)
	b.ReportMetric(float64(s.wal.Held()-held)/float64(b.N), "wal-held-B/op")
}

// BenchmarkAggregate is the aggregation layer benchmark (`make
// bench-layers`): one statdir-triggered aggregation round per op on aggRig.
func BenchmarkAggregate(b *testing.B) {
	agg := aggRig(b, b.N+20)
	agg(0, 20)
	b.ReportAllocs()
	b.ResetTimer()
	agg(20, 20+b.N)
}

// FuzzRecordDecoders feeds one payload to every WAL record decoder, the slot
// commit's against a table of two slots: each returns, with an error or
// without, and none panics, so a corrupt log fail-stops Recover instead of
// the process. The seed corpus, which tier-1 runs, is every record of
// testdata/faulty_run.wal as it is, cut in half, short of its last byte
// (inside the last entry of a batch, whose entries run to the end) and
// extended.
func FuzzRecordDecoders(f *testing.F) {
	for _, log := range loadWALs(f) {
		log.Replay(func(r wal.Record) error {
			f.Add(r.Payload)
			f.Add(r.Payload[:len(r.Payload)/2])
			f.Add(append(slices.Clone(r.Payload), 0x80))
			f.Add(r.Payload[:len(r.Payload)-1])
			return nil
		})
	}
	slots := []core.DirRef{core.RootRef(), randDirRef(rand.New(rand.NewSource(1)))}
	f.Fuzz(func(t *testing.T, b []byte) {
		decodeCommit(b)
		decodeCommitAt(b, &commitSlots{refs: slots})
		decodeAggBatch(b)
		decodeInodeRec(b)
		decodeDentryRec(b)
		decodeDelDentries(b)
		decodeMark(b)
		decodeTxnCommit(b)
		decodeTxnPrepare(b)
		decodeEvict(b)
	})
}
