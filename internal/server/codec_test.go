package server

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/ring"
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

func sameInode(a, b *core.Inode) bool {
	return a.Attr == b.Attr && a.ID == b.ID && a.File == b.File && slices.Equal(a.DataLoc, b.DataLoc)
}

// TestSizedEncoders: every durable record is allocated once, at its exact
// length. For random values each encoder's result has len == cap == its size
// function — a wrong size function fails here instead of silently regrowing
// (or over-allocating) on the commit path — and the decoders round-trip it.
func TestSizedEncoders(t *testing.T) {
	_, s := newTestServer(t)
	rnd := rand.New(rand.NewSource(11))
	exact := func(what string, b []byte, size int) {
		t.Helper()
		if len(b) != size || cap(b) != size {
			t.Fatalf("%s: len %d cap %d, size function says %d", what, len(b), cap(b), size)
		}
	}
	for i := 0; i < 500; i++ {
		dir, e, in := randDirRef(rnd), randEntry(rnd), randInode(rnd)
		key := core.Key{PID: dir.ID, Name: e.Name}
		src := env.NodeID(rnd.Uint32())

		b := encodeEntry(make([]byte, 0, entrySize(dir, e)), dir, e)
		exact("encodeEntry", b, entrySize(dir, e))

		b = s.encodeCommit(e.Op, key, dir, e, in)
		exact("encodeCommit", b, commitSize(key, dir, e, in))
		op, k2, d2, e2, in2, err := decodeCommit(b)
		if err != nil || op != e.Op || k2 != key || d2 != dir || e2 != e || !sameInode(in2, in) {
			t.Fatalf("commit round trip: %v %v %v %+v %+v %v", op, k2, d2, e2, in2, err)
		}

		b = encodeAggEntry(src, dir, e)
		exact("encodeAggEntry", b, 8+entrySize(dir, e))
		if d2, e2, rest := decodeEntry(b[8:]); d2 != dir || e2 != e || len(rest) != 0 {
			t.Fatalf("agg entry round trip: %v %+v (%d left)", d2, e2, len(rest))
		}

		for _, rec := range []*core.Inode{in, nil} {
			b = encodeInodeRec(key, rec)
			exact("encodeInodeRec", b, inodeRecSize(key, rec))
			k2, in2, err := decodeInodeRec(b)
			if err != nil || k2 != key || (rec == nil) != (in2 == nil) || (rec != nil && !sameInode(in2, rec)) {
				t.Fatalf("inode record round trip: %v %+v %v", k2, in2, err)
			}
		}

		b = encodeDentryRec(dir.ID, e.Name, i%2 == 0, e.Type, e.Perm)
		exact("encodeDentryRec", b, 32+1+1+2+len(e.Name))

		ops := make([]wire.TxnOp, rnd.Intn(5))
		for j := range ops {
			ops[j] = wire.TxnOp{Kind: wire.TxnKind(1 + rnd.Intn(6)), Key: randDirRef(rnd).Key,
				Dir: randDirRef(rnd), Entry: randEntry(rnd)}
			if rnd.Intn(2) == 0 {
				ops[j].Inode = core.EncodeInode(randInode(rnd))
			}
		}
		b = encodeTxnPrepare(uint64(i), src, ops)
		exact("encodeTxnPrepare", b, txnPrepareSize(ops))
		txn, coord, ops2 := decodeTxnPrepare(b)
		if txn != uint64(i) || coord != src || len(ops2) != len(ops) {
			t.Fatalf("txn prepare round trip: txn %d coord %d, %d ops", txn, coord, len(ops2))
		}
		for j, op := range ops {
			got := ops2[j]
			if got.Kind != op.Kind || got.Key != op.Key || got.Dir != op.Dir || got.Entry != op.Entry || !slices.Equal(got.Inode, op.Inode) {
				t.Fatalf("txn op %d round trip: %+v, want %+v", j, got, op)
			}
		}
	}
}

// TestHandlerAllocationBudgets pins the request path's stack-scratch reads:
// a lock-table hit and an inode read decode by value without allocating; a
// store write costs what the store keeps, not the encodings handed to it.
func TestHandlerAllocationBudgets(t *testing.T) {
	_, s := newTestServer(t)
	key := core.Key{PID: core.DirID{1, 2, 3, 4}, Name: "file-000123"}
	in := &core.Inode{Attr: core.Attr{Type: core.TypeRegular, Perm: 0o644, Nlink: 1}}
	s.storeInode(key, in)
	s.lockOf(key)
	var got core.Inode
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"lockOf hit", func() { s.lockOf(key) }},
		{"readInode", func() {
			if err := s.readInode(key, &got); err != nil || got.Attr != in.Attr {
				t.Fatalf("readInode: %+v, %v", got, err)
			}
		}},
		{"storeInode overwrite", func() { s.storeInode(key, in) }},
		{"putDentry overwrite", func() { s.putDentry(key.PID, core.DirEntry{Name: key.Name, Type: core.TypeRegular}, true) }},
	} {
		c.fn() // first use may insert
		if n := testing.AllocsPerRun(100, c.fn); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, n)
		}
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
		s.handleChmod(p, &wire.FileReq{ReqCommon: wire.ReqCommon{RPC: 1, Client: 9000},
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
// one allocation per record, whatever the name lengths.

var benchSink []byte

func BenchmarkEncodeCommit(b *testing.B) {
	s := &Server{}
	parent := core.DirRef{ID: core.DirID{1, 2, 3, 4}, Key: core.Key{PID: core.RootDirID, Name: "hot"}}
	parent.FP = parent.Key.Fingerprint()
	key := core.Key{PID: parent.ID, Name: "file-000123"}
	e := core.LogEntry{ID: 7, Time: 99, Op: core.OpCreate, Name: key.Name, Type: core.TypeRegular, Perm: 0o644}
	in := &core.Inode{Attr: core.Attr{Type: core.TypeRegular, Perm: 0o644, Nlink: 1}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = s.encodeCommit(core.OpCreate, key, parent, e, in)
	}
}

func BenchmarkEncodeEntry(b *testing.B) {
	dir := core.DirRef{ID: core.DirID{1, 2, 3, 4}, Key: core.Key{PID: core.RootDirID, Name: "hot"}}
	dir.FP = dir.Key.Fingerprint()
	e := core.LogEntry{ID: 7, Time: 99, Op: core.OpCreate, Name: "file-000123", Type: core.TypeRegular, Perm: 0o644}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = encodeAggEntry(3, dir, e)
	}
}

// TestRenameAllocationBudget keeps a rename's allocation count from rotting:
// file renames inside one directory on a one-server deployment, so the
// coordinator, both names' owners and the directory's owner are one node and
// every 2PC message still crosses the (loopback) network — the pre-flush and
// the read run locally, one prepare, vote, decision and done each. The count
// is deterministic under Sim; the budget sits between what the change that
// sent those four and the control replies as one allocation with their packet
// measured (80.28) and what allocating packet and body apart costs (84.28).
func TestRenameAllocationBudget(t *testing.T) {
	const renames, budget = 200, 82.0
	sim := env.NewSim(3)
	t.Cleanup(sim.Shutdown)
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
	reqs := make([]*wire.Packet, renames)
	for i := range reqs {
		src := fmt.Sprintf("src-%04d", i)
		s.storeInode(core.Key{PID: root.ID, Name: src}, file)
		s.putDentry(root.ID, core.DirEntry{Name: src, Type: core.TypeRegular, Perm: 0o644}, true)
		reqs[i] = &wire.Packet{Dst: 100, Origin: client, Body: &wire.RenameReq{
			ReqCommon: wire.ReqCommon{RPC: uint64(i + 1), Client: client},
			SrcParent: root, SrcName: src, DstParent: root, DstName: fmt.Sprintf("dst-%04d", i)}}
	}
	run := func(pkts []*wire.Packet) float64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		sim.Spawn(client, func(p *env.Proc) {
			for _, pkt := range pkts {
				want := done + 1
				p.Send(100, pkt)
				for done < want {
					p.Sleep(env.Microsecond)
				}
			}
		})
		sim.Run()
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / float64(len(pkts))
	}
	run(reqs[:20]) // warm the lock table, the dedup window and the worker pool
	perOp := run(reqs[20:])
	t.Logf("rename: %.2f allocs/op (budget %.1f)", perOp, budget)
	if done != renames {
		t.Fatalf("%d of %d renames succeeded", done, renames)
	}
	if perOp > budget {
		t.Errorf("rename: %.2f allocs/op, over the budget of %.1f", perOp, budget)
	}
}
