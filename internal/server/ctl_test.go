package server

import (
	"reflect"
	"testing"

	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/ring"
	"switchfs/internal/rpc"
	"switchfs/internal/wire"
)

// ctlRig is one bare server (100) serving control exchanges, with no cluster
// around it: a directory d under the root, the name x in d, a ring of two
// slots — this server and an absent peer (101) — that places every group the
// test touches explicitly, a switch node that swallows dirty-set packets and
// a requester node (ctlFrom) that records the control replies it receives.
type ctlRig struct {
	sim *env.Sim
	s   *Server
	rg  *ring.Ring
	dir core.DirRef
	key core.Key
	dl  *dirLog
	// reply is the first control reply the requester received, sentAt the
	// instant it left the server.
	reply  wire.ControlReply
	sentAt env.Time
}

const ctlFrom env.NodeID = 200

func newCtlRig(t *testing.T) *ctlRig {
	t.Helper()
	r := &ctlRig{sim: env.NewSim(3)}
	t.Cleanup(r.sim.Shutdown)
	r.sim.AddNode(1, env.NodeConfig{Handler: func(*env.Proc, env.NodeID, any) {}})
	r.sim.AddNode(ctlFrom, env.NodeConfig{Handler: func(_ *env.Proc, _ env.NodeID, msg any) {
		if m, ok := msg.(*wire.Packet).Body.(wire.ControlReply); ok && r.reply == nil {
			r.reply = m
		}
	}})
	r.sim.Net().Filter = func(from, _ env.NodeID, msg any) env.Verdict {
		if _, ok := msg.(*wire.Packet).Body.(wire.ControlReply); ok && from == 100 && r.sentAt == 0 {
			r.sentAt = r.sim.Now()
		}
		return env.Pass
	}
	r.rg = ring.New([]uint32{0, 1}, 0, func(slot uint32) env.NodeID { return 100 + env.NodeID(slot) })
	r.s = New(r.sim, Config{ID: 100, Costs: env.DefaultCosts(), Ring: r.rg,
		Peers:     []env.NodeID{100},
		SwitchFor: func(core.Fingerprint) env.NodeID { return 1 }})
	dk := core.Key{PID: core.RootDirID, Name: "d"}
	r.dir = core.DirRef{ID: core.DirID{9, 9, 9, 9}, Key: dk, FP: dk.Fingerprint()}
	r.key = core.Key{PID: r.dir.ID, Name: "x"}
	r.rg.SetOverride(r.dir.FP, 0)
	r.rg.SetOverride(r.key.Fingerprint(), 0)
	r.s.storeInode(dk, &core.Inode{ID: r.dir.ID, Attr: core.Attr{Type: core.TypeDir, Perm: core.DefaultDirPerm, Nlink: 2}})
	return r
}

// ctlFile is the inode the rows store under x.
var ctlFile = core.Inode{Attr: core.Attr{Type: core.TypeRegular, Perm: 0o644, Nlink: 1}}

func (r *ctlRig) file()                      { r.s.storeInode(r.key, &ctlFile) }
func (r *ctlRig) disown(fp core.Fingerprint) { r.rg.SetOverride(fp, 1) }

// logged appends a pending create of name to d's change-log, as a create
// leaves it once its client has the answer.
func (r *ctlRig) logged(id uint64, name string) {
	if r.dl == nil {
		r.dl = r.s.clogOf(r.dir)
	}
	r.dl.log.Append(core.LogEntry{ID: id, Time: 1, Op: core.OpCreate, Name: name, Type: core.TypeRegular, Perm: 0o644})
}

func (r *ctlRig) pending() int {
	if r.dl == nil {
		return 0
	}
	return r.dl.log.Len()
}

// dirRaw is d's stored inode image.
func (r *ctlRig) dirRaw() []byte {
	var kb core.KeyBuf
	raw, _ := r.s.kv.Get(r.dir.Key.AppendTo(kb[:0]))
	return raw
}

// detachReq detaches d for a rename (move 5).
func (r *ctlRig) detachReq() wire.DetachDirReq {
	return wire.DetachDirReq{Key: r.dir.Key, Dir: r.dir.ID, Move: 5}
}

func (r *ctlRig) dirSize() int64 {
	var kb core.KeyBuf
	raw, _ := r.s.kv.Get(r.dir.Key.AppendTo(kb[:0]))
	in, err := core.DecodeInode(raw)
	if err != nil {
		return -1
	}
	return in.Size
}

// TestControlExchangeTable runs each control exchange's serve function on a
// bare server for the states its request can meet: the key present, absent,
// its group not served here (retry), and a deferred update of it pending.
// Every detach has ended once the run drained: a failed one at once, one that
// succeeded when no prepare came for it (its lapse).
func TestControlExchangeTable(t *testing.T) {
	retry := wire.CtlResp{Err: core.ErrnoRetry}
	raw := core.EncodeInode(&ctlFile)
	entry := core.DirEntry{Name: "x", Type: core.TypeRegular, Perm: 0o644}
	readX := func(flush bool) func(r *ctlRig, p *env.Proc) any {
		return func(r *ctlRig, p *env.Proc) any {
			return r.s.serveReadInode(p, wire.ReadInodeReq{Key: r.key, Flush: flush}, false)
		}
	}
	detachD := func(r *ctlRig, p *env.Proc) any { return r.s.serveDetachDir(p, r.detachReq(), false) }
	flushX := func(r *ctlRig, p *env.Proc) any {
		return r.s.serveFlushEntry(p, wire.FlushEntryReq{Key: r.key}, false)
	}
	status := func(r *ctlRig, p *env.Proc) any {
		return r.s.serveTxnStatus(p, wire.TxnStatusReq{Txn: 7}, false)
	}
	clone := func(r *ctlRig, p *env.Proc) any {
		return r.s.serveCloneInval(p, wire.CloneInvalReq{}, false)
	}
	for _, c := range []struct {
		what    string
		setup   func(r *ctlRig)
		serve   func(r *ctlRig, p *env.Proc) any
		want    any   // or a func(*ctlRig) any that returns it
		pending int   // entries left in d's change-log
		size    int64 // d's entry count afterwards
	}{
		{what: "ReadInode: present", setup: (*ctlRig).file, serve: readX(false),
			want: wire.ReadInodeResp{Raw: raw}},
		{what: "ReadInode: absent", serve: readX(false),
			want: wire.ReadInodeResp{CtlResp: wire.CtlResp{Err: core.ErrnoNotExist}}},
		{what: "ReadInode: not owned here",
			setup: func(r *ctlRig) { r.file(); r.disown(r.key.Fingerprint()) }, serve: readX(false),
			want: wire.ReadInodeResp{CtlResp: retry}},
		{what: "ReadInode: flush pending, delivered before the read",
			setup: func(r *ctlRig) { r.file(); r.logged(1, "x") }, serve: readX(true),
			want: wire.ReadInodeResp{Raw: raw}, size: 1},
		{what: "ReadInode: pending, no flush asked", setup: func(r *ctlRig) { r.file(); r.logged(1, "x") },
			serve: readX(false), want: wire.ReadInodeResp{Raw: raw}, pending: 1},

		{what: "DetachDir: present", setup: func(r *ctlRig) { r.s.putDentry(r.dir.ID, entry, true) }, serve: detachD,
			want: func(r *ctlRig) any { return wire.DetachDirResp{Raw: r.dirRaw(), Entries: []core.DirEntry{entry}} }},
		{what: "DetachDir: absent", setup: func(r *ctlRig) { r.s.storeInode(r.dir.Key, nil) }, serve: detachD,
			want: wire.DetachDirResp{CtlResp: wire.CtlResp{Err: core.ErrnoNotExist}}, size: -1},
		{what: "DetachDir: not owned here",
			setup: func(r *ctlRig) { r.s.putDentry(r.dir.ID, entry, true); r.logged(1, "y"); r.disown(r.dir.FP) },
			serve: detachD, want: wire.DetachDirResp{CtlResp: retry}, pending: 1},
		{what: "DetachDir: the key holds another directory", serve: func(r *ctlRig, p *env.Proc) any {
			req := r.detachReq()
			req.Dir = core.DirID{7}
			return r.s.serveDetachDir(p, req, false)
		}, want: wire.DetachDirResp{CtlResp: retry}},
		{what: "DetachDir: a pending entry is aggregated into the list", setup: func(r *ctlRig) { r.logged(1, "x") },
			serve: detachD, size: 1,
			want: func(r *ctlRig) any { return wire.DetachDirResp{Raw: r.dirRaw(), Entries: []core.DirEntry{entry}} }},

		{what: "FlushEntry: nothing pending", setup: (*ctlRig).file, serve: flushX, want: wire.FlushEntryResp{}},
		{what: "FlushEntry: not owned here", setup: func(r *ctlRig) { r.logged(1, "x"); r.disown(r.key.Fingerprint()) },
			serve: flushX, want: wire.FlushEntryResp{CtlResp: retry}, pending: 1},
		{what: "FlushEntry: pending, delivered", setup: func(r *ctlRig) { r.logged(1, "x") }, serve: flushX,
			want: wire.FlushEntryResp{}, size: 1},

		{what: "TxnStatus: committed", setup: func(r *ctlRig) { r.s.txnWAL[7] = txnCommit{lsn: 1} }, serve: status,
			want: wire.TxnStatusResp{Commit: true}},
		{what: "TxnStatus: still voting", setup: func(r *ctlRig) { r.s.txnVotes = []*coordTxn{{id: 7}} }, serve: status,
			want: wire.TxnStatusResp{Pending: true}},
		{what: "TxnStatus: not serving yet", setup: func(r *ctlRig) { r.s.serving = false }, serve: status,
			want: wire.TxnStatusResp{Pending: true}},
		{what: "TxnStatus: unknown, presumed abort", serve: status, want: wire.TxnStatusResp{}},

		{what: "CloneInval: a list", setup: func(r *ctlRig) { r.s.addInval(r.dir.ID) }, serve: clone,
			want: func(r *ctlRig) any {
				return wire.CloneInvalResp{Entries: []wire.InvalEntry{{Seq: r.s.ids.Boot() + 1, Dir: r.dir.ID}}}
			}},
		{what: "CloneInval: empty", serve: clone, want: wire.CloneInvalResp{}},
	} {
		r := newCtlRig(t)
		if c.setup != nil {
			c.setup(r)
		}
		var got any
		// After the start: an aggregation at the instant 0 would be as old as
		// a group never aggregated.
		r.sim.SpawnAfter(100, env.Microsecond, func(p *env.Proc) { got = c.serve(r, p) })
		r.sim.Run()
		want := c.want
		if f, ok := want.(func(*ctlRig) any); ok {
			want = f(r)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: replied %+v, want %+v", c.what, got, want)
		}
		if n := r.pending(); n != c.pending {
			t.Errorf("%s: %d entries left pending, want %d", c.what, n, c.pending)
		}
		if n := r.dirSize(); n != c.size {
			t.Errorf("%s: d counts %d entries, want %d", c.what, n, c.size)
		}
		if n := len(r.s.removals); n != 0 {
			t.Errorf("%s: %d detaches still registered", c.what, n)
		}
	}
}

// ctlPair is one control request served both ways: in place through rpc.Ask,
// and by packet through the server's dispatch.
type ctlPair struct {
	what    string
	setup   func(r *ctlRig)
	inPlace func(r *ctlRig, p *env.Proc) (any, error)
	body    func(r *ctlRig) wire.Control // the request as a packet carries it
	parsed  bool                         // the exchange parses a request that arrives
}

func pairOf[Q any, QP interface {
	*Q
	wire.Control
}, R interface{ Failure() error }](what string, setup func(*ctlRig), serve func(*Server, *env.Proc, Q, bool) R,
	req func(*ctlRig) Q, parsed bool) ctlPair {
	return ctlPair{what: what, setup: setup, parsed: parsed,
		inPlace: func(r *ctlRig, p *env.Proc) (any, error) {
			return rpc.Ask[*Server, Q, QP](r.s, p, r.s.cfg.ID, maxTries, serve, req(r))
		},
		body: func(r *ctlRig) wire.Control {
			q := QP(new(Q))
			*q = req(r)
			*q.Head() = wire.CtlReq{ID: 1, From: ctlFrom}
			return q
		}}
}

// TestControlExchangeInPlaceMatchesPacket serves the same request in place
// and by packet, each on a fresh server in the same state: the replies are
// equal, and so is the work charged — apart from the Parse an exchange that
// parses pays on arrival. A request by packet is timed from its dispatch to
// the instant its reply leaves.
func TestControlExchangeInPlaceMatchesPacket(t *testing.T) {
	entries := func(r *ctlRig) {
		for _, n := range []string{"a", "b", "c"} {
			r.s.putDentry(r.dir.ID, core.DirEntry{Name: n, Type: core.TypeRegular, Perm: 0o644}, true)
		}
	}
	pendingX := func(r *ctlRig) { r.file(); r.logged(1, "x") }
	for _, c := range []ctlPair{
		pairOf("ReadInode with a flush", pendingX, (*Server).serveReadInode,
			func(r *ctlRig) wire.ReadInodeReq { return wire.ReadInodeReq{Key: r.key, Flush: true} }, true),
		pairOf("DetachDir, a pending entry aggregated", func(r *ctlRig) { entries(r); r.logged(1, "x") },
			(*Server).serveDetachDir, (*ctlRig).detachReq, true),
		pairOf("DetachDir not owned here", func(r *ctlRig) { entries(r); r.disown(r.dir.FP) },
			(*Server).serveDetachDir, (*ctlRig).detachReq, true),
		pairOf("FlushEntry", pendingX, (*Server).serveFlushEntry,
			func(r *ctlRig) wire.FlushEntryReq { return wire.FlushEntryReq{Key: r.key} }, true),
		pairOf("TxnStatus", func(r *ctlRig) { r.s.txnWAL[7] = txnCommit{lsn: 1} }, (*Server).serveTxnStatus,
			func(*ctlRig) wire.TxnStatusReq { return wire.TxnStatusReq{Txn: 7} }, true),
		pairOf("CloneInval", func(r *ctlRig) { r.s.addInval(r.dir.ID) }, (*Server).serveCloneInval,
			func(*ctlRig) wire.CloneInvalReq { return wire.CloneInvalReq{} }, false),
	} {
		const at = env.Microsecond // when the request is served
		serve := func(byPacket bool) (any, env.Duration) {
			r := newCtlRig(t)
			if c.setup != nil {
				c.setup(r)
			}
			var got any
			var took env.Duration
			r.sim.SpawnAfter(100, at, func(p *env.Proc) {
				if !byPacket {
					got, _ = c.inPlace(r, p)
					took = env.Duration(p.Now() - env.Time(at))
					return
				}
				r.s.handle(p, ctlFrom, &wire.Packet{Dst: 100, Origin: ctlFrom, Body: c.body(r)})
			})
			r.sim.Run()
			if byPacket {
				if r.reply == nil {
					t.Fatalf("%s: no reply by packet", c.what)
				}
				if r.reply.Head().ID != 1 {
					t.Errorf("%s: the reply answers call %d, want 1", c.what, r.reply.Head().ID)
				}
				r.reply.Head().ID = 0
				got, took = reflect.ValueOf(r.reply).Elem().Interface(), env.Duration(r.sentAt-env.Time(at))
			}
			return got, took
		}
		local, localTook := serve(false)
		remote, remoteTook := serve(true)
		if !reflect.DeepEqual(local, remote) {
			t.Errorf("%s: in place replied %+v, by packet %+v", c.what, local, remote)
		}
		var arrival env.Duration
		if c.parsed {
			arrival = env.DefaultCosts().Parse
		}
		if remoteTook-localTook != arrival {
			t.Errorf("%s: charged %v in place and %v by packet, want %v apart", c.what, localTook, remoteTook, arrival)
		}
	}
}

// TestAskAllocatesOnlyItsPackets: served in place, a control exchange that
// reads nothing out of the store allocates nothing; asked of a peer, it
// allocates the packet of each try and nothing else.
func TestAskAllocatesOnlyItsPackets(t *testing.T) {
	r := newCtlRig(t)
	var local, remote float64
	var err error
	r.sim.SpawnAfter(100, env.Microsecond, func(p *env.Proc) {
		local = testing.AllocsPerRun(100, func() {
			_, err = rpc.Ask(r.s, p, 100, maxTries, (*Server).serveFlushEntry, wire.FlushEntryReq{Key: r.key})
		})
		// The peer (101) is absent: one try, unanswered.
		remote = testing.AllocsPerRun(100, func() {
			rpc.Ask(r.s, p, 101, 1, (*Server).serveFlushEntry, wire.FlushEntryReq{Key: r.key})
		})
	})
	r.sim.Run()
	if err != nil || local != 0 || remote != 1 {
		t.Errorf("in place: %v allocs (%v), to a peer: %v allocs; want 0, 1", local, err, remote)
	}
}
