package server

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"switchfs/internal/core"
	"switchfs/internal/datanode"
	"switchfs/internal/env"
	"switchfs/internal/ring"
	"switchfs/internal/wal"
	"switchfs/internal/wire"
)

const (
	rigSwitch env.NodeID = 1
	rigServer env.NodeID = 100
	rigClient env.NodeID = 9000
)

var rigData = datanode.NodeOf(0)

// rig is a bare metadata server (its own coordinator, with the calibrated
// service times), a bare data node holding every chunk alone, a switch stub
// that acknowledges each dirty-set insert and hands the client its copy of
// the response (legs 7a and 7b of Fig. 4), and a client that keeps every
// response body it receives.
type rig struct {
	sim  *env.Sim
	s    *Server
	d    *datanode.Server
	resp []wire.Msg
}

func newRig(t *testing.T) *rig {
	t.Helper()
	r := &rig{sim: env.NewSim(3)}
	t.Cleanup(r.sim.Shutdown)
	r.sim.AddNode(rigClient, env.NodeConfig{Handler: func(_ *env.Proc, _ env.NodeID, msg any) {
		r.resp = append(r.resp, msg.(*wire.Packet).Body)
	}})
	r.sim.AddNode(rigSwitch, env.NodeConfig{Handler: func(p *env.Proc, from env.NodeID, msg any) {
		if cn, ok := msg.(*wire.Packet).Body.(*wire.CommitNotice); ok {
			p.Send(cn.Client, &wire.Packet{Dst: cn.Client, Origin: rigSwitch, Body: cn.Resp})
			p.Send(from, &wire.Packet{Dst: from, Origin: rigSwitch, Body: &wire.CommitAck{CommitID: cn.CommitID}})
		}
	}})
	r.s = New(r.sim, Config{ID: rigServer, Coordinator: rigServer, Costs: env.DefaultCosts(),
		Ring:      ring.New([]uint32{0}, 0, func(uint32) env.NodeID { return rigServer }),
		Peers:     []env.NodeID{rigServer},
		SwitchFor: func(core.Fingerprint) env.NodeID { return rigSwitch }})
	r.d = datanode.New(r.sim, datanode.Config{Nodes: 1, Replication: 1, Costs: env.DefaultCosts()})
	return r
}

// send delivers body from the client to dst after the given delay, through
// the network and the node's dispatch.
func (r *rig) send(dst env.NodeID, at env.Duration, body wire.Msg) {
	r.sim.Spawn(rigClient, func(p *env.Proc) {
		p.Sleep(at)
		p.Send(dst, &wire.Packet{Dst: dst, Origin: rigClient, Body: body})
	})
}

// file stores a regular file under the root, with its entry.
func (r *rig) file(name string) {
	root := core.RootRef()
	r.s.storeInode(core.Key{PID: root.ID, Name: name}, &core.Inode{Attr: core.Attr{Type: core.TypeRegular, Perm: 0o644, Nlink: 1}})
	r.s.putDentry(root.ID, core.DirEntry{Name: name, Type: core.TypeRegular, Perm: 0o644}, true)
}

// TestDuplicatesAnsweredFromMemo sends every deduplicated request type
// through its node's dispatch three times: the original, a duplicate that
// arrives while the original executes — dropped, the original answers — and
// a duplicate that arrives after the reply, answered with the very response
// the memo recorded. Neither duplicate runs the handler again: the
// executions and the durable state (WAL records, chunk version) stay as the
// original left them.
func TestDuplicatesAnsweredFromMemo(t *testing.T) {
	root := core.RootRef()
	common := wire.ReqCommon{RPC: 1, Client: rigClient}
	type effects struct{ runs, durable uint64 }
	server := func(r *rig) effects { return effects{r.s.Stats.Ops, uint64(r.s.wal.Len())} }
	chunk := wire.ChunkKey{File: 7}
	rows := []struct {
		name  string
		dst   env.NodeID
		setup func(*rig)
		req   wire.Request
		state func(*rig) effects
	}{
		{"create", rigServer, nil,
			&wire.MutateReq{ReqCommon: common, Op: core.OpCreate, Parent: root, Name: "f"}, server},
		{"chmod", rigServer, func(r *rig) { r.file("f") },
			&wire.FileReq{ReqCommon: common, Op: core.OpChmod, Parent: root, Name: "f", Perm: 0o600}, server},
		{"rename", rigServer, func(r *rig) { r.file("src") },
			&wire.RenameReq{ReqCommon: common, SrcParent: root, SrcName: "src", DstParent: root, DstName: "dst"}, server},
		{"link", rigServer, func(r *rig) { r.file("src") },
			&wire.LinkReq{ReqCommon: common, SrcParent: root, SrcName: "src", DstParent: root, DstName: "ln"}, server},
		{"data write", rigData, nil,
			&wire.DataReq{ReqCommon: common, Op: core.OpWrite, Chunk: chunk, Bytes: 4096},
			func(r *rig) effects { return effects{r.d.Stats.Writes, r.d.ChunkVer(chunk)} }},
	}
	deduplicated := map[reflect.Type]bool{}
	for _, row := range rows {
		deduplicated[reflect.TypeOf(row.req)] = true
		t.Run(row.name, func(t *testing.T) {
			r := newRig(t)
			if row.setup != nil {
				row.setup(r)
			}
			r.send(row.dst, 0, row.req)
			r.send(row.dst, env.Nanosecond, row.req) // while the original executes
			r.sim.Run()
			if len(r.resp) != 1 {
				t.Fatalf("%d responses to the original and a duplicate in flight, want 1", len(r.resp))
			}
			if rc := reflect.ValueOf(r.resp[0]).Elem().FieldByName("RespCommon").Interface().(wire.RespCommon); rc.Err != core.ErrnoOK {
				t.Fatalf("original failed: %v", rc.Err.Err())
			}
			done := row.state(r)
			if done.runs != 1 {
				t.Fatalf("the handler ran %d times, want 1", done.runs)
			}
			r.send(row.dst, 0, row.req) // after the reply
			r.sim.Run()
			if len(r.resp) != 2 || r.resp[1] != r.resp[0] {
				t.Fatalf("the duplicate after the reply got %d responses, want the recorded one again", len(r.resp)-1)
			}
			if got := row.state(r); got != done {
				t.Fatalf("the duplicate after the reply moved (runs, durable state) %v -> %v", done, got)
			}
		})
	}

	// Every client route declares whether it is deduplicated, and each one
	// that is for some request has a row above (FileReq: chmod).
	t.Run("completeness", func(t *testing.T) {
		for typ, r := range routes {
			if typ.Kind() == reflect.Interface {
				continue // the control replies' route
			}
			_, embeds := typ.Elem().FieldByName("ReqCommon")
			if r.Client != embeds || (r.Dedup != nil) != embeds {
				t.Errorf("%v: client %v, dedup declared %v; it embeds ReqCommon: %v", typ, r.Client, r.Dedup != nil, embeds)
			}
			if !r.Client {
				continue
			}
			body := reflect.New(typ.Elem()).Interface().(wire.Msg)
			if fr, ok := body.(*wire.FileReq); ok {
				fr.Op = core.OpChmod
			}
			if r.Dedup(body) && !deduplicated[typ] {
				t.Errorf("%v is deduplicated but has no row", typ)
			}
		}
	})
}

// TestRetransmissionOutlivesOtherClients: a node remembers a client's answered
// request until that client acknowledges it, however many requests of other
// clients it takes up meanwhile. A create and a data write are answered, then
// 4 097 other clients' requests of the same kind arrive — more than a memo
// bounded at 4 096 requests keeps — and then the first request is
// retransmitted. It is replayed, not run again: a second create would fail
// with EEXIST, a second write would take a second version.
func TestRetransmissionOutlivesOtherClients(t *testing.T) {
	const others = 4097
	root := core.RootRef()
	chunk := wire.ChunkKey{File: 7}
	for _, c := range []struct {
		name  string
		dst   env.NodeID
		req   func(client env.NodeID, i int) wire.Msg
		check func(t *testing.T, r *rig)
	}{
		{"create", rigServer, func(client env.NodeID, i int) wire.Msg {
			return &wire.MutateReq{ReqCommon: wire.ReqCommon{RPC: 1, Client: client},
				Op: core.OpCreate, Parent: root, Name: fmt.Sprintf("f%d", i)}
		}, func(t *testing.T, r *rig) {
			if runs := r.s.Stats.Ops; runs != 1+others {
				t.Errorf("the handler ran %d times, want %d", runs, 1+others)
			}
		}},
		{"data write", rigData, func(client env.NodeID, i int) wire.Msg {
			return &wire.DataReq{ReqCommon: wire.ReqCommon{RPC: 1, Client: client},
				Op: core.OpWrite, Chunk: wire.ChunkKey{File: chunk.File + uint32(i)}, Bytes: 4096}
		}, func(t *testing.T, r *rig) {
			if v := r.d.ChunkVer(chunk); v != 1 || r.resp[1].(*wire.DataResp).Ver != 1 {
				t.Errorf("chunk at version %d, replayed version %d; want 1, 1", v, r.resp[1].(*wire.DataResp).Ver)
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := newRig(t)
			first := c.req(rigClient, 0)
			r.send(c.dst, 0, first)
			r.sim.Run()
			for i := 1; i <= others; i++ {
				r.send(c.dst, 0, c.req(rigClient+env.NodeID(i), i))
			}
			r.sim.Run()
			r.send(c.dst, 0, first)
			r.sim.Run()
			if len(r.resp) != 2 {
				t.Fatalf("%d responses to the request and its late retransmission, want 2", len(r.resp))
			}
			if rc := reflect.ValueOf(r.resp[1]).Elem().FieldByName("RespCommon").Interface().(wire.RespCommon); rc.Err != core.ErrnoOK {
				t.Errorf("the retransmission ran again and failed: %v", rc.Err.Err())
			}
			c.check(t, r)
			if r.resp[1] != r.resp[0] {
				t.Error("the retransmission was not answered with the recorded response")
			}
		})
	}
}

// holds reports whether the WAL holds a record of kind whose payload starts
// with id, a uvarint (a transaction's records), or, for id 0, any record of
// kind.
func holds(log *wal.Mem, kind uint8, id uint64) bool {
	found := false
	log.Replay(func(r wal.Record) error {
		if lead, _ := binary.Uvarint(r.Payload); r.Kind == kind && (id == 0 || lead == id) {
			found = true
		}
		return nil
	})
	return found
}

// TestLogBeforeSend checks the three messages that must not leave before
// their WAL record (DESIGN.md "Log, then send") at the instant each is sent,
// from a network filter: the prepared vote and the commit decision of a
// rename on a one-server deployment (its own coordinator and only
// participant), and the commit notice of a create.
func TestLogBeforeSend(t *testing.T) {
	root := core.RootRef()
	common := wire.ReqCommon{RPC: 1, Client: rigClient}
	for _, c := range []struct {
		name   string
		req    wire.Msg
		logged func(s *Server, msg wire.Msg) (sent, ok bool)
	}{
		{"prepared vote", &wire.RenameReq{ReqCommon: common, SrcParent: root, SrcName: "src", DstParent: root, DstName: "dst"},
			func(s *Server, msg wire.Msg) (bool, bool) {
				v, ok := msg.(*wire.TxnVote)
				if !ok || v.Err != core.ErrnoOK {
					return false, true
				}
				return true, holds(s.wal, recTxnPrepare, v.Txn)
			}},
		{"commit decision", &wire.RenameReq{ReqCommon: common, SrcParent: root, SrcName: "src", DstParent: root, DstName: "dst"},
			func(s *Server, msg wire.Msg) (bool, bool) {
				d, ok := msg.(*wire.TxnDecision)
				if !ok || !d.Commit {
					return false, true
				}
				return true, holds(s.wal, recTxnCommit, d.Txn)
			}},
		{"commit notice", &wire.MutateReq{ReqCommon: common, Op: core.OpCreate, Parent: root, Name: "f"},
			func(s *Server, msg wire.Msg) (bool, bool) {
				if _, ok := msg.(*wire.CommitNotice); !ok {
					return false, true
				}
				return true, holds(s.wal, recCommit, 0)
			}},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := newRig(t)
			r.file("src")
			sent := 0
			r.sim.Net().Filter = func(from, _ env.NodeID, msg any) env.Verdict {
				if from != rigServer {
					return env.Pass
				}
				if isSent, ok := c.logged(r.s, msg.(*wire.Packet).Body); isSent {
					sent++
					if !ok {
						t.Errorf("%T left before its WAL record", msg.(*wire.Packet).Body)
					}
				}
				return env.Pass
			}
			r.send(rigServer, 0, c.req)
			r.sim.Run()
			if sent == 0 {
				t.Fatalf("no %s was sent", c.name)
			}
		})
	}
}
