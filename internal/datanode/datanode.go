// Package datanode implements the SwitchFS data-plane server: the nodes the
// end-to-end workloads (§7.6) route file content to. Content is modeled as
// versioned chunks — one chunk per (file, stripe) — striped across the data
// nodes by the DataLoc slots the metadata server assigns at create time.
//
// Each chunk lives on r replicas (its primary plus the next r−1 placement
// slots in ring order). A write is addressed to the chunk's primary, which
// assigns the next version, applies locally, replicates to the backups, and
// acknowledges the client only after every backup applied — the durability
// contract the chaos data oracle checks: an acknowledged write must survive
// any ≤ r−1 data-node fail-stops.
//
// Data nodes have no WAL: a fail-stop loses the volatile chunk store, and
// durability comes from replication alone. Recovery pulls the records the
// restarted node is a replica of back from its peers (re-replication of
// under-replicated stripes) before the node serves again.
//
// Client requests are deduplicated per (client, RPC) with the metadata
// servers' window (rpc.Window, §5.4.1): a retransmitted DataReq replays the
// recorded response instead of re-executing, so duplicated or reordered
// packets cannot bump a chunk's version twice. Replication packets need no
// memo — backups apply by version comparison, which is idempotent. The
// primary's replication rounds wait through the metadata servers' retried
// call (rpc.Calls), and a recovering node's pull is a control exchange, as
// the metadata servers' are (rpc.Ask, servePull).
package datanode

import (
	"cmp"
	"fmt"
	"slices"

	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/rpc"
	"switchfs/internal/trace"
	"switchfs/internal/wire"
)

// Config parameterizes one data node.
type Config struct {
	ID env.NodeID
	// Slot is this node's placement slot index in [0, Nodes).
	Slot int
	// Nodes is the deployed data-node count (the placement ring size).
	Nodes int
	// Replication is r: a chunk lives on its primary plus r−1 backups.
	Replication int
	Cores       int
	Costs       env.Costs
	// NodeOf maps a placement slot to a node id.
	NodeOf func(slot int) env.NodeID
	// RetryTimeout paces replication and recovery-pull retransmissions.
	RetryTimeout env.Duration
	// Trace records handler and replication spans (nil: tracing off).
	Trace *trace.Recorder
}

// Defaults fills zero fields.
func (c *Config) Defaults() {
	if c.Cores == 0 {
		c.Cores = 4
	}
	if c.Replication == 0 {
		c.Replication = 2
	}
	if c.Replication > c.Nodes && c.Nodes > 0 {
		c.Replication = c.Nodes
	}
	if c.RetryTimeout == 0 {
		c.RetryTimeout = 2 * env.Millisecond
	}
}

// maxRepRetries bounds a primary's replication retransmissions: a backup
// that stays down past the budget leaves the write unacknowledged (the
// client has long timed out) and the in-flight dedup marker is released so
// a later retransmission can re-execute.
const maxRepRetries = 200

// maxPullRetries bounds recovery-pull retransmissions per peer. An
// unreachable peer is skipped: its records are only at risk if every other
// replica is also down, which the chaos harness classifies as a wipe.
const maxPullRetries = 8

// chunkRec is one stored chunk: the highest applied version, the highest
// COMMITTED (fully replicated) version — the only one reads may serve — the
// modeled length of each, and the primary slot whose stripe set the record
// belongs to.
type chunkRec struct {
	ver       uint64
	bytes     int64
	committed uint64
	cbytes    int64
	primary   uint32
}

type dedupKey struct {
	client env.NodeID
	rpc    uint64
}

// Stats counts data-plane activity (deterministic under Sim).
type Stats struct {
	Reads        uint64
	Writes       uint64
	Replicated   uint64 // backup-side applies
	Retries      uint64
	PulledChunks uint64 // records installed during recovery
}

// Server is one data node.
type Server struct {
	cfg  Config
	env  *env.Sim
	node *env.Node

	store map[wire.ChunkKey]chunkRec
	// served remembers the last 4 096 client RPCs taken up (§5.4.1).
	served *rpc.Window[dedupKey, wire.Msg]
	// rpc waits for peers: replication rounds and recovery pulls, under ids
	// from ids, this incarnation's identifier source.
	rpc rpc.Calls
	ids core.Incarnation

	serving bool
	// dead marks a fail-stopped incarnation: its in-flight processes must
	// unwind without replying or acking (a restarted successor owns the
	// node id).
	dead bool

	Stats Stats
}

// New builds a data node and registers it with the environment.
func New(e *env.Sim, cfg Config) *Server {
	cfg.Defaults()
	s := &Server{
		cfg:     cfg,
		env:     e,
		store:   make(map[wire.ChunkKey]chunkRec),
		served:  rpc.NewWindow[dedupKey, wire.Msg](4096),
		serving: true,
	}
	s.ids = core.NewIncarnation(uint64(cfg.ID), uint64(e.Now()))
	s.rpc = rpc.NewCalls(cfg.ID, &s.ids, s.send, cfg.RetryTimeout, &s.dead, &s.Stats.Retries)
	s.node = e.AddNode(cfg.ID, env.NodeConfig{Cores: cfg.Cores, Handler: s.handle})
	return s
}

// ID returns the node id.
func (s *Server) ID() env.NodeID { return s.cfg.ID }

// Node returns the env node.
func (s *Server) Node() *env.Node { return s.node }

// Slot returns the placement slot.
func (s *Server) Slot() int { return s.cfg.Slot }

// Chunks reports the stored chunk count (diagnostics and tests).
func (s *Server) Chunks() int {
	return len(s.store)
}

// ChunkVer returns the stored version of a chunk (0 when absent).
func (s *Server) ChunkVer(k wire.ChunkKey) uint64 {
	return s.store[k].ver
}

// Crash simulates a fail-stop: the node drops off the network and the
// volatile chunk store is lost with this incarnation. Restart builds the
// successor.
func (s *Server) Crash() {
	s.serving = false
	s.dead = true
	s.node.SetDown(true)
}

// Restart builds a fresh (empty) data node over the same id. The caller
// then runs Recover on a process to re-replicate before it serves.
func Restart(e *env.Sim, cfg Config) *Server {
	s := New(e, cfg)
	s.serving = false
	return s
}

// Recover re-replicates this node's stripes: every peer is asked for the
// chunk records whose replica set includes this slot, newest version wins.
// Unreachable peers are skipped after a bounded retry budget — their
// records are only lost if every replica was down at once — but a pull that
// reaches NO peer fails the recovery outright. Serving resumes when the
// pull completes, so a half-recovered store is never read.
func (s *Server) Recover(p *env.Proc) error {
	s.serving = false
	reached := 0
	for slot := 0; slot < s.cfg.Nodes; slot++ {
		if slot == s.cfg.Slot {
			continue
		}
		pulled, err := rpc.Ask(s, p, s.cfg.NodeOf(slot), maxPullRetries, (*Server).servePull,
			wire.DataPullReq{Slot: uint32(s.cfg.Slot)})
		if err != nil {
			continue // peer down; replication covers unless wiped
		}
		reached++
		for _, rec := range pulled.Chunks {
			if rec.Ver > s.store[rec.Chunk].ver {
				s.store[rec.Chunk] = chunkRec{ver: rec.Ver, bytes: rec.Bytes,
					committed: rec.Ver, cbytes: rec.Bytes, primary: rec.Primary}
				s.Stats.PulledChunks++
			}
		}
	}
	if s.cfg.Nodes > 1 && reached == 0 {
		// No peer answered: nothing was re-replicated, and serving an empty
		// store would read acked chunks as version 0. Recovery fails; the
		// caller re-fail-stops the node and a later attempt retries.
		return fmt.Errorf("datanode %d: recovery pull reached no peer", s.cfg.Slot)
	}
	s.serving = true
	return nil
}

// replicaSlots returns the placement slots holding a chunk whose primary
// sits at slot p: p and the next r−1 slots in ring order.
func replicaSlots(p uint32, nodes, r int) []int {
	if r > nodes {
		r = nodes
	}
	out := make([]int, 0, r)
	for i := 0; i < r; i++ {
		out = append(out, (int(p)+i)%nodes)
	}
	return out
}

// holdsSlot reports whether slot is in the replica set of a chunk with the
// given primary slot.
func holdsSlot(primary uint32, nodes, r, slot int) bool {
	for _, sl := range replicaSlots(primary, nodes, r) {
		if sl == slot {
			return true
		}
	}
	return false
}

// PrimarySlot maps a chunk key to its default primary placement slot — the
// hash used when no DataLoc placement is available. lincheck's chunk ops
// address their primary with it.
func PrimarySlot(chunk wire.ChunkKey, nodes int) int {
	if nodes <= 0 {
		return 0
	}
	h := uint64(chunk.File)*0x9E3779B1 + uint64(chunk.Stripe)*0x85EBCA77
	return int(h % uint64(nodes))
}

// StripeSlot maps stripe s of a file with DataLoc placement loc onto a data
// slot: loc[s mod len(loc)], clamped into the deployed ring. This is THE
// striping rule — File.Write and the figure harnesses share it.
func StripeSlot(loc []uint32, stripe, nodes int) int {
	if nodes <= 0 || len(loc) == 0 {
		return 0
	}
	return int(loc[stripe%len(loc)]) % nodes
}

// routes is the data node's dispatch table (DESIGN.md "One dispatch"): a
// span name where the node opens one, and whether a message is a client
// request and, if so, deduplicated.
var routes rpc.Routes[*Server]

func init() {
	routes = rpc.NewRoutes(
		// Every chunk access is deduplicated, reads included.
		rpc.Client("data:io", rpc.Always, (*Server).handleData),
		// Replication flows even while recovering: applies are idempotent
		// by version and keep the store converging.
		rpc.Peer("data:rep", (*Server).handleRep),
		rpc.Peer("", func(s *Server, _ *env.Proc, _ *wire.Packet, m *wire.DataRepAck) { s.rpc.Answer(m.Seq, m.From, nil) }),
		rpc.Exchange("", (*Server).servePull),
		rpc.Replies[*Server](""),
	)
}

// handle is the env message handler: the one dispatch of every message the
// node receives. A deduplicated client request passes the replay-or-begin
// step (rpc.Window.Admit) over the served window before its handler runs.
func (s *Server) handle(p *env.Proc, _ env.NodeID, msg any) {
	pkt, ok := msg.(*wire.Packet)
	if !ok {
		return
	}
	r := routes.Of(pkt.Body)
	if r == nil || r.Client && !s.serving {
		// A recovering node must not serve reads of a half-pulled store (a
		// wiped chunk would read as version 0 — a lost acknowledged write).
		// Dropping makes the client retry.
		return
	}
	if r.Name != "" {
		sp := s.cfg.Trace.StartSpan(p, pkt.Trace, r.Name, "data")
		defer sp.End()
	}
	if r.Client && r.Dedup(pkt.Body) {
		req := pkt.Body.(wire.Request).Common()
		replay := func(resp wire.Msg) { s.reply(p, req.Client, resp) }
		if !s.served.Admit(dedupKey{client: req.Client, rpc: req.RPC}, replay) {
			return
		}
	}
	r.Serve(s, p, pkt)
}

// handleData serves one client chunk access.
func (s *Server) handleData(p *env.Proc, _ *wire.Packet, req *wire.DataReq) {
	p.Compute(s.cfg.Costs.DataIO)
	resp := &wire.DataResp{RespCommon: wire.RespCommon{RPC: req.RPC}}
	switch req.Op {
	case core.OpRead:
		// Reads serve the committed version only: an applied-but-not-yet-
		// replicated write is still at the mercy of a single fail-stop, and
		// surfacing it would let a reader observe content that then
		// vanishes under <= r-1 failures.
		rec := s.store[req.Chunk]
		s.Stats.Reads++
		resp.Ver, resp.Bytes = rec.committed, rec.cbytes
	case core.OpWrite:
		rec := s.store[req.Chunk]
		ver := rec.ver + 1
		rec.ver, rec.bytes, rec.primary = ver, req.Bytes, uint32(s.cfg.Slot)
		s.store[req.Chunk] = rec
		s.Stats.Writes++
		if err := s.replicate(p, req.Chunk, ver, req.Bytes); err != nil {
			// Not durably replicated: never acknowledge (and never serve —
			// the committed watermark stays put). Release the in-flight
			// marker so a post-heal retransmission re-executes
			// (at-least-once; the fresh attempt assigns a newer version).
			s.served.Delete(dedupKey{client: req.Client, rpc: req.RPC})
			return
		}
		s.commit(req.Chunk, ver, req.Bytes)
		resp.Ver = ver
	default:
		resp.Err = core.ErrnoOf(core.ErrInvalid)
	}
	s.served.Put(dedupKey{client: req.Client, rpc: req.RPC}, resp)
	s.reply(p, req.Client, resp)
}

// commit advances a chunk's committed watermark after replication.
func (s *Server) commit(chunk wire.ChunkKey, ver uint64, bytes int64) {
	rec := s.store[chunk]
	if ver > rec.committed {
		rec.committed, rec.cbytes = ver, bytes
		s.store[chunk] = rec
	}
}

// replicate ships one chunk version to the backups and waits for every ack,
// retransmitting to the stragglers.
func (s *Server) replicate(p *env.Proc, chunk wire.ChunkKey, ver uint64, bytes int64) error {
	r := s.cfg.Replication
	if r <= 1 || s.cfg.Nodes <= 1 {
		return nil
	}
	rsp := s.cfg.Trace.Start(p, "data:replicate", "data")
	defer rsp.End()
	var backups []env.NodeID
	for _, slot := range replicaSlots(uint32(s.cfg.Slot), s.cfg.Nodes, r)[1:] {
		backups = append(backups, s.cfg.NodeOf(slot))
	}
	slices.Sort(backups)
	seq := s.ids.Next()
	acks := s.rpc.Await(seq, backups)
	defer s.rpc.End(seq)
	if _, ok := s.rpc.Call(p, &acks.Done, maxRepRetries, func() {
		for _, n := range acks.Expect {
			replyNew(s, p, n, wire.DataRepReq{
				Seq: seq, From: s.cfg.ID, Primary: uint32(s.cfg.Slot),
				Chunk: chunk, Ver: ver, Bytes: bytes,
			})
		}
	}, nil); !ok {
		return core.ErrTimeout
	}
	return nil
}

// handleRep applies a replicated chunk version on a backup (idempotent by
// version) and always acks, so the primary unblocks even on duplicates.
func (s *Server) handleRep(p *env.Proc, _ *wire.Packet, req *wire.DataRepReq) {
	if req.Ver > s.store[req.Chunk].ver {
		p.Compute(s.cfg.Costs.DataIO)
		if req.Ver > s.store[req.Chunk].ver {
			// A replica copy is commit-grade: the primary only ships
			// versions it is about to ack, and a pulled copy must be
			// servable after the puller becomes primary again.
			s.store[req.Chunk] = chunkRec{ver: req.Ver, bytes: req.Bytes,
				committed: req.Ver, cbytes: req.Bytes, primary: req.Primary}
			s.Stats.Replicated++
		}
	}
	replyNew(s, p, req.From, wire.DataRepAck{Seq: req.Seq, From: s.cfg.ID})
}

// servePull answers a recovery pull: every stored record whose replica set
// includes the requester's slot, sorted for determinism.
func (s *Server) servePull(p *env.Proc, req wire.DataPullReq, _ bool) wire.DataPullResp {
	var recs []wire.ChunkRec
	for k, rec := range s.store {
		if rec.committed == 0 {
			continue // an uncommitted apply is not durable state to copy
		}
		if holdsSlot(rec.primary, s.cfg.Nodes, s.cfg.Replication, int(req.Slot)) {
			recs = append(recs, wire.ChunkRec{Chunk: k, Ver: rec.committed, Bytes: rec.cbytes, Primary: rec.primary})
		}
	}
	slices.SortFunc(recs, func(a, b wire.ChunkRec) int {
		return cmp.Or(cmp.Compare(a.Chunk.File, b.Chunk.File), cmp.Compare(a.Chunk.Stripe, b.Chunk.Stripe))
	})
	// Transfer cost scales with the volume re-replicated.
	p.Compute(env.Duration(len(recs)) * s.cfg.Costs.DataIO / 8)
	return wire.DataPullResp{Chunks: recs}
}

// Calls returns this incarnation's calls (rpc.Node).
func (s *Server) Calls() *rpc.Calls { return &s.rpc }

// reply sends a client's response, built before and remembered in the served
// window, in a packet of its own: the window never pins a packet per entry.
// Every other message is carved with its packet (replyNew).
func (s *Server) reply(p *env.Proc, to env.NodeID, resp wire.Msg) {
	s.send(p, &wire.Packet{Dst: to, Origin: s.cfg.ID, Body: resp})
}

// replyNew sends a body given by value: the packet and its copy of the body
// are one allocation (wire.NewPacket).
func replyNew[B any, P interface {
	*B
	wire.Msg
}](s *Server, p *env.Proc, to env.NodeID, body B) {
	pkt, b := wire.NewPacket[B, P](to, s.cfg.ID)
	*b = body
	s.send(p, pkt)
}

// send stamps a packet with the trace context and sends it to pkt.Dst, unless
// this incarnation fail-stopped.
func (s *Server) send(p *env.Proc, pkt *wire.Packet) {
	if s.dead {
		return
	}
	pkt.Trace = p.TraceCtx()
	p.Send(pkt.Dst, pkt)
}
