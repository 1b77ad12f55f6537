// Package server implements the SwitchFS metadata server (paper §4.2, §5):
// asynchronous double-inode operations with per-directory change-logs,
// directory reads with switch-coordinated aggregation, change-log compaction,
// proactive aggregation, lazy client-cache invalidation, rename and hard-link
// transactions, and WAL-based crash recovery.
package server

import (
	"cmp"
	"slices"
	"sort"
	"strings"

	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/kv"
	"switchfs/internal/ring"
	"switchfs/internal/rpc"
	"switchfs/internal/trace"
	"switchfs/internal/wal"
	"switchfs/internal/wire"
)

// TrackerMode selects where directory dirty state is tracked (§7.3.3).
type TrackerMode uint8

// Tracker modes.
const (
	// TrackerSwitch uses the in-network dirty set (the SwitchFS design).
	TrackerSwitch TrackerMode = iota
	// TrackerServer uses a dedicated server speaking the switch's packet
	// protocol; the server code is unchanged (Fig. 15).
	TrackerServer
	// TrackerOwner tracks each directory's state on its owner server,
	// doubling the packets on the update path (Fig. 16).
	TrackerOwner
)

// UpdateMode is how a double-inode operation updates its parent directory:
// one row of Fig. 14's contribution breakdown (§7.3.1).
type UpdateMode uint8

// Update modes; the zero value is the full design.
const (
	UpdateCompacted UpdateMode = iota // deferred, the log compacted before it applies (§5.3): "+Compaction"
	UpdateAsync                       // deferred, the log applied entry by entry: "+Async"
	UpdateSync                        // synchronous cross-server update before the reply: "Baseline"
)

// Config parameterizes one metadata server.
type Config struct {
	ID    env.NodeID
	Cores int
	Costs env.Costs
	// Ring is the shared versioned placement ring (consistent hash +
	// per-fingerprint migration overrides). All ownership decisions route
	// through it, so a control-plane override re-routes this server's
	// traffic in the same virtual instant it lands.
	Ring *ring.Ring
	// Peers lists every metadata server NodeID (including this one).
	Peers []env.NodeID
	// SwitchFor returns the switch (or tracker) responsible for a
	// fingerprint; multi-rack deployments range-partition fingerprints over
	// switches (§6.4).
	SwitchFor func(core.Fingerprint) env.NodeID
	// Coordinator is the rename/reconfiguration coordinator's NodeID.
	Coordinator env.NodeID
	WAL         *wal.Mem
	Tracker     TrackerMode
	// DataNodes is the deployed data-node count. When nonzero, creates
	// assign the file's content placement: a DataLoc slot list the client
	// stripes chunks across (returned at Open, §7.6).
	DataNodes int
	// Updates picks the Fig. 14 row; zero is the full design.
	Updates UpdateMode

	// PushEntries is the MTU-fill threshold of proactive change-log pushes
	// (the paper's implementation bounds per-server aggregation work to 29
	// entries, §7.5).
	PushEntries int
	// PushIdle is the change-log idle interval that triggers a push.
	PushIdle env.Duration
	// OwnerQuiesce is how long the owner waits after the last push before
	// proactively aggregating (§5.3).
	OwnerQuiesce env.Duration
	// RetryTimeout is the RPC retransmission timeout (§5.4.1).
	RetryTimeout env.Duration
	// Trace records handler/WAL/2PC/aggregation spans (nil: tracing off).
	Trace *trace.Recorder
}

// Defaults fills zero fields.
func (c *Config) Defaults() {
	if c.Cores == 0 {
		c.Cores = 4
	}
	if c.PushEntries == 0 {
		c.PushEntries = 29
	}
	if c.PushIdle == 0 {
		c.PushIdle = 200 * env.Microsecond
	}
	if c.OwnerQuiesce == 0 {
		c.OwnerQuiesce = 300 * env.Microsecond
	}
	if c.RetryTimeout == 0 {
		c.RetryTimeout = 2 * env.Millisecond
	}
}

// dirLog is one remote directory's change-log plus its protocol lock.
//
// The protocol lock is a reader–writer lock: concurrent updates to the same
// directory hold it SHARED (their appends commute — the contention-mitigation
// point of §4.1/§5.3; per-name ordering is already serialized by the target
// inode's exclusive lock), while an aggregation fetch holds it EXCLUSIVE so
// it snapshots a stable log (§5.2.2 step 6).
type dirLog struct {
	ref  core.DirRef
	lock env.RWMutex
	log  core.ChangeLog
	// walLSN maps entry ID → WAL record, for applied-marking.
	walLSN map[uint64]wal.LSN
	// idle triggers proactive pushes (§5.3).
	idle *env.Timer
	// pushing guards against concurrent proactive pushes of the same log.
	pushing bool
	// heldBy, when nonzero, is the aggregation currently holding the
	// exclusive protocol lock pending the owner's ack (§5.2.2 step 9a).
	heldBy uint64
	// flushes are the waits for the owner to acknowledge the log through an
	// entry id (deliver, flushLog); ackEntries settles those it covers, and a
	// delivery that gives up fails the flushLog ones.
	flushes []logFlush
}

// logFlush waits for a change-log to be acknowledged through an entry id; done
// completes with whether the directory's owner acknowledged it. push marks a
// delivery's own wait.
type logFlush struct {
	through uint64
	done    *env.Future
	push    bool
}

// fpState serializes aggregations per fingerprint group and blocks directory
// reads while one is in flight (§5.2.2 "Aggregation and reply").
type fpState struct {
	aggActive bool
	// lastStart is the virtual time the most recent aggregation started
	// (its remove was issued at or after this instant).
	lastStart env.Time
	// lastIncomplete records that the most recent aggregation gave up on an
	// unreachable peer: the applied state may miss acknowledged entries, so
	// reads must not serve it as the directory.
	lastIncomplete bool
	cond           env.Cond
	mu             env.Mutex
}

// aggCtx is an in-flight aggregation this server owns: it awaits every peer's
// entries.
type aggCtx struct {
	rpc.Awaiting
	id   uint64
	fp   core.Fingerprint
	logs []aggLog
}

// aggLog tags one directory's pending change-log with the server that holds
// it, so acks and exactly-once watermarks are per source. applyBatch fills
// the last two fields.
type aggLog struct {
	from env.NodeID
	log  wire.DirLog
	// mark is the (from, directory) watermark the batch filtered against.
	mark uint64
	// maxID is the largest entry id seen, applied or deduplicated: the source
	// may trim through it.
	maxID uint64
}

// Server is one metadata server.
type Server struct {
	cfg  Config
	env  *env.Sim
	node *env.Node
	kv   *kv.Store
	wal  *wal.Mem
	// walBuf is the one buffer every WAL record is encoded into, reused from
	// record to record: the encoders append to walBuf[:0] and the grown
	// buffer is kept. That is safe because Append copies the payload, and
	// because a record is encoded and appended in one event, with no park in
	// between, so no other process can encode into it meanwhile.
	walBuf []byte

	// In-memory indexes. locks holds the inode locks of the operations in
	// flight (lockOf); freeLocks keeps released ones for reuse.
	locks     map[core.Key]*keyLock
	freeLocks []*keyLock
	clogs     map[core.DirID]*dirLog
	clogsByFP map[core.Fingerprint]map[core.DirID]*dirLog
	fps       map[core.Fingerprint]*fpState
	// removals holds, per directory key an rmdir or a directory rename is
	// detaching, the detach in flight, registered from before it plants its
	// invalidation: lookups of the key wait it out (handleLookup).
	removals map[core.Key]*detachment

	// Invalidation list (§5.2): append-only within a run. Its sequence starts
	// at the incarnation's boot instant, above every predecessor's.
	invalSeq uint64
	inval    []wire.InvalEntry
	invalSet map[core.DirID]uint64

	// Per-(source, directory) high-watermark of applied change-log entry
	// ids: the exactly-once guard of §A.1.
	applied map[appliedKey]uint64

	// dirOps tallies client operations per target directory (observability;
	// exported via DirOps for the metrics registry's hottest-directory view).
	dirOps map[core.DirID]uint64
	// fpOps tallies client operations per fingerprint group — the balancer's
	// migration-unit view of the same heat (a fingerprint is what moves).
	fpOps map[core.Fingerprint]uint64

	// busy counts in-flight client operations per fingerprint group; a
	// migration waits for the count to reach zero (FPQuiescent) before
	// copying, so no op straddles the move.
	busy map[core.Fingerprint]int
	// gates holds arrival gates for fingerprints mid-migration INTO this
	// server: requests that already route here (the ring override landed)
	// wait on the gate instead of failing fast against a not-yet-copied
	// group. UnblockFP completes the future.
	gates map[core.Fingerprint]*env.Future

	// Pending protocol contexts. rpc waits for peers and registers the plain
	// request/response exchanges (commit acks, control replies, decision
	// acks), keyed by ids drawn from ids. aggs holds the aggregations this
	// incarnation owns until their acks are sent; a late peer is re-acked
	// from the applied watermarks (ackLog). served remembers the client RPCs
	// this incarnation took up until their clients acknowledge them
	// (§5.4.1).
	rpc      rpc.Calls
	aggs     map[uint64]*aggCtx
	peerAggs map[uint64]*peerAggState
	served   rpc.Served[wire.Msg]

	// Owner-side quiesce timers for proactive aggregation.
	quiesce map[core.Fingerprint]*env.Timer

	// Owner-tracker mode: fingerprints dirtied on this owner (Fig. 16).
	ownerDirty map[core.Fingerprint]bool

	// ids issues every identifier of this incarnation: call, transaction,
	// aggregation, change-log entry and remove ids, and DirIDs.
	ids core.Incarnation

	// txns holds participant state for 2PC (rename, links, migration);
	// prepares remembers, per coordinator, the prepares taken up and, once
	// each voted, its vote (replayed to a retransmission) until the
	// coordinator acknowledges the round; txnVotes holds the coordinator's
	// open prepare rounds, ascending by id; renameMu serializes the
	// lock-acquiring half of coordinated transactions cluster-wide (the
	// centralized rename coordinator of §5.2), and deciding is held shared by
	// each transaction that left renameMu until its decision round ends, so a
	// directory rename can wait them out.
	txns     map[uint64]*txnState
	prepares rpc.Served[core.Errno]
	txnVotes []*coordTxn
	// txnWAL holds the coordinator-side commit decisions, by their WAL
	// record, for the participant termination protocol (TxnStatusReq): each
	// is logged (with the participant set) before the first decision packet
	// leaves, so a restarted coordinator still answers — and re-drives — it;
	// anything absent is a presumed abort. Entries retire once every
	// participant acked the decision.
	txnWAL map[uint64]wal.LSN
	// txnRedrive holds replayed, unacknowledged commit decisions awaiting
	// re-delivery during recovery; txnRearm holds replayed, undecided
	// prepared transactions awaiting lock/vote/monitor rebuild.
	txnRedrive []txnRedrive
	txnRearm   []txnRearm
	renameMu   env.Mutex
	deciding   env.RWMutex

	serving bool
	// parked holds the client requests that arrived while !serving — the
	// latest copy per (client, rpc), in arrival order of the first — until
	// SetServing(true) re-dispatches them. Volatile: Crash discards it.
	parked   []parkedReq
	parkedAt map[dedupKey]int
	// dead marks a fail-stopped incarnation: its processes must unwind
	// instead of retrying into a restarted successor.
	dead bool
	// recovering marks §5.4.2 recovery in progress — its re-pushes and
	// forced aggregations must not cross a reconfiguration's ring remap.
	recovering bool

	Stats Stats
}

type appliedKey struct {
	src env.NodeID
	dir core.DirID
}

// txnRedrive is one commit decision rebuilt from the WAL whose acks the
// crashed incarnation never finished collecting (its record is in txnWAL).
type txnRedrive struct {
	txn   uint64
	parts []env.NodeID
}

// txnRearm is one prepared, undecided transaction rebuilt from the WAL.
type txnRearm struct {
	txn   uint64
	coord env.NodeID
	ops   []wire.TxnOp
	lsn   wal.LSN
}

type dedupKey struct {
	client env.NodeID
	rpc    uint64
}

// parkedReq is one client request held while the server is not serving.
type parkedReq struct {
	from env.NodeID
	pkt  *wire.Packet
}

// Stats counts server-side protocol activity.
type Stats struct {
	Ops          uint64
	AsyncCommits uint64
	SyncCommits  uint64
	Fallbacks    uint64
	Aggregations uint64
	AggEntries   uint64
	Pushes       uint64
	Retries      uint64
	Orphans      uint64

	// §5.4.2 recovery by phase (virtual µs), the redo pass in records and in
	// records on its critical path.
	RecoverRedoUs, RecoverRedeliverUs, RecoverAggregateUs, RecoverCloneUs uint64
	RecoverRedoRecords, RecoverRedoLongestLane                            uint64
	// Requests held while not serving, retransmissions that replaced a held
	// copy, and empty acks that released a predecessor's aggregation.
	Parked, ParkedSuperseded, AggReleased uint64
	// Pre-flushes (a transaction's of a name, a migration source's of a log)
	// that found a deferred update pending and waited for its delivery, and
	// the pushes they had to start themselves (the rest shared a push or an
	// aggregation already in flight).
	RenameFlushes, RenameFlushPushes uint64
	// WAL records appended and their payload bytes.
	WALRecords, WALBytes uint64
}

// New builds a server and registers its node with the environment.
func New(e *env.Sim, cfg Config) *Server {
	cfg.Defaults()
	s := &Server{
		cfg:        cfg,
		env:        e,
		kv:         kv.New(),
		wal:        cfg.WAL,
		locks:      make(map[core.Key]*keyLock),
		clogs:      make(map[core.DirID]*dirLog),
		clogsByFP:  make(map[core.Fingerprint]map[core.DirID]*dirLog),
		fps:        make(map[core.Fingerprint]*fpState),
		removals:   make(map[core.Key]*detachment),
		invalSet:   make(map[core.DirID]uint64),
		applied:    make(map[appliedKey]uint64),
		dirOps:     make(map[core.DirID]uint64),
		fpOps:      make(map[core.Fingerprint]uint64),
		busy:       make(map[core.Fingerprint]int),
		gates:      make(map[core.Fingerprint]*env.Future),
		aggs:       make(map[uint64]*aggCtx),
		quiesce:    make(map[core.Fingerprint]*env.Timer),
		ownerDirty: make(map[core.Fingerprint]bool),
		txns:       make(map[uint64]*txnState),
		txnWAL:     make(map[uint64]wal.LSN),
		peerAggs:   make(map[uint64]*peerAggState),
		serving:    true,
	}
	if s.wal == nil {
		s.wal = wal.NewMem()
	}
	s.ids = core.NewIncarnation(uint64(cfg.ID), uint64(e.Now()))
	s.rpc = rpc.NewCalls(cfg.ID, &s.ids, s.send, cfg.RetryTimeout, &s.dead, &s.Stats.Retries)
	s.invalSeq = s.ids.Boot()
	s.node = e.AddNode(cfg.ID, env.NodeConfig{Cores: cfg.Cores, Handler: s.handle})
	s.bootstrapRoot()
	return s
}

// bootstrapRoot creates the root directory inode on its owner.
func (s *Server) bootstrapRoot() {
	root := core.RootRef()
	if s.ownerOfFP(root.FP) != s.cfg.ID {
		return
	}
	s.storeInode(root.Key, &core.Inode{
		Attr: core.Attr{Type: core.TypeDir, Perm: core.DefaultDirPerm, Nlink: 2},
		ID:   core.RootDirID,
	})
}

// KV exposes the store for tests and recovery verification.
func (s *Server) KV() *kv.Store { return s.kv }

// WAL exposes the log for crash orchestration.
func (s *Server) WAL() *wal.Mem { return s.wal }

// ID returns the server's node id.
func (s *Server) ID() env.NodeID { return s.cfg.ID }

// Node returns the env node.
func (s *Server) Node() *env.Node { return s.node }

// ownerOfFP maps a fingerprint to the owning server's NodeID under the
// current ring (overrides included — a group mid-migration already answers
// with its destination).
func (s *Server) ownerOfFP(fp core.Fingerprint) env.NodeID {
	return s.cfg.Ring.OwnerNode(fp)
}

// checkOwnership rejects a client request routed here under a stale ring —
// a reconfiguration remapped the slot (and migrated its records away) while
// the request was in flight. ErrRetry makes the client re-resolve against
// the current ring, the model's stand-in for the paper's epoch check (§5.5).
func (s *Server) checkOwnership(fp core.Fingerprint) error {
	if s.ownerOfFP(fp) != s.cfg.ID {
		return core.ErrRetry
	}
	return nil
}

// ownerOfKey maps an object key to its owner.
func (s *Server) ownerOfKey(k core.Key) env.NodeID {
	return s.ownerOfFP(k.Fingerprint())
}

// keyLock is the lock of one inode key (§5.2.1, Fig. 4 step 2). pins counts
// the operations that took it from lockOf and have not released it yet, the
// holders and the queued waiters alike: while any is pinned the lock stays
// the key's, and the last release takes it out of the table.
type keyLock struct {
	env.RWMutex
	key  core.Key
	pins int
}

// lockOf pins the lock of an inode key, taking one from the free list when
// no operation in flight uses the key. Every lockOf is matched by exactly one
// unpin, unlockKey or runlockKey; a caller that lets go of the lock while it
// waits for something else keeps its pin, so it comes back to the same lock.
func (s *Server) lockOf(k core.Key) *keyLock {
	l := s.locks[k]
	if l == nil {
		if n := len(s.freeLocks); n > 0 {
			l = s.freeLocks[n-1]
			s.freeLocks = s.freeLocks[:n-1]
		} else {
			l = &keyLock{}
		}
		l.key = k
		s.locks[k] = l
	}
	l.pins++
	return l
}

// unpin drops one pin of l; the last one moves l from the table to the free
// list. Every holder and waiter holds a pin, so that lock is free.
func (s *Server) unpin(l *keyLock) {
	if l.pins--; l.pins > 0 {
		return
	}
	delete(s.locks, l.key)
	l.key = core.Key{}
	s.freeLocks = append(s.freeLocks, l)
}

// unlockKey releases l's exclusive hold and its pin.
func (s *Server) unlockKey(l *keyLock) {
	l.Unlock()
	s.unpin(l)
}

// runlockKey releases a shared hold of l and its pin.
func (s *Server) runlockKey(l *keyLock) {
	l.RUnlock()
	s.unpin(l)
}

// LockedKeys reports how many inode keys have a lock in the table: the keys
// of operations in flight, zero once the server is quiescent.
func (s *Server) LockedKeys() int { return len(s.locks) }

// clogOf returns (creating on demand) the change-log of a remote directory.
func (s *Server) clogOf(ref core.DirRef) *dirLog {
	dl := s.clogs[ref.ID]
	if dl == nil {
		dl = &dirLog{ref: ref, walLSN: make(map[uint64]wal.LSN)}
		s.clogs[ref.ID] = dl
		m := s.clogsByFP[ref.FP]
		if m == nil {
			m = make(map[core.DirID]*dirLog)
			s.clogsByFP[ref.FP] = m
		}
		m[ref.ID] = dl
	}
	return dl
}

// rekeyClog re-points a directory's change-log at the directory's current
// key. A rename changes a directory's key — and with it its fingerprint and
// owner — while the id (and so the clogs index slot) stays. Entries left
// under the old fingerprint would never be collected again: dirty-set
// inserts and aggregations run against the new fingerprint, so an
// acknowledged post-rename update would stay invisible to every directory
// read (the phantom-dentry divergence the lincheck harness found). Callers
// pass the request's parent ref only after its staleness checks passed — a
// stale pre-rename client must not re-key the log backwards.
func (s *Server) rekeyClog(dl *dirLog, ref core.DirRef) {
	if dl.ref.Key == ref.Key {
		return
	}
	if m := s.clogsByFP[dl.ref.FP]; m != nil {
		delete(m, ref.ID)
		if len(m) == 0 {
			delete(s.clogsByFP, dl.ref.FP)
		}
	}
	dl.ref = ref
	m := s.clogsByFP[ref.FP]
	if m == nil {
		m = make(map[core.DirID]*dirLog)
		s.clogsByFP[ref.FP] = m
	}
	m[ref.ID] = dl
}

// sortedClogs collects a change-log map's logs into buf's array (grown if
// short) in directory id order, the snapshot every walk over change-logs
// takes (see runAggregation: no map order may reach the network).
func sortedClogs(buf []*dirLog, m map[core.DirID]*dirLog) []*dirLog {
	out := buf[:0]
	for _, dl := range m {
		out = append(out, dl)
	}
	slices.SortFunc(out, func(a, b *dirLog) int { return cmpDirID(a.ref.ID, b.ref.ID) })
	return out
}

// cmpKey orders inode keys as their encodings sort: by parent, then name.
func cmpKey(a, b core.Key) int {
	if c := cmpDirID(a.PID, b.PID); c != 0 {
		return c
	}
	return strings.Compare(a.Name, b.Name)
}

func cmpDirID(a, b core.DirID) int { return slices.Compare(a[:], b[:]) }

// fpOf returns (creating on demand) the per-fingerprint aggregation gate.
func (s *Server) fpOf(fp core.Fingerprint) *fpState {
	st := s.fps[fp]
	if st == nil {
		st = &fpState{}
		s.fps[fp] = st
	}
	return st
}

// routes is the server's dispatch table (DESIGN.md "One dispatch"): each
// message type's span name, whether it is a client request and, if so,
// whether it is deduplicated.
var routes rpc.Routes[*Server]

func init() {
	routes = rpc.NewRoutes(
		rpc.Client("lookup", rpc.Never, (*Server).handleLookup),
		// Chmod is the one FileReq that mutates durable state.
		rpc.Client("file", func(m *wire.FileReq) bool { return m.Op == core.OpChmod }, (*Server).handleFile),
		rpc.Client("dirread", rpc.Never, (*Server).handleDirRead),
		rpc.Client("mutate", rpc.Always, (*Server).handleMutate),
		rpc.Client("rename", rpc.Always, (*Server).handleRename),
		rpc.Client("link", rpc.Always, (*Server).handleLink),

		rpc.Peer("fallback", (*Server).handleFallback),
		rpc.Peer("agg:fetch", (*Server).handleAggFetch),
		rpc.Peer("agg:entries", (*Server).handleAggEntries),
		rpc.Peer("agg:ack", (*Server).handleAggAck),
		rpc.Peer("push", (*Server).handleChangePush),
		rpc.Peer("push-ack", (*Server).handleChangePushAck),
		rpc.Peer("txn:prepare", (*Server).handleTxnPrepare),
		rpc.Peer("txn:decision", (*Server).handleTxnDecision),
		rpc.Peer("txn:vote", (*Server).handleTxnVote),
		rpc.Exchange("ctl", (*Server).serveTxnStatus),
		rpc.Exchange("ctl", (*Server).serveReadInode),
		rpc.Exchange("ctl", (*Server).serveDetachDir),
		rpc.Exchange("ctl", (*Server).serveFlushEntry),
		rpc.Exchange("ctl", (*Server).serveCloneInval),

		// The answers to this server's calls end their waits.
		rpc.Peer("commit-ack", func(s *Server, _ *env.Proc, _ *wire.Packet, m *wire.CommitAck) { s.rpc.Answer(m.CommitID, 0, m) }),
		rpc.Peer("txn:done", func(s *Server, _ *env.Proc, _ *wire.Packet, m *wire.TxnDone) { s.rpc.Answer(m.Txn, m.From, nil) }),
		rpc.Replies[*Server]("ctl"),
	)
}

// handle is the env message handler: the one dispatch of every message the
// server receives. A client request is parsed on arrival, and a deduplicated
// one then passes the replay-or-begin step (rpc.Served.Admit) over the
// served memo: a retransmission is answered from the memo and never runs
// again, and one the client already finished is dropped (§5.4.1).
func (s *Server) handle(p *env.Proc, from env.NodeID, msg any) {
	pkt, ok := msg.(*wire.Packet)
	if !ok {
		return
	}
	r := routes.Of(pkt.Body)
	if r == nil {
		return
	}
	if r.Client && !s.serving {
		// A recovering server does not serve normal client requests
		// (§5.4.2): they wait for it to resume. The recovery protocols
		// themselves — aggregation fetches, change-log pushes, invalidation
		// clones, transactions in flight — must keep flowing between servers.
		s.park(from, pkt, pkt.Body.(wire.Request).Common())
		return
	}
	sp := s.cfg.Trace.StartSpan(p, pkt.Trace, r.Name, "server")
	defer sp.End()
	if r.Client {
		p.Compute(s.cfg.Costs.Parse)
		if r.Dedup(pkt.Body) {
			req := pkt.Body.(wire.Request).Common()
			replay := func(resp wire.Msg) { s.reply(p, req.Client, resp) }
			if !s.served.Admit(req.Client, req.RPC, req.Acked, replay) {
				return
			}
		}
	}
	r.Serve(s, p, pkt)
}

// park holds a client request until the server resumes, replacing an earlier
// copy of the same request: a blocked operation then costs outage + recovery
// + one service time instead of waiting for its next retransmission. A
// fail-stopped incarnation holds nothing — no one would ever release it.
func (s *Server) park(from env.NodeID, pkt *wire.Packet, req *wire.ReqCommon) {
	if s.dead {
		return
	}
	k := dedupKey{client: req.Client, rpc: req.RPC}
	if i, held := s.parkedAt[k]; held {
		s.parked[i] = parkedReq{from: from, pkt: pkt}
		s.Stats.ParkedSuperseded++
		return
	}
	if s.parkedAt == nil {
		s.parkedAt = make(map[dedupKey]int)
	}
	s.parkedAt[k] = len(s.parked)
	s.parked = append(s.parked, parkedReq{from: from, pkt: pkt})
	s.Stats.Parked++
}

// SetServing toggles request serving; it is the one place serving becomes
// true (end of Recover, end of FlushAll, reconfiguration's resume), and there
// every parked request re-enters handle on a process of its own — ownership,
// staleness and the dispatch's replay-or-begin step all run at release
// time. A fail-stopped incarnation never serves, and a recovering one only
// once Recover says so.
func (s *Server) SetServing(v bool) {
	s.serving = v && !s.dead && !s.recovering
	if !s.serving {
		return
	}
	parked := s.parked
	s.parked, s.parkedAt = nil, nil
	for _, m := range parked {
		s.env.Spawn(s.cfg.ID, func(p *env.Proc) { s.handle(p, m.from, m.pkt) })
	}
}

// tallyDir counts one client operation against its target directory.
func (s *Server) tallyDir(id core.DirID) {
	s.dirOps[id]++
}

// DirOp is one directory's operation tally.
type DirOp struct {
	Dir core.DirID
	N   uint64
}

// DirOps returns per-directory op tallies, hottest first (ties broken by
// directory id — deterministic for the metrics snapshot).
func (s *Server) DirOps() []DirOp {
	out := make([]DirOp, 0, len(s.dirOps))
	for d, n := range s.dirOps {
		out = append(out, DirOp{Dir: d, N: n})
	}
	slices.SortFunc(out, func(a, b DirOp) int {
		if c := cmp.Compare(b.N, a.N); c != 0 {
			return c
		}
		return cmpDirID(a.Dir, b.Dir)
	})
	return out
}

// Calls returns this incarnation's calls (rpc.Node): the control exchanges
// it makes and serves go through them.
func (s *Server) Calls() *rpc.Calls { return &s.rpc }

// reply sends a body already built, in a packet of its own: only a memoized
// response replayed to a retransmission (handle) goes this way.
// Every other message is built where it is sent (replyNew, wire.NewPacket).
func (s *Server) reply(p *env.Proc, to env.NodeID, body wire.Msg) {
	s.send(p, &wire.Packet{Dst: to, Origin: s.cfg.ID, Body: body})
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

// send stamps a packet with the trace context and sends it to pkt.Dst. A
// dead incarnation sends nothing: its processes may still be unwinding after
// a fail-stop, and once a restarted successor re-registers the node id their
// stale messages would otherwise reach the network again.
func (s *Server) send(p *env.Proc, pkt *wire.Packet) {
	if s.dead {
		return
	}
	pkt.Trace = p.TraceCtx()
	p.Send(pkt.Dst, pkt)
}

// respCommon stamps a response with the error and fresh invalidation
// entries (lazy invalidation piggyback, §5.2).
func (s *Server) respCommon(req *wire.ReqCommon, err error) wire.RespCommon {
	rc := wire.RespCommon{RPC: req.RPC, Err: core.ErrnoOf(err)}
	rc.InvalSeqHigh = s.invalSeq
	if req.InvalSeq < s.invalSeq {
		// Entries are appended with strictly ascending Seq, so the suffix the
		// client is missing starts at a binary-searchable boundary — a linear
		// walk here is O(history) per response and dominated million-client
		// sweeps, where most requests arrive nearly caught up.
		lo := sort.Search(len(s.inval), func(i int) bool {
			return s.inval[i].Seq > req.InvalSeq
		})
		if n := len(s.inval) - lo; n > 0 {
			rc.Inval = make([]wire.InvalEntry, n)
			for j := 0; j < n; j++ {
				rc.Inval[j] = s.inval[len(s.inval)-1-j]
			}
		}
	}
	return rc
}

// checkAncestors validates the request's cached path components against the
// invalidation list (§5.2.1 step 3). Only entries the client has not yet
// consumed (sequence above the request's InvalSeq) are stale: once the
// client refreshed its cache past an entry, re-resolved components are
// current even if the directory id matches an old entry (a failed rmdir,
// for example, plants entries for a directory that still exists).
func (s *Server) checkAncestors(req *wire.ReqCommon) error {
	for _, d := range req.Ancestors {
		if seq, bad := s.invalSet[d]; bad && seq > req.InvalSeq {
			return core.ErrStaleCache
		}
	}
	return nil
}

// remember records a response for client-RPC deduplication: retransmitted
// requests replay the response instead of re-executing (§5.4.1).
func (s *Server) remember(client env.NodeID, rpc uint64, resp wire.Msg) {
	s.served.Put(client, rpc, resp)
}

// appliedMark returns the exactly-once watermark for (src, dir).
func (s *Server) appliedMark(src env.NodeID, dir core.DirID) uint64 {
	return s.applied[appliedKey{src: src, dir: dir}]
}

func (s *Server) setAppliedMark(src env.NodeID, dir core.DirID, id uint64) {
	if s.applied[appliedKey{src: src, dir: dir}] < id {
		s.applied[appliedKey{src: src, dir: dir}] = id
	}
}
