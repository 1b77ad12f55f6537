// Package wire defines the SwitchFS packet format (paper §6.1): an optional
// dirty-set operation header parsed by the programmable switch, followed by a
// DFS request or response processed by servers. Packets travel as Go values
// over the env network (the switch model parses the header fields exactly as
// the P4 parser would), so a slice in a packet is shared with its sender:
// receivers treat message contents as read-only.
package wire

import (
	"switchfs/internal/core"
	"switchfs/internal/env"
)

// DSOp selects the dirty-set operation encapsulated in a packet (§6.3).
type DSOp uint8

// Dirty-set operations.
const (
	// DSNone marks a regular packet (no dirty-set header); the switch
	// forwards it by destination MAC only.
	DSNone DSOp = iota
	// DSQuery asks whether the fingerprint is in the set; the switch writes
	// the answer into RET and forwards the packet to its destination.
	DSQuery
	// DSInsert adds the fingerprint; on success the switch multicasts the
	// packet to the client and the origin server, on overflow it rewrites
	// the destination to AltDst for synchronous fallback (§5.2.1).
	DSInsert
	// DSRemove deletes the fingerprint and multicasts the packet body to
	// every metadata server except the origin (aggregation fetch, §5.2.2).
	DSRemove
)

// DSHeader is the dirty-set operation header (Fig. 9: OP, RET, SEQ /
// alternative MAC, fingerprint).
type DSHeader struct {
	Op DSOp
	FP core.Fingerprint
	// Seq deduplicates retransmitted removes: the switch tracks the highest
	// Seq per origin and ignores stale removes (§5.4.1).
	Seq uint64
	// Ret carries the query result (or insert success) back in the packet.
	Ret bool
	// AltDst is the fallback L2 address used when an insert overflows.
	AltDst env.NodeID
}

// Packet is one SwitchFS datagram.
type Packet struct {
	// DS is the optional dirty-set header.
	DS *DSHeader
	// Dst is the final destination the switch forwards to (for DSQuery) —
	// the "router by MAC" path. Multicast destinations for DSInsert and
	// DSRemove are derived from the body and switch configuration.
	Dst env.NodeID
	// Origin is the node that built the packet.
	Origin env.NodeID
	// Trace is the causal tracing context the packet carries: the span the
	// sender was executing under when it built the packet. Receivers open
	// their handler spans as children of it, which is what links one client
	// op's hops — client, switch pipes, servers, WAL, data nodes — into a
	// single span tree. Zero when tracing is off or the work is untraced;
	// retransmissions reuse the packet and therefore the SAME context, so a
	// resent RPC joins its original trace instead of orphaning spans.
	Trace env.TraceCtx
	// Body is the DFS request/response.
	Body Msg
}

// Msg is implemented by every request/response body.
type Msg interface{ msg() }

// carved is a packet and one companion value in a single allocation.
type carved[T any] struct {
	pkt Packet
	val T
}

// Carve returns a zero Packet and a zero T that share one fresh allocation
// (T is the packet's body or its dirty-set header). Every call allocates:
// packets are never pooled or reused, because retransmission, network
// duplication and the servers' dedup caches alias a sent packet and its body
// for as long as the event queue does.
func Carve[T any]() (*Packet, *T) {
	c := new(carved[T])
	return &c.pkt, &c.val
}

// NewPacket returns a packet from origin to dst whose Body is a zero B carved
// from the same allocation, for the caller to fill in before sending.
func NewPacket[B any, P interface {
	*B
	Msg
}](dst, origin env.NodeID) (*Packet, P) {
	pkt, body := Carve[B]()
	pkt.Dst, pkt.Origin, pkt.Body = dst, origin, P(body)
	return pkt, body
}

// ReqCommon carries the fields every client request shares.
type ReqCommon struct {
	// RPC matches responses to requests and deduplicates retransmissions:
	// servers remember the (client, RPC) pairs they took up.
	RPC uint64
	// Acked is the client's acknowledgement: every RPC id below it is
	// finished at the client, answered or given up, so a server releases
	// its memos of them and drops a late copy of one (rpc.Served).
	Acked uint64
	// Client is the reply address.
	Client env.NodeID
	// InvalSeq is the highest invalidation-list sequence number (per
	// contacted server) the client has consumed; the response piggybacks
	// newer entries (lazy invalidation, §5.2).
	InvalSeq uint64
	// Ancestors are the directory ids of every cached path component used
	// to route this request; the server validates them against its
	// invalidation list (§5.2.1 step 3).
	Ancestors []core.DirID
}

// Common returns the header itself, so a handler can reach it through any of
// the client requests that embed it.
func (r *ReqCommon) Common() *ReqCommon { return r }

// Request is a client request: a body that embeds ReqCommon.
type Request interface {
	Msg
	Common() *ReqCommon
}

// RespCommon carries the fields every response shares.
type RespCommon struct {
	RPC uint64
	Err core.Errno
	// Inval are invalidation-list entries newer than the request's
	// InvalSeq; the client drops the named directories from its cache.
	Inval []InvalEntry
	// InvalSeqHigh is the server's current invalidation sequence.
	InvalSeqHigh uint64
}

// InvalEntry names a directory whose client-side cache entries are stale.
type InvalEntry struct {
	Seq uint64
	Dir core.DirID
}

// --- Control exchanges ---------------------------------------------------------

// CtlReq carries the fields every control request shares: a request one node
// makes of a peer and that the peer answers with one reply (DESIGN.md
// "Waiting for a peer").
type CtlReq struct {
	// ID names the requester's call; the reply echoes it.
	ID uint64
	// From is the requester, the reply's address.
	From env.NodeID
}

// Head returns the header itself, so a route can reach it through any of the
// control requests that embed it.
func (r *CtlReq) Head() *CtlReq { return r }

// Control is a control request: a body that embeds CtlReq.
type Control interface {
	Msg
	Head() *CtlReq
}

// CtlResp carries the fields every control reply shares.
type CtlResp struct {
	// ID is the id of the call the reply answers.
	ID  uint64
	Err core.Errno
}

// Head returns the header itself.
func (r *CtlResp) Head() *CtlResp { return r }

// Failure returns the error the reply reports (nil: none).
func (r CtlResp) Failure() error { return r.Err.Err() }

// ControlReply is a control reply: a body that embeds CtlResp.
type ControlReply interface {
	Msg
	Head() *CtlResp
}

// --- Path resolution -------------------------------------------------------

// LookupReq resolves one path component to directory metadata (cache miss
// path of §5.2.1 step 1).
type LookupReq struct {
	ReqCommon
	Parent core.DirID
	Name   string
}

// LookupResp returns the directory's metadata.
type LookupResp struct {
	RespCommon
	Dir  core.DirID
	Attr core.Attr
}

// --- Double-inode operations ------------------------------------------------

// MutateReq covers create, delete, mkdir, rmdir: the asynchronous
// double-inode operations (§5.2.1, §5.2.3). The request is addressed to the
// owner of the *target* inode.
type MutateReq struct {
	ReqCommon
	Op     core.Op
	Parent core.DirRef // the directory receiving the deferred update
	Name   string
	Perm   core.Perm
}

// MutateResp completes a double-inode operation. For asynchronous commits it
// is forwarded to the client by the switch (multicast leg 7a of Fig. 4).
type MutateResp struct {
	RespCommon
	// Dir is the id of a newly created directory (mkdir).
	Dir core.DirID
}

// --- Single-inode operations -------------------------------------------------

// FileReq covers stat, open, close, chmod on regular files — synchronous
// single-inode operations.
type FileReq struct {
	ReqCommon
	Op     core.Op
	Parent core.DirRef
	Name   string
	Perm   core.Perm // chmod
}

// FileResp returns file metadata.
type FileResp struct {
	RespCommon
	Attr    core.Attr
	DataLoc []uint32
}

// DirReadReq covers statdir and readdir (§5.2.2). It travels through the
// switch with a DSQuery header so the server learns the directory state
// without an extra round trip.
type DirReadReq struct {
	ReqCommon
	Op  core.Op
	Dir core.DirRef
}

// DirReadResp returns directory attributes and, for readdir, the entry list.
type DirReadResp struct {
	RespCommon
	Attr    core.Attr
	Entries []core.DirEntry
}

// --- Switch-mediated commit -----------------------------------------------

// CommitNotice is the body of a DSInsert packet. On success the switch
// multicasts it: the client leg completes the operation; the origin leg
// releases the server's locks (Fig. 4 steps 7a/7b). On overflow the switch
// rewrites the destination to the parent directory owner's address, which
// applies Update synchronously (§5.2.1 "If the insertion fails").
type CommitNotice struct {
	// Resp is delivered to the client on success.
	Resp *MutateResp
	// Client is the completion destination.
	Client env.NodeID
	// CommitID identifies the waiting commit context on the origin server.
	CommitID uint64
	// Update carries the directory's pending change-log for the synchronous
	// fallback path: flushing the whole log (not just the newest entry)
	// preserves per-name FIFO order and entry-count accounting.
	Update DirLog
	// MarkOnly is the owner-tracker variant (Fig. 16): the owner records
	// the directory as dirty instead of applying Update.
	MarkOnly bool
}

// CommitAck tells the origin server that commit CommitID finished its
// switch leg (success multicast or fallback application) and locks may be
// released. Applied reports the fallback path, in which case the origin marks
// the change-log entry applied instead of keeping it pending.
type CommitAck struct {
	CommitID uint64
	Applied  bool
}

// --- Aggregation -------------------------------------------------------------

// AggFetch is the body of a DSRemove packet: the switch multicasts it to
// every other metadata server, asking for all change-log entries of the
// fingerprint group (§5.2.2 step 5).
type AggFetch struct {
	AggID uint64
	FP    core.Fingerprint
	Owner env.NodeID
	// Detach, when nonzero, is the directory an rmdir or a directory rename
	// detaches: receivers plant it in their invalidation lists before they
	// lock their change-logs (§5.2.3 step 5).
	Detach core.DirID
}

// DirLog is one directory's pending entries in an aggregation reply, a
// proactive push or a commit notice. Entries is usually a view of the
// sender's change-log (core.ChangeLog.Snapshot): read-only.
type DirLog struct {
	Dir     core.DirRef
	Entries []core.LogEntry
}

// AggEntries is a server's reply to AggFetch: every pending change-log entry
// it holds for the fingerprint group.
type AggEntries struct {
	AggID uint64
	FP    core.Fingerprint
	From  env.NodeID
	Logs  []DirLog
}

// AggAck is the owner's multicast acknowledgment: senders mark the entries
// (up to MaxID per directory) applied in their WALs and drop them from their
// change-logs (§5.2.2 steps 9a/9b).
type AggAck struct {
	AggID uint64
	FP    core.Fingerprint
	// MaxIDs holds, per directory, the largest entry ID applied.
	MaxIDs []DirMax
}

// DirMax is the largest entry ID applied from one directory's log.
type DirMax struct {
	Dir   core.DirID
	MaxID uint64
}

// --- Proactive aggregation ----------------------------------------------------

// ChangePush proactively ships a change-log to the directory owner when it
// fills an MTU or goes idle (§5.3). The owner buffers the entries and starts
// its quiesce timer.
type ChangePush struct {
	From env.NodeID
	Log  DirLog
	// Final marks a push from a server that is not serving — it is flushing
	// every log or recovering — so no more pushes follow: the owner applies
	// and acks without (re)starting its quiesce timer.
	Final bool
}

// ChangePushAck lets the pushing server mark entries applied.
type ChangePushAck struct {
	Dir   core.DirID
	MaxID uint64
}

// --- Rename / hard links (2PC) ----------------------------------------------

// TxnOp is a participant-side action in a distributed transaction.
type TxnOp struct {
	// Kind selects the mutation.
	Kind TxnKind
	Key  core.Key
	// Inode is the value for puts: the inode image (core.AppendInode) the
	// participant stores and logs as it is.
	Inode []byte
	// Dir and Entry adjust a directory's attributes/entry list.
	Dir   core.DirRef
	Entry core.LogEntry
}

// TxnKind enumerates transaction mutations.
type TxnKind uint8

// Transaction mutation kinds.
const (
	// TxnPutInode writes an inode record.
	TxnPutInode TxnKind = iota + 1
	// TxnDelInode deletes an inode record.
	TxnDelInode
	// TxnDirUpdate applies a directory update (dentry + attrs) directly.
	TxnDirUpdate
	// TxnAdjustNlink adds Delta to a file attribute object's link count and
	// deletes it at zero.
	TxnAdjustNlink
	// TxnPutDentry writes one entry-list record of directory Dir (entry-list
	// migration during directory rename).
	TxnPutDentry
	// TxnDelDentries drops the whole entry list of directory Dir, which a
	// directory rename moves: Key is the directory's key, and Entry.ID the
	// Move of its DetachDirReq, whose registration the prepare ends.
	TxnDelDentries
)

// ReadInodeReq reads a raw inode record (coordinator-side resolution during
// rename/link). Flush asks for what FlushEntryReq asks, on the same key,
// before the read: a rename's source name and its inode share an owner.
type ReadInodeReq struct {
	CtlReq
	Key   core.Key
	Flush bool
}

// ReadInodeResp returns the record.
type ReadInodeResp struct {
	CtlResp
	// Raw is the stored inode image, a copy.
	Raw []byte
}

// DetachDirReq asks the owner of Key, a directory's key, to detach the
// directory Dir before a rename moves it (§5.2): lookups of Key wait, the
// directory is planted in every server's invalidation list and aggregated,
// and the reply carries what the rename moves. The detach stays registered
// after the reply until the rename's prepare here holds Key's lock (its
// TxnDelDentries names Move), or until it lapses.
type DetachDirReq struct {
	CtlReq
	Key  core.Key
	Dir  core.DirID
	Move uint64
}

// DetachDirResp returns the directory's inode image and entry list as the
// detach left them. Err retry reports that a peer stayed unreachable, the
// group is not served here, or Key no longer holds Dir.
type DetachDirResp struct {
	CtlResp
	// Raw is the stored inode image, a copy.
	Raw     []byte
	Entries []core.DirEntry
}

// FlushEntryReq asks the owner of Key to deliver what its change-log for Key's
// directory holds, if it holds a deferred update of Key's name, and to answer
// once the directory's owner acknowledged it (what a rename or link waits for
// before it queues).
type FlushEntryReq struct {
	CtlReq
	Key core.Key
}

// FlushEntryResp confirms no deferred update of the name is pending anymore;
// Err retry reports that the directory's owner stayed unreachable (or the
// name's group is no longer served here).
type FlushEntryResp struct {
	CtlResp
}

// TxnPrepare asks a participant to lock and validate its ops.
type TxnPrepare struct {
	Txn  uint64
	From env.NodeID
	// Acked is the coordinator's acknowledgement: every transaction it
	// numbered below it has ended its prepare round, so a participant
	// releases its memos of them and drops a late copy of one (rpc.Served).
	Acked uint64
	Ops   []TxnOp
	Check []TxnCheck
}

// TxnCheck is a validation predicate evaluated under the participant's locks.
type TxnCheck struct {
	Key core.Key
	// MustExist / MustNotExist validate presence.
	MustExist    bool
	MustNotExist bool
	// IsDir, when MustExist, additionally validates the object type.
	IsDir bool
	// Same, when set, is the stored record the coordinator read before the
	// transaction and built its ops from: the record must still be these
	// bytes, or the vote is retry. The inode image is canonical, so equal
	// bytes mean an equal inode.
	Same []byte
}

// TxnVote is the participant's prepare answer.
type TxnVote struct {
	Txn  uint64
	From env.NodeID
	Err  core.Errno
}

// TxnDecision commits or aborts.
type TxnDecision struct {
	Txn    uint64
	Commit bool
}

// TxnDone acknowledges a decision.
type TxnDone struct {
	Txn  uint64
	From env.NodeID
}

// TxnStatusReq asks the coordinator for a prepared transaction's outcome —
// the participant-side termination protocol. A participant left in doubt
// (prepared, locks held, no decision) polls the coordinator; an incarnation
// with no record of the transaction answers abort (presumed abort).
type TxnStatusReq struct {
	CtlReq
	Txn uint64
}

// TxnStatusResp carries the coordinator's answer. Pending means this
// incarnation is still deciding — keep waiting. Otherwise Commit is the
// decision (false for both aborted and unknown transactions).
type TxnStatusResp struct {
	CtlResp
	Commit  bool
	Pending bool
}

// RenameReq is routed to the rename coordinator (§5.2 "Rename").
type RenameReq struct {
	ReqCommon
	SrcParent core.DirRef
	SrcName   string
	DstParent core.DirRef
	DstName   string
}

// RenameResp completes a rename.
type RenameResp struct {
	RespCommon
}

// LinkReq creates a hard link (§5.5).
type LinkReq struct {
	ReqCommon
	SrcParent core.DirRef
	SrcName   string
	DstParent core.DirRef
	DstName   string
}

// LinkResp completes a link.
type LinkResp struct {
	RespCommon
}

// --- Recovery ----------------------------------------------------------------

// CloneInvalReq asks a peer for its invalidation list (server recovery,
// §5.4.2).
type CloneInvalReq struct {
	CtlReq
}

// CloneInvalResp returns the peer's invalidation list.
type CloneInvalResp struct {
	CtlResp
	Entries []InvalEntry
}

// --- Data access (end-to-end workloads, §7.6) -------------------------------

// ChunkKey names one stripe of one file's content on the data plane. File is
// the client-stable file hash (or the workload shard); Stripe indexes the
// stripe within the file. Striping spreads a file's chunks across data nodes
// via the DataLoc slots the metadata server assigns at create.
type ChunkKey struct {
	File   uint32
	Stripe uint32
}

// DataReq reads or writes one content chunk on its primary data node. The
// addressed node IS the chunk's primary; its backups are the next
// placement slots in ring order. Writes are acknowledged only after the
// replication factor is satisfied (primary + r−1 backups applied).
type DataReq struct {
	ReqCommon
	Op    core.Op // OpRead or OpWrite
	Chunk ChunkKey
	Bytes int64
}

// DataResp completes a data access. Ver is the chunk version the primary
// assigned (write) or currently stores (read; 0 for never-written chunks —
// the empty-file read). Bytes echoes the stored length on reads.
type DataResp struct {
	RespCommon
	Ver   uint64
	Bytes int64
}

// DataRepReq is the primary→backup replication leg of a chunk write: the
// backup applies the record iff Ver is newer than its copy (idempotent, so
// duplicated or reordered replication packets are harmless) and always acks.
type DataRepReq struct {
	// Seq matches acks to the primary's pending replication round.
	Seq  uint64
	From env.NodeID
	// Primary is the chunk's primary placement slot — recorded with the
	// replica so recovery can tell which node's stripes a record belongs to.
	Primary uint32
	Chunk   ChunkKey
	Ver     uint64
	Bytes   int64
}

// DataRepAck confirms one backup applied (or already held) a replicated
// chunk version.
type DataRepAck struct {
	Seq  uint64
	From env.NodeID
}

// ChunkRec is one chunk record in a recovery pull response.
type ChunkRec struct {
	Chunk   ChunkKey
	Ver     uint64
	Bytes   int64
	Primary uint32
}

// DataPullReq asks a peer data node for every chunk record whose replica
// set includes the requesting node's slot (re-replication after a
// fail-stop: the restarted node's volatile store is empty).
type DataPullReq struct {
	CtlReq
	// Slot is the requester's placement slot.
	Slot uint32
}

// DataPullResp returns the matching chunk records, sorted by chunk key so
// recovery is deterministic.
type DataPullResp struct {
	CtlResp
	Chunks []ChunkRec
}

func (*LookupReq) msg()      {}
func (*LookupResp) msg()     {}
func (*MutateReq) msg()      {}
func (*MutateResp) msg()     {}
func (*FileReq) msg()        {}
func (*FileResp) msg()       {}
func (*DirReadReq) msg()     {}
func (*DirReadResp) msg()    {}
func (*CommitNotice) msg()   {}
func (*CommitAck) msg()      {}
func (*AggFetch) msg()       {}
func (*AggEntries) msg()     {}
func (*AggAck) msg()         {}
func (*ChangePush) msg()     {}
func (*ChangePushAck) msg()  {}
func (*TxnPrepare) msg()     {}
func (*TxnVote) msg()        {}
func (*TxnDecision) msg()    {}
func (*TxnDone) msg()        {}
func (*TxnStatusReq) msg()   {}
func (*TxnStatusResp) msg()  {}
func (*RenameReq) msg()      {}
func (*RenameResp) msg()     {}
func (*LinkReq) msg()        {}
func (*LinkResp) msg()       {}
func (*CloneInvalReq) msg()  {}
func (*CloneInvalResp) msg() {}
func (*ReadInodeReq) msg()   {}
func (*ReadInodeResp) msg()  {}
func (*DetachDirReq) msg()   {}
func (*DetachDirResp) msg()  {}
func (*FlushEntryReq) msg()  {}
func (*FlushEntryResp) msg() {}
func (*DataReq) msg()        {}
func (*DataResp) msg()       {}
func (*DataRepReq) msg()     {}
func (*DataRepAck) msg()     {}
func (*DataPullReq) msg()    {}
func (*DataPullResp) msg()   {}
