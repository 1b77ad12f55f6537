// Package client implements LibFS, the SwitchFS user-space client library
// (paper §4.2): path resolution over a directory-metadata cache with lazy
// invalidation, request routing by consistent hashing, switch-mediated
// directory reads, and UDP-style retransmission.
package client

import (
	"errors"
	"slices"

	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/ring"
	"switchfs/internal/server"
	"switchfs/internal/trace"
	"switchfs/internal/wire"
)

// Config parameterizes a client.
type Config struct {
	ID env.NodeID
	// Ring is the shared versioned placement ring; a control-plane override
	// (directory migration) re-routes this client's next attempt without any
	// client-side notification — the ErrRetry from the old owner re-resolves
	// against the updated ring.
	Ring      *ring.Ring
	SwitchFor func(core.Fingerprint) env.NodeID
	// Coordinator handles rename and link.
	Coordinator env.NodeID
	Tracker     server.TrackerMode
	Costs       env.Costs
	// RetryTimeout and MaxRetries bound request retransmission.
	RetryTimeout env.Duration
	MaxRetries   int
	// Trace records causal spans for this client's operations (nil: off).
	// Each op entry point opens a root span; retransmission rounds and
	// lookups nest under it, and the op's TraceCtx travels in every packet
	// the op sends. Ops that fail or exhaust their retries are flagged so
	// tail sampling always keeps them.
	Trace *trace.Recorder
}

// Client is one LibFS instance bound to an env node.
type Client struct {
	cfg  Config
	env  *env.Sim
	node *env.Node

	cache     map[string]cachedDir
	byID      map[core.DirID][]string
	invalSeen map[env.NodeID]uint64
	rpcSeq    uint64
	pending   map[uint64]*env.Future
	// acked is the client's acknowledgement (wire.ReqCommon.Acked): every
	// RPC id below it is finished, answered or given up.
	acked uint64

	// Stats observable by harnesses.
	Lookups    uint64
	CacheHits  uint64
	Retries    uint64
	StaleRetry uint64
}

// cachedDir is one resolved directory. chain is its ancestor chain root‥self:
// immutable once published and shared, as ReqCommon.Ancestors, by every
// request that resolved through this entry — invalidation drops the entry,
// never edits the chain.
type cachedDir struct {
	ref   core.DirRef
	chain []core.DirID
}

// rootChain is the chain every resolution starts from.
var rootChain = []core.DirID{core.RootDirID}

// opSpans[op] is the root span name "op:<name>", built once so that neither
// traced nor untraced operations concatenate per call.
var opSpans = func() (t [256]string) {
	for i := range t {
		t[i] = "op:" + core.Op(i).String()
	}
	return t
}()

// New builds a client and registers its node. Clients have unlimited cores:
// client CPU is never the bottleneck in the paper's evaluation.
func New(e *env.Sim, cfg Config) *Client {
	if cfg.RetryTimeout == 0 {
		cfg.RetryTimeout = 2 * env.Millisecond
	}
	if cfg.MaxRetries == 0 {
		// Must outlast the worst-case server-side stall: an aggregation
		// participant holds a change-log lock for up to 100 retransmission
		// rounds before giving up (§5.4.1 recovery interplay).
		cfg.MaxRetries = 250
	}
	// Maps are allocated lazily at their first write: nil-map reads are
	// valid Go, and at million-client scale an idle session's four empty
	// maps (cache, byID, invalSeen, pending) would dominate its footprint.
	c := &Client{cfg: cfg, env: e}
	c.node = e.AddNode(cfg.ID, env.NodeConfig{Handler: c.handle})
	return c
}

// ID returns the client's node id.
func (c *Client) ID() env.NodeID { return c.cfg.ID }

// handle completes pending calls with arriving responses.
func (c *Client) handle(p *env.Proc, from env.NodeID, msg any) {
	pkt, ok := msg.(*wire.Packet)
	if !ok {
		return
	}
	rpc, rc := respInfo(pkt.Body)
	if rc != nil {
		c.applyInval(from, rc)
	}
	fut := c.pending[rpc]
	if fut != nil {
		fut.Complete(pkt.Body)
	}
}

// respInfo extracts the rpc id and common fields from any response body.
func respInfo(m wire.Msg) (uint64, *wire.RespCommon) {
	switch b := m.(type) {
	case *wire.LookupResp:
		return b.RPC, &b.RespCommon
	case *wire.MutateResp:
		return b.RPC, &b.RespCommon
	case *wire.FileResp:
		return b.RPC, &b.RespCommon
	case *wire.DirReadResp:
		return b.RPC, &b.RespCommon
	case *wire.RenameResp:
		return b.RPC, &b.RespCommon
	case *wire.LinkResp:
		return b.RPC, &b.RespCommon
	case *wire.DataResp:
		return b.RPC, &b.RespCommon
	default:
		return 0, nil
	}
}

// applyInval drops cache entries named by piggybacked invalidation records
// (lazy invalidation, §5.2).
func (c *Client) applyInval(from env.NodeID, rc *wire.RespCommon) {
	for _, e := range rc.Inval {
		for _, path := range c.byID[e.Dir] {
			delete(c.cache, path)
		}
		delete(c.byID, e.Dir)
	}
	c.noteInvalSeq(from, rc.InvalSeqHigh)
}

// noteInvalSeq records the highest invalidation sequence seen from a server,
// allocating the map on first write.
func (c *Client) noteInvalSeq(from env.NodeID, seq uint64) {
	if seq > c.invalSeen[from] {
		if c.invalSeen == nil {
			c.invalSeen = make(map[env.NodeID]uint64)
		}
		c.invalSeen[from] = seq
	}
}

// invalidatePrefix drops every cached path at or under the given path
// (stale-cache retry). Matching is component-wise: invalidating /a drops
// /a and /a/b but not /ab — a raw string-prefix match would erase an
// unrelated sibling's cache entries.
func (c *Client) invalidatePrefix(prefix string) {
	for path, e := range c.cache {
		if !underPath(path, prefix) {
			continue
		}
		delete(c.cache, path)
		paths := c.byID[e.ref.ID]
		for i, q := range paths {
			if q == path {
				c.byID[e.ref.ID] = append(paths[:i], paths[i+1:]...)
				break
			}
		}
		if len(c.byID[e.ref.ID]) == 0 {
			delete(c.byID, e.ref.ID)
		}
	}
}

// underPath reports whether path equals prefix or lies beneath it as a
// directory component (prefix "/" covers everything).
func underPath(path, prefix string) bool {
	for len(prefix) > 1 && prefix[len(prefix)-1] == '/' {
		prefix = prefix[:len(prefix)-1]
	}
	if prefix == "/" || path == prefix {
		return true
	}
	return len(path) > len(prefix) && path[:len(prefix)] == prefix && path[len(prefix)] == '/'
}

// ownerOfFP maps a fingerprint to its owner server node under the current
// ring (migration overrides included).
func (c *Client) ownerOfFP(fp core.Fingerprint) env.NodeID {
	return c.cfg.Ring.OwnerNode(fp)
}

// call sends one request and waits for its response on p's reply slot,
// retransmitting every wait until tries sends went unanswered, when it flags
// the op's trace with flag. resent reports whether any retransmission
// happened (at-least-once semantics for mutations).
func (c *Client) call(p *env.Proc, dst env.NodeID, pkt *wire.Packet, rpc uint64, tries int, wait env.Duration, flag string) (wire.Msg, bool, error) {
	fut := p.TakeReply()
	if c.pending == nil {
		c.pending = make(map[uint64]*env.Future)
	}
	c.pending[rpc] = fut
	defer func() {
		delete(c.pending, rpc)
		p.ReleaseReply()
	}()
	// Every (re)transmission carries the SAME context — the op span that is
	// ambient here — so a resent RPC joins its original trace and the
	// server-side spans of every delivery parent into one tree.
	pkt.Trace = p.TraceCtx()
	resent := false
	for try := 0; try < tries; try++ {
		att := c.cfg.Trace.Start(p, "attempt", "client")
		p.Send(dst, pkt)
		v, ok := fut.WaitTimeout(p, wait)
		att.End()
		if ok {
			return v.(wire.Msg), resent, nil
		}
		resent = true
		c.Retries++
	}
	c.cfg.Trace.Flag(pkt.Trace.TraceID, flag)
	return nil, resent, core.ErrTimeout
}

// op opens a client root span for one operation entry point (nil-safe).
func (c *Client) op(p *env.Proc, op core.Op) *trace.Handle {
	return c.cfg.Trace.StartAuto(p, opSpans[op], "client")
}

// endOp closes an op span, flagging the trace when the op failed so tail
// sampling always keeps errored ops for forensics.
func (c *Client) endOp(sp *trace.Handle, err error) {
	if err != nil {
		c.cfg.Trace.Flag(sp.TraceID(), "client-error")
	}
	sp.End()
}

// nextRPC allocates a request id.
func (c *Client) nextRPC() uint64 {
	c.rpcSeq++
	return c.rpcSeq
}

// reqCommon stamps the shared request fields of request rpc, the id nextRPC
// just allocated. Its acknowledgement first moves past every finished id: an
// id is registered in pending before its process next yields, so an id below
// rpc that is not pending is finished. Each id is passed once.
func (c *Client) reqCommon(rpc uint64, dst env.NodeID, ancestors []core.DirID) wire.ReqCommon {
	for c.acked < rpc && c.pending[c.acked] == nil {
		c.acked++
	}
	seen := c.invalSeen[dst]
	return wire.ReqCommon{RPC: rpc, Acked: c.acked, Client: c.cfg.ID, InvalSeq: seen, Ancestors: ancestors}
}

// resolved is the output of path resolution for one target. ancestors is a
// cached chain (see cachedDir): read-only. cached reports that some directory
// on the path came from the cache rather than a lookup.
type resolved struct {
	parent    core.DirRef
	name      string
	ancestors []core.DirID
	cached    bool
}

// resolve walks the path's directories through the cache (§5.2.1 step 1),
// issuing lookups on misses. It returns the parent DirRef and the leaf name.
// The walk is by index over the canonical path: components and cache keys are
// substrings of it, and a fully cached walk returns the parent's published
// chain without allocating.
func (c *Client) resolve(p *env.Proc, path string) (resolved, error) {
	path, err := core.CanonicalPath(path)
	if err != nil {
		return resolved{}, err
	}
	if path == "/" {
		return resolved{}, core.ErrInvalid
	}
	cur := core.RootRef()
	chain := rootChain
	cached := false
	comp, end := core.NextComponent(path, 0)
	for end < len(path) {
		walked := path[:end]
		p.Compute(c.cfg.Costs.CacheLookup)
		e, hit := c.cache[walked]
		if hit {
			c.CacheHits++
			cached = true
		} else {
			ref, err := c.lookupOne(p, cur, comp, chain)
			if err != nil {
				return resolved{}, err
			}
			e.ref = ref
		}
		// The entry's chain must be the one walked here plus itself. A miss
		// has none yet, and a hit's is stale when an ancestor was invalidated
		// by id and re-resolved to another directory underneath it; both
		// publish a new, full chain — a shared one is never appended to.
		if n := len(chain); len(e.chain) != n+1 || !slices.Equal(e.chain[:n], chain) {
			e.chain = make([]core.DirID, n+1)
			copy(e.chain, chain)
			e.chain[n] = e.ref.ID
			if c.cache == nil {
				c.cache = make(map[string]cachedDir)
				c.byID = make(map[core.DirID][]string)
			}
			c.cache[walked] = e
			if !hit {
				c.byID[e.ref.ID] = append(c.byID[e.ref.ID], walked)
			}
		}
		cur, chain = e.ref, e.chain
		comp, end = core.NextComponent(path, end)
	}
	return resolved{parent: cur, name: comp, ancestors: chain, cached: cached}, nil
}

// lookupOne fetches one directory's metadata from its owner.
func (c *Client) lookupOne(p *env.Proc, parent core.DirRef, name string, ancestors []core.DirID) (core.DirRef, error) {
	c.Lookups++
	sp := c.cfg.Trace.Start(p, "lookup", "client")
	defer sp.End()
	key := core.Key{PID: parent.ID, Name: name}
	fp := key.Fingerprint()
	dst := c.ownerOfFP(fp)
	rpc := c.nextRPC()
	pkt, req := wire.NewPacket[wire.LookupReq](dst, c.cfg.ID)
	*req = wire.LookupReq{ReqCommon: c.reqCommon(rpc, dst, ancestors), Parent: parent.ID, Name: name}
	v, _, err := c.call(p, dst, pkt, rpc, c.cfg.MaxRetries, c.cfg.RetryTimeout, "rpc-timeout")
	if err != nil {
		return core.DirRef{}, err
	}
	resp := v.(*wire.LookupResp)
	if resp.Err != core.ErrnoOK {
		return core.DirRef{}, resp.Err.Err()
	}
	return core.DirRef{ID: resp.Dir, Key: key, FP: fp}, nil
}

// withResolution runs fn with a resolved path, transparently refreshing the
// cache and retrying when a server reports the client's cached components
// stale (§5.2.1 "If invalid, ... invalidate stale cache entries and retry").
func (c *Client) withResolution(p *env.Proc, path string, fn func(r resolved) error) error {
	for attempt := 0; ; attempt++ {
		r, err := c.resolve(p, path)
		if err == nil {
			err = fn(r)
		}
		if errors.Is(err, core.ErrStaleCache) || errors.Is(err, core.ErrRetry) {
			if attempt >= 16 {
				return core.ErrTimeout
			}
			c.StaleRetry++
			c.invalidatePrefix("/")
			continue
		}
		return err
	}
}
