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
	"switchfs/internal/rpc"
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
	invalSeen map[env.NodeID]uint64
	// lastID is the last request id issued, the scalar ids of the client's
	// one incarnation (core.NewIncarnation(id, 0)): node<<40 | n. rpc
	// registers the calls in flight and gives each request its
	// acknowledgement (wire.ReqCommon.Acked). Together they are three words,
	// as the scale figure holds up to 10^6 clients.
	lastID uint64
	rpc    rpc.Registry

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
	// valid Go, and at million-client scale an idle session's three empty
	// maps (cache, invalSeen and the calls' registry) would dominate
	// its footprint.
	ids := core.NewIncarnation(uint64(cfg.ID), 0)
	c := &Client{cfg: cfg, env: e, lastID: ids.Issued(), rpc: rpc.NewRegistry(ids.Issued())}
	c.node = e.AddNode(cfg.ID, env.NodeConfig{Handler: c.handle})
	return c
}

// ID returns the client's node id.
func (c *Client) ID() env.NodeID { return c.cfg.ID }

// handle applies an arriving response's invalidations and answers the call
// it names.
func (c *Client) handle(p *env.Proc, from env.NodeID, msg any) {
	pkt, ok := msg.(*wire.Packet)
	if !ok {
		return
	}
	resp, ok := pkt.Body.(wire.Response)
	if !ok {
		return
	}
	rc := resp.Reply()
	c.applyInval(from, rc)
	c.rpc.Answer(rc.RPC, from, resp)
}

// applyInval drops cache entries named by piggybacked invalidation records
// (lazy invalidation, §5.2): in one pass over the cache, every path that
// resolved to an invalidated directory. Few responses carry records — a
// directory is invalidated only by its rmdir or rename.
func (c *Client) applyInval(from env.NodeID, rc *wire.RespCommon) {
	if len(rc.Inval) > 0 {
		for path, e := range c.cache {
			if invalidated(rc.Inval, e.ref.ID) {
				delete(c.cache, path)
			}
		}
	}
	c.noteInvalSeq(from, rc.InvalSeqHigh)
}

// invalidated reports whether the records name directory id.
func invalidated(inval []wire.InvalEntry, id core.DirID) bool {
	for _, in := range inval {
		if in.Dir == id {
			return true
		}
	}
	return false
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
	for path := range c.cache {
		if underPath(path, prefix) {
			delete(c.cache, path)
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

// call sends request id to dst as a retried call (rpc.Registry.Request), each
// try waiting wait, until tries sends went unanswered, when it flags the op's
// trace with flag. Each try is an "attempt" span, ended by the next try or by
// the reply. resent reports whether any of this call's tries went unanswered
// (at-least-once semantics for mutations); it counts its own sends, as
// Retries is shared by every process on the client.
func (c *Client) call(p *env.Proc, dst env.NodeID, pkt *wire.Packet, id uint64, tries int, wait env.Duration, flag string) (wire.Response, bool, error) {
	// Every (re)transmission carries the SAME context — the op span that is
	// ambient here — so a resent RPC joins its original trace and the
	// server-side spans of every delivery parent into one tree.
	pkt.Trace = p.TraceCtx()
	sends := 0
	var att *trace.Handle
	v, ok := c.rpc.Request(p, id, tries, wait, &c.Retries, func() {
		sends++
		att.End()
		att = c.cfg.Trace.Start(p, "attempt", "client")
		p.Send(dst, pkt)
	})
	att.End()
	resent := sends > 1 || !ok && sends > 0
	if !ok {
		c.cfg.Trace.Flag(pkt.Trace.TraceID, flag)
		return nil, resent, core.ErrTimeout
	}
	return v.(wire.Response), resent, nil
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

// reqCommon issues a request id and stamps the shared request fields of the
// request to dst under it, its acknowledgement included.
func (c *Client) reqCommon(dst env.NodeID, ancestors []core.DirID) wire.ReqCommon {
	c.lastID++
	id := c.lastID
	return wire.ReqCommon{RPC: id, Acked: c.rpc.Acked(id), Client: c.cfg.ID, InvalSeq: c.invalSeen[dst], Ancestors: ancestors}
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
			}
			c.cache[walked] = e
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
	pkt, req := wire.NewPacket[wire.LookupReq](dst, c.cfg.ID)
	*req = wire.LookupReq{ReqCommon: c.reqCommon(dst, ancestors), Parent: parent.ID, Name: name}
	v, _, err := c.call(p, dst, pkt, req.RPC, c.cfg.MaxRetries, c.cfg.RetryTimeout, "rpc-timeout")
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
