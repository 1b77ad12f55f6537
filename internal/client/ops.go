package client

import (
	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/server"
	"switchfs/internal/wire"
)

// The public operation set. Every operation runs on a Proc (blocking until
// completion) and returns POSIX-style errors from internal/core.

// mutate drives the shared client half of create/delete/mkdir/rmdir.
func (c *Client) mutate(p *env.Proc, op core.Op, path string, perm core.Perm) (core.DirID, error) {
	out, _, err := c.mutateR(p, op, path, perm)
	return out, err
}

// mutateR is mutate, additionally reporting whether the final request round
// was retransmitted. A retried mutation is at-least-once: if a server crash
// discarded the RPC dedup cache between tries, the retry re-executes and the
// operation can observe its own earlier effect (EEXIST for create, ENOENT
// for delete) — fault harnesses need the flag to classify those outcomes.
func (c *Client) mutateR(p *env.Proc, op core.Op, path string, perm core.Perm) (core.DirID, bool, error) {
	sp := c.op(p, op)
	var out core.DirID
	var resent bool
	err := c.withResolution(p, path, func(r resolved) error {
		p.Compute(c.cfg.Costs.ClientOp)
		key := core.Key{PID: r.parent.ID, Name: r.name}
		dst := c.ownerOfFP(key.Fingerprint())
		rpc := c.nextRPC()
		pkt, req := wire.NewPacket[wire.MutateReq](dst, c.cfg.ID)
		*req = wire.MutateReq{
			ReqCommon: c.reqCommon(rpc, dst, r.ancestors),
			Op:        op,
			Parent:    r.parent,
			Name:      r.name,
			Perm:      perm,
		}
		v, re, err := c.call(p, dst, pkt, rpc, c.cfg.MaxRetries, c.cfg.RetryTimeout, "rpc-timeout")
		resent = resent || re
		if err != nil {
			return err
		}
		// Exactly-once across retransmission comes from the server-side
		// (client, RPC) dedup cache: a retried request replays the original
		// outcome rather than re-executing (§5.4.1). Only a server crash
		// that loses the cache can surface an operation's own earlier
		// effect as EEXIST/ENOENT.
		resp := v.(*wire.MutateResp)
		out = resp.Dir
		return resp.Err.Err()
	})
	c.endOp(sp, err)
	return out, resent, err
}

// CreateR is Create, reporting whether any retransmission happened.
func (c *Client) CreateR(p *env.Proc, path string, perm core.Perm) (bool, error) {
	_, resent, err := c.mutateR(p, core.OpCreate, path, perm)
	return resent, err
}

// DeleteR is Delete, reporting whether any retransmission happened.
func (c *Client) DeleteR(p *env.Proc, path string) (bool, error) {
	_, resent, err := c.mutateR(p, core.OpDelete, path, 0)
	return resent, err
}

// MkdirR is Mkdir, reporting whether any retransmission happened.
func (c *Client) MkdirR(p *env.Proc, path string, perm core.Perm) (bool, error) {
	_, resent, err := c.mutateR(p, core.OpMkdir, path, perm)
	return resent, err
}

// RmdirR is Rmdir, reporting whether any retransmission happened.
func (c *Client) RmdirR(p *env.Proc, path string) (bool, error) {
	_, resent, err := c.mutateR(p, core.OpRmdir, path, 0)
	if err == nil {
		c.invalidatePrefix(path)
	}
	return resent, err
}

// Create makes a regular file.
func (c *Client) Create(p *env.Proc, path string, perm core.Perm) error {
	_, err := c.mutate(p, core.OpCreate, path, perm)
	return err
}

// Delete unlinks a regular file.
func (c *Client) Delete(p *env.Proc, path string) error {
	_, err := c.mutate(p, core.OpDelete, path, 0)
	return err
}

// Mkdir creates a directory.
func (c *Client) Mkdir(p *env.Proc, path string, perm core.Perm) error {
	_, err := c.mutate(p, core.OpMkdir, path, perm)
	return err
}

// Rmdir removes an empty directory.
func (c *Client) Rmdir(p *env.Proc, path string) error {
	_, err := c.RmdirR(p, path)
	return err
}

// fileOp drives stat/open/close/chmod, reporting whether the final request
// round was retransmitted (chmod is a mutation; fault harnesses need the
// at-least-once flag).
func (c *Client) fileOp(p *env.Proc, op core.Op, path string, perm core.Perm) (core.Attr, []uint32, bool, error) {
	sp := c.op(p, op)
	var attr core.Attr
	var loc []uint32
	var resent bool
	err := c.withResolution(p, path, func(r resolved) error {
		p.Compute(c.cfg.Costs.ClientOp)
		key := core.Key{PID: r.parent.ID, Name: r.name}
		dst := c.ownerOfFP(key.Fingerprint())
		rpc := c.nextRPC()
		pkt, req := wire.NewPacket[wire.FileReq](dst, c.cfg.ID)
		*req = wire.FileReq{
			ReqCommon: c.reqCommon(rpc, dst, r.ancestors),
			Op:        op,
			Parent:    r.parent,
			Name:      r.name,
			Perm:      perm,
		}
		v, re, err := c.call(p, dst, pkt, rpc, c.cfg.MaxRetries, c.cfg.RetryTimeout, "rpc-timeout")
		resent = resent || re
		if err != nil {
			return err
		}
		resp := v.(*wire.FileResp)
		attr = resp.Attr
		loc = resp.DataLoc
		return resp.Err.Err()
	})
	c.endOp(sp, err)
	return attr, loc, resent, err
}

// Stat reads a file's attributes.
func (c *Client) Stat(p *env.Proc, path string) (core.Attr, error) {
	a, _, _, err := c.fileOp(p, core.OpStat, path, 0)
	return a, err
}

// Open opens a file and returns its attributes and data locations.
func (c *Client) Open(p *env.Proc, path string) (core.Attr, []uint32, error) {
	a, loc, _, err := c.fileOp(p, core.OpOpen, path, 0)
	return a, loc, err
}

// Close closes a file.
func (c *Client) Close(p *env.Proc, path string) error {
	_, _, _, err := c.fileOp(p, core.OpClose, path, 0)
	return err
}

// Chmod updates a file's permissions.
func (c *Client) Chmod(p *env.Proc, path string, perm core.Perm) error {
	_, err := c.ChmodR(p, path, perm)
	return err
}

// ChmodR is Chmod, reporting whether any retransmission happened.
func (c *Client) ChmodR(p *env.Proc, path string, perm core.Perm) (bool, error) {
	_, _, resent, err := c.fileOp(p, core.OpChmod, path, perm)
	return resent, err
}

// dirRead drives statdir/readdir (§5.2.2): the request carries a dirty-set
// query through the switch so the owner learns the directory state with zero
// extra round trips.
func (c *Client) dirRead(p *env.Proc, op core.Op, path string) (core.Attr, []core.DirEntry, error) {
	sp := c.op(p, op)
	var attr core.Attr
	var entries []core.DirEntry
	if cp, err := core.CanonicalPath(path); err == nil && cp == "/" {
		// The root directory needs no resolution.
		a, es, err := c.dirReadRef(p, op, core.RootRef(), nil)
		c.endOp(sp, err)
		return a, es, err
	}
	err := c.withResolution(p, path, func(r resolved) error {
		key := core.Key{PID: r.parent.ID, Name: r.name}
		// The DirRef's ID is resolved by the owner via its inode; the client
		// needs key and fingerprint for routing. A cached entry supplies the
		// ID when available.
		ref := core.DirRef{Key: key, FP: key.Fingerprint()}
		if e, ok := c.cache[path]; ok {
			ref.ID = e.ref.ID
		}
		a, es, err := c.dirReadRef(p, op, ref, r.ancestors)
		attr, entries = a, es
		return err
	})
	c.endOp(sp, err)
	return attr, entries, err
}

// dirReadRef sends a directory read for an already-known DirRef, routing it
// through the switch for the dirty-set query unless the owner-tracker
// variant is active.
func (c *Client) dirReadRef(p *env.Proc, op core.Op, ref core.DirRef, ancestors []core.DirID) (core.Attr, []core.DirEntry, error) {
	p.Compute(c.cfg.Costs.ClientOp)
	owner := c.ownerOfFP(ref.FP)
	rpc := c.nextRPC()
	pkt, req := wire.NewPacket[wire.DirReadReq](owner, c.cfg.ID)
	*req = wire.DirReadReq{
		ReqCommon: c.reqCommon(rpc, owner, ancestors),
		Op:        op,
		Dir:       ref,
	}
	dst := owner
	if c.cfg.Tracker != server.TrackerOwner {
		pkt.DS = &wire.DSHeader{Op: wire.DSQuery, FP: ref.FP}
		dst = c.cfg.SwitchFor(ref.FP)
	}
	v, _, err := c.call(p, dst, pkt, rpc, c.cfg.MaxRetries, c.cfg.RetryTimeout, "rpc-timeout")
	if err != nil {
		return core.Attr{}, nil, err
	}
	resp := v.(*wire.DirReadResp)
	return resp.Attr, resp.Entries, resp.Err.Err()
}

// StatDir reads a directory's attributes.
func (c *Client) StatDir(p *env.Proc, path string) (core.Attr, error) {
	a, _, err := c.dirRead(p, core.OpStatDir, path)
	return a, err
}

// ReadDir lists a directory.
func (c *Client) ReadDir(p *env.Proc, path string) ([]core.DirEntry, error) {
	_, es, err := c.dirRead(p, core.OpReadDir, path)
	return es, err
}

// twoPath drives rename and link through the coordinator, reporting whether
// the final request round was retransmitted (at-least-once ambiguity for the
// fault harnesses, like mutateR).
func (c *Client) twoPath(p *env.Proc, op core.Op, src, dst string) (bool, error) {
	sp := c.op(p, op)
	var resent bool
	// One loop resolves both paths: a stale answer may concern either, so
	// its retry re-resolves both.
	err := c.withResolution(p, src, func(rs resolved) error {
		rd, err := c.resolve(p, dst)
		if err != nil {
			// The source's own error comes first. One resolved from the
			// cache may no longer exist, so it is looked up again before
			// the destination's error is returned.
			if rs.cached {
				return core.ErrStaleCache
			}
			return err
		}
		p.Compute(c.cfg.Costs.ClientOp)
		anc := make([]core.DirID, 0, len(rs.ancestors)+len(rd.ancestors))
		anc = append(append(anc, rs.ancestors...), rd.ancestors...)
		rpc := c.nextRPC()
		coord := c.cfg.Coordinator
		var body wire.Msg
		if op == core.OpRename {
			body = &wire.RenameReq{
				ReqCommon: c.reqCommon(rpc, coord, anc),
				SrcParent: rs.parent, SrcName: rs.name,
				DstParent: rd.parent, DstName: rd.name,
			}
		} else {
			body = &wire.LinkReq{
				ReqCommon: c.reqCommon(rpc, coord, anc),
				SrcParent: rs.parent, SrcName: rs.name,
				DstParent: rd.parent, DstName: rd.name,
			}
		}
		v, re, err := c.call(p, coord, &wire.Packet{Dst: coord, Origin: c.cfg.ID, Body: body}, rpc, c.cfg.MaxRetries, c.cfg.RetryTimeout, "rpc-timeout")
		resent = resent || re
		if err != nil {
			return err
		}
		_, rc := respInfo(v)
		if rc == nil {
			return core.ErrInvalid
		}
		return rc.Err.Err()
	})
	c.endOp(sp, err)
	return resent, err
}

// Rename moves a file or directory.
func (c *Client) Rename(p *env.Proc, src, dst string) error {
	_, err := c.RenameR(p, src, dst)
	return err
}

// RenameR is Rename, reporting whether any retransmission happened.
func (c *Client) RenameR(p *env.Proc, src, dst string) (bool, error) {
	resent, err := c.twoPath(p, core.OpRename, src, dst)
	if err == nil {
		c.invalidatePrefix(src)
	}
	return resent, err
}

// Link creates a hard link dst pointing at src's file (§5.5).
func (c *Client) Link(p *env.Proc, src, dst string) error {
	_, err := c.LinkR(p, src, dst)
	return err
}

// LinkR is Link, reporting whether any retransmission happened.
func (c *Client) LinkR(p *env.Proc, src, dst string) (bool, error) {
	return c.twoPath(p, core.OpLink, src, dst)
}

// dataCall performs one data-node round trip, sent at most 8 times. Data
// accesses queue behind hundreds of microseconds of I/O (plus a replication
// round), so each try waits 20 metadata retry timeouts — retransmitting at
// metadata pace would trigger retransmit storms against a busy data node.
func (c *Client) dataCall(p *env.Proc, node env.NodeID, op core.Op, chunk wire.ChunkKey, bytes int64) (*wire.DataResp, error) {
	sp := c.op(p, op)
	rpc := c.nextRPC()
	pkt, req := wire.NewPacket[wire.DataReq](node, c.cfg.ID)
	req.ReqCommon, req.Op, req.Chunk, req.Bytes = c.reqCommon(rpc, node, nil), op, chunk, bytes
	v, _, err := c.call(p, node, pkt, rpc, 8, 20*c.cfg.RetryTimeout, "data-timeout")
	var resp *wire.DataResp
	if err == nil {
		resp = v.(*wire.DataResp)
		err = resp.Err.Err()
	}
	c.endOp(sp, err)
	return resp, err
}

// WriteChunk writes one content chunk to its primary data node. The ack —
// carrying the primary-assigned version — arrives only after the chunk is
// applied on the full replica set (§7.6 durability discipline).
func (c *Client) WriteChunk(p *env.Proc, node env.NodeID, chunk wire.ChunkKey, bytes int64) (uint64, error) {
	resp, err := c.dataCall(p, node, core.OpWrite, chunk, bytes)
	if err != nil {
		return 0, err
	}
	return resp.Ver, nil
}

// ReadChunk reads one content chunk from its primary data node, returning
// the stored version and length (version 0: never written — the empty
// read).
func (c *Client) ReadChunk(p *env.Proc, node env.NodeID, chunk wire.ChunkKey) (uint64, int64, error) {
	resp, err := c.dataCall(p, node, core.OpRead, chunk, 0)
	if err != nil {
		return 0, 0, err
	}
	return resp.Ver, resp.Bytes, nil
}

// Data performs a data-node read or write of one chunk, addressed by node:
// the shard-addressed surface of the end-to-end workloads (§7.6). The
// cluster's fsapi.FS adapter calls it for every Data op, which the cnn-data
// benchmark workload and the §7.6 figures issue.
func (c *Client) Data(p *env.Proc, node env.NodeID, op core.Op, chunk wire.ChunkKey, bytes int64) error {
	_, err := c.dataCall(p, node, op, chunk, bytes)
	return err
}
