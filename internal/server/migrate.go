package server

import (
	"cmp"
	"slices"

	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/wal"
	"switchfs/internal/wire"
)

// Fingerprint-group migration (§5.5 elastic resharding). The migration unit
// is one fingerprint group: the inodes whose key hashes to the fingerprint,
// plus — for directories — their entry lists and exactly-once watermarks.
// Change-log entries FOR a migrated directory are not moved: they live at the
// servers owning the *children's* fingerprints and re-route to the new owner
// because every push recomputes the owner from the ring on each retry.
// Change-log entries this server logged for NAMES of the group are delivered
// before the group leaves: a name's deferred updates live only at the name's
// owner, which is where a transaction looks for them (entryPending).
//
// The protocol is gate-and-drain, no quiesce:
//
//   - the control plane first pins the group to the destination (a ring
//     override) and installs an arrival gate there (BlockFP): requests that
//     already route to the destination wait on the gate instead of failing
//     against a not-yet-copied group;
//   - the source stops admitting new requests the instant the override lands
//     (checkOwnership fails → ErrRetry → clients re-resolve), while requests
//     admitted before it finish under their busy reference;
//   - once the source reports FPQuiescent (no busy ops, no aggregation in
//     flight, no prepared-but-undecided transaction touching the group) it
//     flushes the deferred updates it logged for the group's names
//     (FlushGroup); quiescent still, the copy runs in one simulator event —
//     atomic with respect to traffic — and the source evicts its copy behind
//     a WAL record;
//   - UnblockFP releases the gate and the destination serves.

// tallyFP counts one admitted directory operation against the directory's
// fingerprint group — the balancer's view of directory heat in migration
// units. Only handleDirRead and detach (rmdir, directory rename) call it,
// where the admitted group is a directory's: a create or stat admits its
// file's own group, whose move shifts no directory heat. Call sites tally
// only after admitFP succeeds: an op bounced with ErrRetry around a
// migration would otherwise count at both the old owner and, on retry, the
// new one, inflating the moved group's apparent heat and letting a retry
// storm ping-pong the same hot group between servers.
func (s *Server) tallyFP(fp core.Fingerprint) {
	s.groupOf(fp).ops++
}

// FPOp is one fingerprint group's operation tally.
type FPOp struct {
	FP core.Fingerprint
	N  uint64
}

// FPOps returns the directory-group op tallies, hottest first (ties broken
// by fingerprint — deterministic for the balancer's selection and the
// metrics' top-K view).
func (s *Server) FPOps() []FPOp {
	var out []FPOp
	for fp, g := range s.groups {
		if g.ops > 0 {
			out = append(out, FPOp{FP: fp, N: g.ops})
		}
	}
	slices.SortFunc(out, func(a, b FPOp) int {
		if c := cmp.Compare(b.N, a.N); c != 0 {
			return c
		}
		return cmp.Compare(a.FP, b.FP)
	})
	return out
}

// ResetFPOps clears the per-group tallies. The balancer calls it after each
// pass so the next decision measures load since the last one, not history.
func (s *Server) ResetFPOps() {
	for fp, g := range s.groups {
		g.ops = 0
		s.release(fp, g)
	}
}

// fpEnter takes a busy reference on a fingerprint group: the op was admitted
// under the current ring and a migration away must wait for fpExit.
func (s *Server) fpEnter(fp core.Fingerprint) {
	s.busy[fp]++
}

// fpExit drops a busy reference.
func (s *Server) fpExit(fp core.Fingerprint) {
	s.busy[fp]--
	if s.busy[fp] <= 0 {
		delete(s.busy, fp)
	}
}

// BlockFP installs the arrival gate for a group migrating INTO this server:
// requests that already route here park on the gate until the copy lands.
// Called by the control plane in the same event as the ring override.
func (s *Server) BlockFP(fp core.Fingerprint) {
	if g := s.groupOf(fp); g.gate == nil {
		g.gate = env.NewFuture()
	}
}

// UnblockFP releases the arrival gate (copy landed, or migration aborted and
// the override rolled back — waiters re-check ownership either way).
func (s *Server) UnblockFP(fp core.Fingerprint) {
	if g := s.groups[fp]; g != nil && g.gate != nil {
		g.gate.Complete(nil)
		g.gate = nil
		s.release(fp, g)
	}
}

// gateWait parks on the group's arrival gate if one is installed. A wait
// longer than one retry timeout resolves to ErrRetry: the client's retry loop
// is the backpressure, and bounding the park keeps a stuck migration from
// accumulating parked handlers.
func (s *Server) gateWait(p *env.Proc, fp core.Fingerprint) error {
	g := s.groups[fp]
	if g == nil || g.gate == nil {
		return nil
	}
	if _, ok := g.gate.WaitTimeout(p, s.cfg.RetryTimeout); !ok {
		return core.ErrRetry
	}
	return nil
}

// admitFP is admitFPs for one group; release its busy reference with fpExit.
func (s *Server) admitFP(p *env.Proc, fp core.Fingerprint) error {
	return s.admitFPs(p, []core.Fingerprint{fp})
}

// admitFPs is the request-admission protocol for a set of fingerprint groups
// — one request's, or a transaction's footprint: ownership under the current
// ring, the migration arrival gate, then ownership again (the gate also
// releases when an aborted migration rolls its override back).
// All-or-nothing: on nil return the caller holds one busy reference per
// group (release with exitFPs); on error it holds none. The final re-check
// pass and the fpEnter pass run in one event, so a migration can never
// observe "owner moved but no busy reference" for an admitted op.
func (s *Server) admitFPs(p *env.Proc, fps []core.Fingerprint) error {
	for _, fp := range fps {
		if err := s.checkOwnership(fp); err != nil {
			return err
		}
		if err := s.gateWait(p, fp); err != nil {
			return err
		}
	}
	for _, fp := range fps {
		if err := s.checkOwnership(fp); err != nil {
			return err
		}
	}
	for _, fp := range fps {
		s.fpEnter(fp)
	}
	return nil
}

// exitFPs drops the busy references admitFPs took.
func (s *Server) exitFPs(fps []core.Fingerprint) {
	for _, fp := range fps {
		s.fpExit(fp)
	}
}

// FPQuiescent reports that nothing on this server straddles the group: no
// admitted client op holds a busy reference, no aggregation of the group is
// in flight, no prepared-but-undecided transaction touches it, and no §5.4.2
// recovery is mid-run. The migration poll loop proceeds to the copy only on
// true — and because the poll, the copy, and the eviction share one simulator
// event, the answer cannot go stale under it.
func (s *Server) FPQuiescent(fp core.Fingerprint) bool {
	if s.recovering || s.busy[fp] > 0 {
		return false
	}
	if g := s.groups[fp]; g != nil && g.agg != nil {
		return false
	}
	return !s.preparedTxnOnFP(fp)
}

// preparedTxnOnFP reports whether a prepared, undecided transaction has an op
// targeting the group. Migrating under one would strand the prepared state:
// the decision would apply the ops to a store that no longer owns (or holds)
// the keys. The scan is order-independent (a pure any-match), so map
// iteration order cannot leak into behavior.
func (s *Server) preparedTxnOnFP(fp core.Fingerprint) bool {
	for _, st := range s.txns {
		for _, op := range st.ops {
			if opFP(op) == fp {
				return true
			}
		}
	}
	return false
}

// PreparedTxnOnFPInWAL reports whether the WAL holds a prepared-but-undecided
// transaction (an unresolved recTxnPrepare record) touching the group. Unlike
// the in-memory s.txns scan, this survives a fail-stop: prepared state is
// durable, and recovery re-registers it and later applies the commit decision
// to this store — so a down server's group is NOT migratable just because its
// volatile references died. The migration control plane consults this before
// copying from a crashed source.
func (s *Server) PreparedTxnOnFPInWAL(fp core.Fingerprint) bool {
	found := false
	s.wal.Walk(wal.LSN(s.wal.Len()), func(r wal.Record) bool {
		if r.Kind != recTxnPrepare || r.Applied {
			return true
		}
		_, _, ops, err := decodeTxnPrepare(r.Payload)
		// An unreadable prepare cannot be shown to spare the group (and
		// leaves the server unrecoverable): hold the group where it is.
		found = err != nil || slices.ContainsFunc(ops, func(op wire.TxnOp) bool { return opFP(op) == fp })
		return !found
	})
	return found
}

// opFP maps a transaction op to the fingerprint group it targets. Dentry ops
// carry only the directory id; they always ride with their directory's inode
// op on the same participant, whose fingerprint covers admission, so they map
// to fingerprint 0 — reserved, never produced by core.FingerprintOf for a
// real group — and txnFPs drops them.
func opFP(op wire.TxnOp) core.Fingerprint {
	switch op.Kind {
	case wire.TxnPutInode, wire.TxnDelInode, wire.TxnAdjustNlink:
		return op.Key.Fingerprint()
	case wire.TxnDirUpdate, wire.TxnPutDentry, wire.TxnDelDentries:
		return op.Dir.FP
	}
	return 0
}

// txnFPs collects into buf's array (grown if short) the distinct fingerprint
// groups a transaction's ops and checks touch, sorted (deterministic
// admission and release order).
func txnFPs(buf []core.Fingerprint, ops []wire.TxnOp, checks []wire.TxnCheck) []core.Fingerprint {
	fps := buf[:0]
	for _, op := range ops {
		if fp := opFP(op); fp != 0 {
			fps = append(fps, fp)
		}
	}
	for _, ck := range checks {
		if fp := ck.Key.Fingerprint(); fp != 0 {
			fps = append(fps, fp)
		}
	}
	slices.Sort(fps)
	return slices.Compact(fps)
}

// StoredFingerprints returns the distinct fingerprints of every inode record
// in the store, sorted. Reconfiguration's convergence loop diffs this against
// the target placement to find records still to migrate.
func (s *Server) StoredFingerprints() []core.Fingerprint {
	seen := make(map[core.Fingerprint]bool)
	var out []core.Fingerprint
	s.kv.Scan(nil, func(k, v []byte) bool {
		key, err := core.DecodeKey(k)
		if err != nil {
			return true // dentry records move with their directory
		}
		fp := key.Fingerprint()
		if !seen[fp] {
			seen[fp] = true
			out = append(out, fp)
		}
		return true
	})
	slices.Sort(out)
	return out
}

// EvictMigrated drops a migrated-away group from this server's store behind
// a WAL record, and retires the group's owner-side state: its quiesce timer,
// dirty mark and tally. The change-logs this server holds for the group's
// directories stay: the new owner's aggregations collect them. Runs in the
// event that copied the group out (the source is FPQuiescent).
func (s *Server) EvictMigrated(fp core.Fingerprint) {
	s.walBuf = encodeEvict(s.walBuf[:0], fp)
	s.logRecord(recEvict)
	s.evictFP(fp)
	if g := s.groups[fp]; g != nil {
		g.quiesce.Cancel()
		g.quiesce, g.dirty, g.ops = nil, false, 0
		s.release(fp, g)
	}
}

// evictFP deletes the group's inode records and, for directories, their
// entry lists. Shared by EvictMigrated and WAL replay (recEvict).
func (s *Server) evictFP(fp core.Fingerprint) {
	var inodeKeys [][]byte
	var dirs []core.DirID
	s.kv.Scan(nil, func(k, v []byte) bool {
		key, err := core.DecodeKey(k)
		if err != nil {
			return true
		}
		if key.Fingerprint() != fp {
			return true
		}
		inodeKeys = append(inodeKeys, append([]byte(nil), k...))
		if in, derr := core.DecodeInode(v); derr == nil && in.Type == core.TypeDir {
			dirs = append(dirs, in.ID)
		}
		return true
	})
	for _, k := range inodeKeys {
		s.kv.Delete(k)
	}
	for _, d := range dirs {
		s.delDentries(d, nil)
	}
}

// delDentries deletes directory dir's entry list. charge, if not nil, runs
// between the scan and the deletes with the number of entries found.
func (s *Server) delDentries(dir core.DirID, charge func(n int)) {
	var keys [][]byte
	s.kv.Scan(core.EntryPrefix(dir), func(k, _ []byte) bool {
		keys = append(keys, append([]byte(nil), k...))
		return true
	})
	if charge != nil {
		charge(len(keys))
	}
	for _, k := range keys {
		s.kv.Delete(k)
	}
}

// DrainAggs waits until this server has no aggregation in flight (as owner
// or as a peer holding change-log locks) and no recovery mid-run. The wait
// re-checks liveness each step — a server that fail-stopped mid-drain loses
// its volatile protocol state with the crash, so there is nothing left to
// drain — and is bounded by the aggregation give-up budget: past it the
// stuck aggregation has itself given up on its unreachable counterpart.
// Reports whether the server reached quiescence (false: budget expired).
func (s *Server) DrainAggs(p *env.Proc) bool {
	const step = 100 * env.Microsecond
	deadline := p.Now() + env.Duration(maxTries)*s.cfg.RetryTimeout
	for {
		if s.dead || s.node.Down() {
			return true
		}
		if s.AggsQuiescent() {
			return true
		}
		if p.Now() >= deadline {
			return false
		}
		p.Sleep(step)
	}
}
