package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/ring"
	"switchfs/internal/rpc"
	"switchfs/internal/wal"
	"switchfs/internal/wire"
)

// loadWALs reads testdata/faulty_run.wal: the four servers' logs of a short
// faulty cluster run (three clients creating, deleting, renaming files and
// directories, linking, chmod-ing; duplicating links, one group migration,
// server 1 crashed and recovered), snapshotted mid-activity so every record
// kind is present and commits, prepares and one decision are still unapplied.
// The payloads were written in earlier record and inode image layouts and
// transcoded once to the ones record.go and core.AppendInode define; the
// owner-side entries, once a record each, were folded into one aggregation
// batch per run of consecutive entries of one directory, and each commit
// whose parent an earlier commit of the same log named in full became a
// recCommitAt naming that commit's slot (15 full commits, 40 slot commits).
// TestReplayEquivalence's digests and entry counts did not change. Format:
// per server a big-endian u32 record count, then per record kind, applied
// flag, u32 payload length, payload.
func loadWALs(t testing.TB) []*wal.Mem {
	t.Helper()
	b, err := os.ReadFile("testdata/faulty_run.wal")
	if err != nil {
		t.Fatal(err)
	}
	var logs []*wal.Mem
	for len(b) > 0 {
		n := binary.BigEndian.Uint32(b)
		b = b[4:]
		log := wal.NewMem()
		for ; n > 0; n-- {
			kind, applied, size := b[0], b[1] == 1, binary.BigEndian.Uint32(b[2:])
			lsn, _ := log.Append(kind, b[6:6+size])
			if applied {
				log.MarkApplied(lsn)
			}
			b = b[6+size:]
		}
		logs = append(logs, log)
	}
	return logs
}

// replayDump is everything replayWAL rebuilds, in one canonical string.
// Inode images, in the store and in prepared ops, are printed decoded: the
// dump pins what the store holds, not how it is encoded. A WAL position is
// printed as the record's place in the redo order, an aggregation batch's
// entries each counted (positions), so it does not depend on how many
// entries one record holds.
func replayDump(s *Server) string { return replayDumpAt(s, positions(s.wal)) }

// replayDumpAt is replayDump with the WAL positions pos gives, those of a
// log the server's log was cut from.
func replayDumpAt(s *Server, pos map[wal.LSN]int) string {
	var sb strings.Builder
	s.kv.Scan(nil, func(k, v []byte) bool {
		if _, err := core.DecodeKey(k); err == nil {
			fmt.Fprintf(&sb, "kv %x=%s\n", k, inodeDump(v))
		} else {
			fmt.Fprintf(&sb, "kv %x=%x\n", k, v)
		}
		return true
	})
	for _, dl := range sortedClogs(nil, s.clogs) {
		fmt.Fprintf(&sb, "clog %+v %+v\n", dl.ref, dl.log.Snapshot())
		for _, c := range dl.commits {
			fmt.Fprintf(&sb, " lsn %d=%d\n", c.id, pos[c.lsn])
		}
	}
	var marks []string
	for k, v := range s.applied {
		marks = append(marks, fmt.Sprintf("applied %v/%d=%d\n", k.dir, k.src, v))
	}
	sort.Strings(marks)
	sb.WriteString(strings.Join(marks, ""))
	// The recorded decisions and the prepared transactions print in record
	// order, as the lists replay once queued them did.
	type redrive struct {
		txn   uint64
		parts []env.NodeID
	}
	var redrives []redrive
	for _, txn := range s.recordedCommits() {
		redrives = append(redrives, redrive{txn: txn, parts: s.txnWAL[txn].parts})
	}
	fmt.Fprintf(&sb, "inval %+v\nredrive %+v\n", s.inval, redrives)
	for _, st := range s.preparedTxns() {
		fmt.Fprintf(&sb, "rearm %d coord %d lsn %d\n", st.id, st.coord, pos[st.lsn])
		for _, op := range st.ops {
			img := op.Inode
			op.Inode = nil
			fmt.Fprintf(&sb, " op %+v inode %s\n", op, inodeDump(img))
		}
	}
	return sb.String()
}

// positions maps each record of log to its place in the redo order, from 1:
// one past the records and batch entries before it.
func positions(log *wal.Mem) map[wal.LSN]int {
	pos, next := map[wal.LSN]int{}, 1
	log.Replay(func(r wal.Record) error {
		pos[r.LSN] = next
		next += recordEntries(r)
		return nil
	})
	return pos
}

// recordEntries is the number of redo units r holds: a batch's entries, or 1.
func recordEntries(r wal.Record) (n int) {
	if r.Kind != recAggBatch {
		return 1
	}
	_, logs, _ := decodeAggBatch(r.Payload)
	for _, l := range logs {
		n += len(l.log.Entries)
	}
	return n
}

// inodeDump prints a stored inode image by value, so the dump does not
// depend on the image's encoding.
func inodeDump(b []byte) string {
	if len(b) == 0 {
		return "none"
	}
	in, err := core.DecodeInode(b)
	if err != nil {
		return fmt.Sprintf("undecodable %x", b)
	}
	return fmt.Sprintf("%+v", *in)
}

// newReplayServer is a one-server deployment over log with the calibrated
// service times and the given core count.
func newReplayServer(t testing.TB, log *wal.Mem, cores int) (*env.Sim, *Server) {
	t.Helper()
	sim := env.NewSim(3)
	t.Cleanup(sim.Shutdown)
	s := New(sim, Config{ID: 100, Cores: cores, Costs: env.DefaultCosts(), WAL: log,
		Ring:      ring.New([]uint32{0}, 0, func(uint32) env.NodeID { return 100 }),
		Peers:     []env.NodeID{100},
		SwitchFor: func(core.Fingerprint) env.NodeID { return 1 }})
	return sim, s
}

// TestReplayEquivalence pins what the redo pass rebuilds: the store, the
// change-logs with their WAL positions, the watermarks, the invalidation list
// and the 2PC state (prepared transactions, recorded commit decisions) are
// those the sequential replay of PR 21 produced from the same four logs
// (digests of this very dump, taken before the inode image became compact
// and while every aggregated entry was a record of its own), and the plan
// charges the same records and entries.
func TestReplayEquivalence(t *testing.T) {
	golden := []struct {
		entries int // records, a batch's entries each counted
		sha     string
	}{
		{90, "489baf22b05332dba94f25a6352b0db7640ff47b512a1fcb132bc66f1f950f70"},
		{51, "08ebc30d1f84fc29d690802bedefa9d6549e8db501d6bbb10be20d141046c75c"},
		{50, "aa860a257e9b6bd9a3217224746cc6c53eb6731cea85e1b219cd4e3491eac41f"},
		{38, "115a79ff3a3ac6ee70bec4f4d0684688c39e1d7085f7fdcb85b21e92d61aa376"},
	}
	logs := loadWALs(t)
	if len(logs) != len(golden) {
		t.Fatalf("%d logs in testdata, want %d", len(logs), len(golden))
	}
	kinds := map[uint8]bool{}
	for i, log := range logs {
		_, s := newReplayServer(t, log, 4)
		plan, err := s.replayWAL()
		if err != nil {
			t.Fatalf("log %d: %v", i, err)
		}
		if n := plan.records(); n != golden[i].entries {
			t.Errorf("log %d: plan covers %d records and entries in %d records, want %d", i, n, log.Len(), golden[i].entries)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(replayDump(s)))); got != golden[i].sha {
			t.Errorf("log %d replays to a different state: digest %s, want %s", i, got, golden[i].sha)
		}
		log.Replay(func(r wal.Record) error { kinds[r.Kind] = true; return nil })
	}
	for _, k := range []uint8{recCommit, recCommitAt, recAggBatch, recInode, recDentry, recDelDentries, recMark, recTxnCommit, recTxnPrepare, recEvict} {
		if !kinds[k] {
			t.Errorf("testdata holds no record of kind %d", k)
		}
	}
}

// TestReplayEveryPrefix replays every prefix of every fixture log, as a crash
// after any append leaves it, twice: once with the applied marks as recorded,
// and once with every mark cleared (the crash came before any mark landed).
// Each replay must succeed; its plan must charge exactly the prefix's records
// and batch entries, a whole log's the count TestReplayEquivalence pins;
// every commit not marked applied must have its entry in its parent's rebuilt
// change-log exactly once, at its own WAL position; every prepare and 2PC
// commit decision not marked applied must be registered exactly once, as a
// prepared transaction or a recorded decision; with the marks as recorded,
// Recover's lock walk must lock each prepared transaction's keys; and a
// second replay of the same prefix must rebuild the same state. The
// checkpointed variant does the same over each prefix cut behind a
// checkpoint halfway through it.
func TestReplayEveryPrefix(t *testing.T) {
	whole := []int{90, 51, 50, 38} // each whole log's, as TestReplayEquivalence pins
	for i, recs := range fixtureRecords(t) {
		t.Run(fmt.Sprintf("log %d", i), func(t *testing.T) {
			t.Parallel()
			replayEveryPrefix(t, recs, whole[i], func(k int, marks bool) *wal.Mem { return logOf(recs[:k], marks, false) })
		})
		t.Run(fmt.Sprintf("log %d checkpointed", i), func(t *testing.T) {
			t.Parallel()
			replayEveryPrefix(t, recs, whole[i], func(k int, marks bool) *wal.Mem {
				log := logOf(recs[:k], marks, false)
				checkpointAt(t, log, recs[:k], k/2)
				return log
			})
		})
	}
}

// TestReplayEveryPrefixTransient is TestReplayEveryPrefix's walk over the
// fixture logs with their payloads handed to Append in one transient buffer
// (logOf), as a server hands over its walBuf.
func TestReplayEveryPrefixTransient(t *testing.T) {
	whole := []int{90, 51, 50, 38}
	for i, recs := range fixtureRecords(t) {
		t.Run(fmt.Sprintf("log %d", i), func(t *testing.T) {
			t.Parallel()
			replayEveryPrefix(t, recs, whole[i], func(k int, marks bool) *wal.Mem { return logOf(recs[:k], marks, true) })
		})
	}
}

// logOf loads recs into a fresh log, each marked applied as recorded when
// marks is set. With transient set every payload goes in through one
// scratch buffer, zeroed once Append returns, as a server reuses its
// walBuf for the next record: the log must keep a copy of its own.
func logOf(recs []wal.Record, marks, transient bool) *wal.Mem {
	log := wal.NewMem()
	var scratch []byte
	for _, r := range recs {
		payload := r.Payload
		if transient {
			scratch = append(scratch[:0], r.Payload...)
			payload = scratch
		}
		lsn := mustAppend(log, r.Kind, payload)
		clear(scratch)
		if marks && r.Applied {
			mustMark(log, lsn)
		}
	}
	return log
}

// replayEveryPrefix is TestReplayEveryPrefix on one log's records, whose
// whole holds the given redo units; build(k, marks) is the log of the first
// k records, marked as recorded or not at all. A log cut behind a checkpoint
// charges its image's entries instead of the records it replaces (an
// aggregated entry writes two keys, so a short prefix's image can charge
// more), and its plan's count is not pinned.
func replayEveryPrefix(t *testing.T, recs []wal.Record, whole int, build func(k int, marks bool) *wal.Mem) {
	for _, marks := range []bool{true, false} {
		units := 0
		for k := 0; k <= len(recs); k++ {
			if k > 0 {
				units += recordEntries(recs[k-1])
			}
			prefix := build(k, marks)
			image, cut := prefix.Image()
			what := fmt.Sprintf("first %d records, marks kept %v, cut at %d", k, marks, cut)
			var dumps [2]string
			for j := range dumps {
				sim, s := newReplayServer(t, prefix, 4)
				plan, err := s.replayWAL()
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if n := plan.records(); n != units && image == nil {
					t.Fatalf("%s: plan charges %d records and entries, the prefix holds %d", what, n, units)
				}
				checkRebuilt(t, what, s, prefix)
				if marks {
					checkPreparedLocked(t, what, sim, s)
				}
				dumps[j] = replayDump(s)
			}
			if dumps[0] != dumps[1] {
				t.Fatalf("%s: two replays rebuilt different states", what)
			}
		}
		if units != whole {
			t.Errorf("%d records and entries, want %d", units, whole)
		}
	}
}

// checkRebuilt holds what replaying log rebuilt on s to the log's unapplied
// records: each commit's entry sits in its parent's change-log once, filed
// under the commit's position, and nothing else is pending; each prepare is
// a prepared transaction and each 2PC commit decision a recorded one, once.
func checkRebuilt(t *testing.T, what string, s *Server, log *wal.Mem) {
	t.Helper()
	commits, prepares, decisions := 0, map[wal.LSN]int{}, map[uint64]int{}
	// Every commit past the cut defines or names a slot, applied or not; one
	// carried below it defines none and, once applied, has no payload.
	slots, cut := imageSlots(t, log)
	log.Replay(func(r wal.Record) error {
		var parent core.DirRef
		var entry core.LogEntry
		if (r.Kind == recCommit || r.Kind == recCommitAt) && (r.LSN > cut || !r.Applied) {
			decode := slots.decode
			if r.LSN <= cut {
				decode = slots.decodeCarried
			}
			var err error
			if _, parent, entry, _, err = decode(r.Kind, r.Payload); err != nil {
				t.Fatalf("%s: commit %d: %v", what, r.LSN, err)
			}
		}
		if r.Applied {
			return nil
		}
		switch r.Kind {
		case recCommit, recCommitAt:
			commits++
			dl := s.clogs[parent.ID]
			if dl == nil {
				t.Fatalf("%s: no change-log for the parent of commit %d", what, r.LSN)
			}
			n := 0
			for _, e := range dl.log.Snapshot() {
				if e == entry {
					n++
				}
			}
			i := slices.IndexFunc(dl.commits, func(c logCommit) bool { return c.id == entry.ID })
			if n != 1 || i < 0 || dl.commits[i].lsn != r.LSN {
				t.Fatalf("%s: commit %d's entry is pending %d times, filed %v", what, r.LSN, n, dl.commits)
			}
		case recTxnPrepare:
			prepares[r.LSN]++
		case recTxnCommit:
			txn, _, _ := decodeTxnCommit(r.Payload)
			decisions[txn]++
		}
		return nil
	})
	if n := s.PendingClogEntries(); n != commits {
		t.Fatalf("%s: %d change-log entries pending for %d unapplied commits", what, n, commits)
	}
	if s.walSlots != slots.count() {
		t.Fatalf("%s: the replayed server counts %d slots, the log defines %d", what, s.walSlots, slots.count())
	}
	filed := 0
	for _, dl := range s.clogs {
		filed += len(dl.commits)
	}
	if filed != commits {
		t.Fatalf("%s: %d commit records filed for %d unapplied commits", what, filed, commits)
	}
	for _, st := range s.txns {
		prepares[st.lsn]--
	}
	for txn := range s.txnWAL {
		decisions[txn]--
	}
	for lsn, n := range prepares {
		if n != 0 {
			t.Fatalf("%s: prepare %d is not a prepared transaction once (%d missing)", what, lsn, n)
		}
	}
	for txn, n := range decisions {
		if n != 0 {
			t.Fatalf("%s: transaction %d's decision is not recorded once (%d missing)", what, txn, n)
		}
	}
}

// checkPreparedLocked runs Recover's lock walk over what replay rebuilt on s,
// on sim. It must not park: each prepared transaction holds the lock of every
// key its ops write, each key held once, and its OK vote is in the prepare
// memo. Only a log whose marks are as recorded is a state a crash leaves
// here: a decision marks its prepare applied in the event it releases the
// keys, so no two unapplied prepares share one, while the fixture logs with
// their marks cleared hold such pairs.
func checkPreparedLocked(t *testing.T, what string, sim *env.Sim, s *Server) {
	t.Helper()
	locked := false
	sim.Spawn(s.cfg.ID, func(p *env.Proc) {
		s.lockPreparedTxns(p)
		locked = true
	})
	sim.RunFor(0)
	if !locked {
		t.Fatalf("%s: the lock walk parked", what)
	}
	held := 0
	for _, st := range s.preparedTxns() {
		var keys []core.Key
		for _, l := range st.locks {
			if s.locks[l.key] != l || l.pins != 1 {
				t.Fatalf("%s: transaction %d holds %+v, the table has %p, pinned %d times", what, st.id, l.key, s.locks[l.key], l.pins)
			}
			keys = append(keys, l.key)
		}
		held += len(keys)
		for _, op := range st.ops {
			key := op.Key
			switch op.Kind {
			case wire.TxnDirUpdate:
				key = op.Dir.Key
			case wire.TxnPutDentry, wire.TxnDelDentries:
				continue
			}
			if !slices.Contains(keys, key) {
				t.Fatalf("%s: transaction %d does not hold %+v, which its op %v writes", what, st.id, key, op.Kind)
			}
		}
		vote := core.Errno(255)
		if s.prepares.Admit(st.coord, st.id, 0, func(e core.Errno) { vote = e }) || vote != core.ErrnoOK {
			t.Fatalf("%s: transaction %d's vote is %v, want ok", what, st.id, vote.Err())
		}
	}
	if held != s.LockedKeys() {
		t.Fatalf("%s: prepared transactions hold %d locks, the table has %d", what, held, s.LockedKeys())
	}
}

// redoRecords builds payloads for the lane tests through the real encoders.
type redoRecords struct{ log *wal.Mem }

func (r redoRecords) commit(dir core.DirRef, name string) {
	e := core.LogEntry{ID: uint64(r.log.Len() + 1), Op: core.OpCreate, Name: name, Type: core.TypeRegular}
	in := &core.Inode{Attr: core.Attr{Type: core.TypeRegular, Nlink: 1}}
	mustAppend(r.log, recCommit, encodeCommit(nil, dir, e, in))
}

// aggBatch logs one batch in which each of srcs applies a create of name.
func (r redoRecords) aggBatch(dir core.DirRef, name string, srcs ...env.NodeID) {
	e := core.LogEntry{ID: uint64(r.log.Len() + 1), Op: core.OpCreate, Name: name, Type: core.TypeRegular}
	logs := make([]aggLog, len(srcs))
	for i, src := range srcs {
		logs[i] = aggLog{from: src, log: wire.DirLog{Entries: []core.LogEntry{e}}}
	}
	mustAppend(r.log, recAggBatch, encodeAggBatch(nil, dir, logs))
}

func (r redoRecords) inode(key core.Key) {
	mustAppend(r.log, recInode, encodeInodeRec(nil, key, &core.Inode{Attr: core.Attr{Type: core.TypeRegular, Nlink: 1}}))
}

func (r redoRecords) dentry(dir core.DirID, name string) {
	mustAppend(r.log, recDentry, encodeDentryRec(nil, dir, name, true, core.TypeRegular, 0o644))
}

func (r redoRecords) delDentries(dir core.DirID) {
	mustAppend(r.log, recDelDentries, encodeDelDentries(nil, dir))
}

func (r redoRecords) txnCommit(txn uint64) {
	mustAppend(r.log, recTxnCommit, encodeTxnCommit(nil, txn, nil))
}

// TestRedoLanes is the table test of the redo charge: which lane a record
// takes is a pure function of the key it writes, records that span keys are
// serial barriers, and the pass costs its longest lane.
func TestRedoLanes(t *testing.T) {
	dir := core.DirRef{ID: core.DirID{1, 2, 3, 4}, Key: core.Key{PID: core.RootDirID, Name: "d"}}
	dir.FP = dir.Key.Fingerprint()
	name := func(i int) string { return fmt.Sprintf("f%03d", i) }

	t.Run("pure and per-key order kept", func(t *testing.T) {
		// The same keys written in two different interleavings, with other
		// records in between, load the lanes identically; and every record of
		// one key sits on one lane whatever kind it is.
		build := func(order []int, noise bool) []int {
			r := redoRecords{wal.NewMem()}
			for _, i := range order {
				r.commit(dir, name(i))
				if noise {
					r.inode(core.Key{PID: dir.ID, Name: name(i)})
				}
			}
			_, s := newReplayServer(t, r.log, 4)
			plan, err := s.replayWAL()
			if err != nil || len(plan.sections) != 1 {
				t.Fatalf("plan %+v, err %v", plan, err)
			}
			return plan.sections[0]
		}
		fwd, rev := []int{}, []int{}
		for i := 0; i < 64; i++ {
			fwd = append(fwd, i)
			rev = append(rev, 63-i)
		}
		a, b, c := build(fwd, false), build(rev, false), build(fwd, true)
		for l := range a {
			if a[l] != b[l] {
				t.Errorf("lane %d carries %d records in one order, %d in the other", l, a[l], b[l])
			}
			if c[l] != 2*a[l] {
				t.Errorf("lane %d: a key's commit and inode records split across lanes (%d, want %d)", l, c[l], 2*a[l])
			}
			if a[l] == 0 {
				t.Errorf("lane %d empty: 64 keys did not spread over 4 lanes: %v", l, a)
			}
		}
	})

	t.Run("dentry and aggregation entry share the (directory, name) lane", func(t *testing.T) {
		for i := 0; i < 16; i++ {
			r := redoRecords{wal.NewMem()}
			r.dentry(dir.ID, name(i))
			r.aggBatch(dir, name(i), 200, 201)
			_, s := newReplayServer(t, r.log, 4)
			s.storeInode(dir.Key, &core.Inode{ID: dir.ID, Attr: core.Attr{Type: core.TypeDir}})
			plan, _ := s.replayWAL()
			if plan.longest() != 3 {
				t.Fatalf("name %d: three records of one entry spread over lanes %v", i, plan.sections)
			}
		}
	})

	t.Run("barriers are serial", func(t *testing.T) {
		r := redoRecords{wal.NewMem()}
		for i := 0; i < 40; i++ {
			r.commit(dir, name(i))
		}
		r.delDentries(dir.ID)
		r.txnCommit(9)
		for i := 40; i < 80; i++ {
			r.commit(dir, name(i))
		}
		_, s := newReplayServer(t, r.log, 4)
		plan, err := s.replayWAL()
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.sections) != 3 || plan.sections[1][0] != 2 {
			t.Fatalf("sections %v: want parallel, one serial run of 2, parallel", plan.sections)
		}
		want := 2
		for _, i := range []int{0, 2} {
			m, sum := 0, 0
			for _, k := range plan.sections[i] {
				m, sum = max(m, k), sum+k
			}
			if sum != 40 {
				t.Errorf("section %d holds %d records, want 40", i, sum)
			}
			want += m
		}
		if plan.longest() != want || plan.records() != 82 {
			t.Errorf("longest %d of %d records, want %d of 82", plan.longest(), plan.records(), want)
		}
	})

	t.Run("charge is the longest lane", func(t *testing.T) {
		each := env.DefaultCosts().WALReplay
		for _, c := range []struct {
			what  string
			cores int
			fill  func(r redoRecords)
			want  func(p *redoPlan) int // records on the critical path
		}{
			{"one core pays every record", 1, func(r redoRecords) {
				for i := 0; i < 100; i++ {
					r.commit(dir, name(i))
				}
				r.delDentries(dir.ID)
			}, func(*redoPlan) int { return 101 }},
			{"one hot key gets no speed-up", 4, func(r redoRecords) {
				for i := 0; i < 100; i++ {
					r.inode(core.Key{PID: dir.ID, Name: "hot"})
				}
			}, func(*redoPlan) int { return 100 }},
			{"spread keys pay the longest lane", 4, func(r redoRecords) {
				for i := 0; i < 400; i++ {
					r.commit(dir, name(i))
				}
			}, func(p *redoPlan) int {
				if l := p.longest(); l < 100 || l > 130 {
					t.Errorf("400 keys over 4 lanes: longest lane %d, want about 100", l)
				}
				return p.longest()
			}},
		} {
			r := redoRecords{wal.NewMem()}
			c.fill(r)
			sim, s := newReplayServer(t, r.log, c.cores)
			var took env.Duration
			sim.Spawn(100, func(p *env.Proc) {
				plan, err := s.replayWAL()
				if err != nil {
					t.Error(err)
				}
				start := p.Now()
				for _, lanes := range plan.sections {
					burnLanes(p, lanes, each)
				}
				took = p.Now() - start
				if want := env.Duration(c.want(&plan)) * each; took != want {
					t.Errorf("%s: redo took %v, want %v", c.what, took, want)
				}
			})
			sim.Run()
		}
	})
}

// TestRecoverChargesLongestLane drives Recover itself on a one-server Sim:
// the redo phase costs longest lane × WALReplay, the counters say so, and a
// one-core server pays today's n × WALReplay.
func TestRecoverChargesLongestLane(t *testing.T) {
	for _, cores := range []int{1, 4} {
		log := loadWALs(t)[0]
		sim, s := newReplayServer(t, log, cores)
		s.Crash()
		r := Restart(sim, s.cfg, log)
		sim.Spawn(100, func(p *env.Proc) {
			if err := r.Recover(p); err != nil {
				t.Error(err)
			}
		})
		sim.Run()
		st := r.Stats
		each := uint64(env.DefaultCosts().WALReplay)
		if st.RecoverRedoRecords != 90 || st.RecoverRedoUs != st.RecoverRedoLongestLane*each/1000 {
			t.Errorf("%d cores: redo %d µs for %d records, longest lane %d", cores, st.RecoverRedoUs, st.RecoverRedoRecords, st.RecoverRedoLongestLane)
		}
		if cores == 1 && st.RecoverRedoLongestLane != 90 {
			t.Errorf("one core: %d records on the critical path, want all 90", st.RecoverRedoLongestLane)
		}
		if cores == 4 && st.RecoverRedoLongestLane >= 90 {
			t.Errorf("four cores: no redo speed-up (%d of 90 records on the critical path)", st.RecoverRedoLongestLane)
		}
		if !r.Serving() {
			t.Errorf("%d cores: not serving after Recover", cores)
		}
	}
}

// TestRecoverErrorFailStops: a log that cannot be replayed leaves the server
// fail-stopped — nothing parked, nothing serving, node down — whatever the
// record kind that cannot be parsed: one row per kind, its payload cut inside
// its fixed part, one uvarint that overflows, one unknown kind, and a slot
// commit that names slot 0 or a slot no record defined (each slot commit
// follows one full commit, which defines slot 1). Recover returns an error;
// no decoder panics.
func TestRecoverErrorFailStops(t *testing.T) {
	dir := core.DirRef{ID: core.DirID{1, 2, 3, 4}, Key: core.Key{PID: core.RootDirID, Name: "d"}}
	dir.FP = dir.Key.Fingerprint()
	e := core.LogEntry{ID: 7, Time: 99, Op: core.OpCreate, Name: "f", Type: core.TypeRegular, Perm: 0o644}
	key := core.Key{PID: dir.ID, Name: e.Name}
	in := &core.Inode{Attr: core.Attr{Type: core.TypeRegular, Perm: 0o644, Nlink: 1}}
	ops := []wire.TxnOp{{Kind: wire.TxnPutInode, Key: key, Inode: core.EncodeInode(in), Dir: dir, Entry: e}}
	batch := func(es ...core.LogEntry) []byte {
		return encodeAggBatch(nil, dir, []aggLog{{from: 3, log: wire.DirLog{Entries: es}}})
	}
	less := e
	less.ID--
	for _, c := range []struct {
		name    string
		kind    uint8
		payload []byte
	}{
		{"unknown kind", 99, []byte("not a record")},
		{"commit cut in its directory", recCommit, encodeCommit(nil, dir, e, in)[:40]},
		{"slot commit naming slot 0", recCommitAt, encodeCommitAt(nil, 0, e, in)},
		{"slot commit naming a slot not yet defined", recCommitAt, encodeCommitAt(nil, 2, e, in)},
		{"slot commit cut in its entry", recCommitAt, encodeCommitAt(nil, 1, e, in)[:4]},
		{"aggregation batch cut in its directory", recAggBatch, batch(e)[:20]},
		{"aggregation batch cut in its entry", recAggBatch, batch(e)[:len(batch(e))-1]},
		{"aggregation batch with a zero byte appended", recAggBatch, append(batch(e), 0)},
		{"aggregation batch with an id delta that wraps", recAggBatch,
			appendEntryFields(binary.AppendUvarint(batch(e), less.ID-e.ID), less)},
		{"aggregation batch without sources", recAggBatch, appendDirRef(nil, dir)},
		{"aggregation batch with a source without entries", recAggBatch, append(append(appendDirRef(nil, dir), 3, 0), batch(e)[len(appendDirRef(nil, dir)):]...)},
		{"inode cut in its key", recInode, encodeInodeRec(nil, key, in)[:10]},
		{"dentry cut in its flags", recDentry, encodeDentryRec(nil, dir.ID, e.Name, true, e.Type, e.Perm)[:33]},
		{"entry-list drop cut in its directory", recDelDentries, encodeDelDentries(nil, dir.ID)[:16]},
		{"watermark cut in its directory", recMark, encodeMark(nil, 3, dir.ID, 9)[:20]},
		{"2PC commit cut in its transaction id", recTxnCommit, encodeTxnCommit(nil, 1<<20, []env.NodeID{100})[:1]},
		{"eviction cut in its fingerprint", recEvict, encodeEvict(nil, dir.FP)[:4]},
		{"2PC prepare cut in its op", recTxnPrepare, encodeTxnPrepare(nil, 9, 100, ops)[:10]},
		{"uvarint overflow", recMark, bytes.Repeat([]byte{0xff}, 11)},
	} {
		t.Run(c.name, func(t *testing.T) {
			log := wal.NewMem()
			if c.kind == recCommitAt {
				mustAppend(log, recCommit, encodeCommit(nil, dir, e, in))
			}
			mustAppend(log, c.kind, c.payload)
			sim, s := newReplayServer(t, log, 4)
			var err error
			sim.Spawn(100, func(p *env.Proc) { err = s.Recover(p) })
			sim.Run()
			if err == nil {
				t.Fatal("Recover replayed the record")
			}
			if s.Serving() || !s.node.Down() || len(s.parked) != 0 {
				t.Fatalf("after a failed Recover: serving=%v down=%v parked=%d", s.Serving(), s.node.Down(), len(s.parked))
			}
			s.handle(nil, 9000, &wire.Packet{Body: &wire.LookupReq{ReqCommon: wire.ReqCommon{RPC: 1, Client: 9000}}})
			if len(s.parked) != 0 {
				t.Fatal("a fail-stopped server parked a request")
			}
		})
	}
}

// restartedAt builds owner's incarnation booted at virtual time boot, with
// peer as its one peer: a restarted server, whose ids start above zero.
func restartedAt(t *testing.T, sim *env.Sim, boot env.Duration, owner, peer env.NodeID) *Server {
	t.Helper()
	var s *Server
	sim.After(boot, func() {
		s = New(sim, Config{ID: owner,
			Ring:      ring.New([]uint32{0}, 0, func(uint32) env.NodeID { return owner }),
			Peers:     []env.NodeID{owner, peer},
			SwitchFor: func(core.Fingerprint) env.NodeID { return 1 }})
	})
	sim.Run()
	return s
}

// TestCloneInvalNumbersAbovePredecessor: a restarted server clones its peer's
// invalidation list one entry per directory, so it counts fewer entries than
// its predecessor did for a directory invalidated twice. A client that
// consumed the predecessor's entries through sequence 2 must still find the
// successor's next invalidation stale, and be shipped it.
func TestCloneInvalNumbersAbovePredecessor(t *testing.T) {
	sim := env.NewSim(3)
	t.Cleanup(sim.Shutdown)
	const owner, peer env.NodeID = 100, 101
	d, x := core.DirID{1, 2, 3, 4}, core.DirID{5, 6, 7, 8}
	sim.AddNode(peer, env.NodeConfig{Cores: 1, Handler: func(p *env.Proc, from env.NodeID, msg any) {
		if req, ok := msg.(*wire.Packet).Body.(*wire.CloneInvalReq); ok {
			p.Send(from, &wire.Packet{Dst: from, Origin: peer, Body: &wire.CloneInvalResp{CtlResp: wire.CtlResp{ID: req.ID},
				Entries: []wire.InvalEntry{{Seq: 1, Dir: d}, {Seq: 2, Dir: d}}}})
		}
	}})
	s := restartedAt(t, sim, 5*env.Millisecond, owner, peer)
	sim.Spawn(owner, s.cloneInval)
	sim.Run()
	if _, ok := s.invalSet[d]; !ok {
		t.Fatal("the peer's list was not cloned")
	}
	s.addInval(x)

	req := &wire.ReqCommon{InvalSeq: 2, Ancestors: []core.DirID{x}}
	if err := s.checkAncestors(req); !errors.Is(err, core.ErrStaleCache) {
		t.Errorf("an ancestor invalidated after the restart passed a client at sequence 2: %v", err)
	}
	if rc := s.respCommon(req, nil); !slices.ContainsFunc(rc.Inval, func(e wire.InvalEntry) bool { return e.Dir == x }) {
		t.Errorf("a response to a client at sequence 2 shipped %+v, without the new invalidation", rc.Inval)
	}
}

// aggOwnerRig is aggOwner's incarnation booted at boot, with the given
// service times, aggregating the group of dir with one peer, aggPeer. A
// switch stub forwards each fetch to the peer, and the peer answers every
// fetch with its log of dir, holding the ids entries, then sends copies more
// of that reply, one every 100 ns; it keeps every ack it receives in acks.
type aggOwnerRig struct {
	sim     *env.Sim
	s       *Server
	dir     core.DirRef
	entries []uint64
	copies  int
	acks    []*wire.AggAck
}

const aggOwner, aggPeer env.NodeID = 100, 101

func newAggOwnerRig(t *testing.T, boot env.Duration, costs env.Costs, entries ...uint64) *aggOwnerRig {
	t.Helper()
	const owner, peer, sw = aggOwner, aggPeer, env.NodeID(1)
	r := &aggOwnerRig{sim: env.NewSim(3), entries: entries}
	t.Cleanup(r.sim.Shutdown)
	r.dir = core.DirRef{ID: core.DirID{1, 2, 3, 4}, Key: core.Key{PID: core.RootDirID, Name: "d"}}
	r.dir.FP = r.dir.Key.Fingerprint()
	r.sim.AddNode(sw, env.NodeConfig{Handler: func(p *env.Proc, _ env.NodeID, msg any) {
		if pkt := msg.(*wire.Packet); pkt.DS != nil && pkt.DS.Op == wire.DSRemove {
			p.Send(peer, &wire.Packet{Dst: peer, Origin: pkt.Origin, Body: pkt.Body})
		}
	}})
	r.sim.AddNode(peer, env.NodeConfig{Cores: 1, Handler: func(p *env.Proc, _ env.NodeID, msg any) {
		switch m := msg.(*wire.Packet).Body.(type) {
		case *wire.AggAck:
			r.acks = append(r.acks, m)
		case *wire.AggFetch:
			body := r.reply(m.AggID, r.entries...)
			p.Send(owner, &wire.Packet{Dst: owner, Origin: peer, Body: body})
			for range r.copies {
				p.Sleep(100 * env.Nanosecond)
				p.Send(owner, &wire.Packet{Dst: owner, Origin: peer, Body: body})
			}
		}
	}})
	r.sim.After(boot, func() {
		r.s = New(r.sim, Config{ID: owner, Costs: costs,
			Ring:      ring.New([]uint32{0}, 0, func(uint32) env.NodeID { return owner }),
			Peers:     []env.NodeID{owner, peer},
			SwitchFor: func(core.Fingerprint) env.NodeID { return sw }})
	})
	r.sim.Run()
	return r
}

// reply is the peer's answer to aggregation id: its log of the directory,
// holding the ids entries.
func (r *aggOwnerRig) reply(id uint64, entries ...uint64) *wire.AggEntries {
	l := wire.DirLog{Dir: r.dir}
	for _, e := range entries {
		l.Entries = append(l.Entries, core.LogEntry{ID: e, Op: core.OpCreate, Name: fmt.Sprintf("x%d", e)})
	}
	return &wire.AggEntries{AggID: id, FP: r.dir.FP, From: aggPeer, Logs: []wire.DirLog{l}}
}

// TestHandleAggEntriesTable covers the answers an AggEntries can get: an
// empty ack for a predecessor's aggregation, none while the aggregation
// collects, and for one this incarnation finished, however long ago, the ack
// the (peer, directory) watermark gives.
func TestHandleAggEntriesTable(t *testing.T) {
	const owner, peer = aggOwner, aggPeer
	const boot = 5 * env.Millisecond
	r := newAggOwnerRig(t, boot, env.Costs{}, 3)
	s, sim := r.s, r.sim

	// 258 aggregations, each collecting the peer's entry 3: the first applies
	// it and raises the watermark to 3, the 257 after it find it applied.
	sim.Spawn(owner, func(p *env.Proc) {
		for range 1 + 257 {
			s.aggregateFP(p, r.dir.FP, &aggOpts{force: true})
		}
	})
	sim.Run()
	if len(r.acks) != 258 || maxIDOf(r.acks[0], r.dir.ID) != 3 || maxIDOf(r.acks[257], r.dir.ID) != 3 {
		t.Fatalf("%d aggregations acked, want 258 acks through entry 3", len(r.acks))
	}
	first, latest := r.acks[0].AggID, r.acks[257].AggID

	// Ids the predecessors issued: an early one, and the last one a
	// predecessor booted a nanosecond before this incarnation can have issued.
	early := core.NewIncarnation(uint64(owner), 0)
	last := core.NewIncarnation(uint64(owner), uint64(boot-1))
	active := &aggCtx{Awaiting: rpc.Awaiting{Expect: []env.NodeID{peer}}, id: s.ids.Next()}
	s.groupOf(r.dir.FP).agg = active

	for _, c := range []struct {
		what     string
		id       uint64
		entries  []uint64
		wantAck  bool
		wantMax  uint64
		released uint64
	}{
		{"a predecessor's id: empty ack, the peer keeps its entries", early.Next(), []uint64{3}, true, 0, 1},
		{"the last id a predecessor can have issued", last.Next(), []uint64{3}, true, 0, 2},
		{"the group's aggregation in flight: collected, no ack yet", active.id, []uint64{3}, false, 0, 2},
		{"finished: the ack the watermark gives", latest, []uint64{3}, true, 3, 2},
		{"finished, entries partly above the mark: through the mark", latest, []uint64{2, 3, 5}, true, 3, 2},
		{"finished, entries wholly above the mark: an empty ack", latest, []uint64{4, 5}, true, 0, 2},
		{"finished 257 aggregations earlier: the ack the watermark gives", first, []uint64{3}, true, 3, 2},
	} {
		r.acks = nil
		sim.Spawn(owner, func(p *env.Proc) { s.handleAggEntries(p, nil, r.reply(c.id, c.entries...)) })
		sim.Run()
		if got := len(r.acks) == 1; got != c.wantAck {
			t.Fatalf("%s: %d acks", c.what, len(r.acks))
		}
		if c.wantAck && (r.acks[0].AggID != c.id || maxIDOf(r.acks[0], r.dir.ID) != c.wantMax) {
			t.Errorf("%s: ack %+v", c.what, r.acks[0])
		}
		if s.Stats.AggReleased != c.released {
			t.Errorf("%s: agg_released %d, want %d", c.what, s.Stats.AggReleased, c.released)
		}
	}
	if _, done := active.Done.Peek(); !done || len(active.logs) != 1 {
		t.Errorf("the active aggregation did not collect its peer's log: %+v", active)
	}
}

// TestAggEntriesDuringApplyUnanswered: the peer sends its reply and then 500
// copies of it, one every 100 ns, so copies reach the owner while it applies
// the first (which takes microseconds of service time). Those copies get no
// reply: the watermarks do not cover the entry yet, so an ack from them would
// be empty, and the peer would keep an entry the owner is applying. Every ack
// the peer does get — the completion ack and the re-acks of the copies that
// arrive after it — covers the entry.
func TestAggEntriesDuringApplyUnanswered(t *testing.T) {
	r := newAggOwnerRig(t, 0, env.DefaultCosts(), 3)
	r.copies = 500
	r.s.storeInode(r.dir.Key, &core.Inode{ID: r.dir.ID, Attr: core.Attr{Type: core.TypeDir, Perm: core.DefaultDirPerm, Nlink: 2}})
	r.sim.Spawn(aggOwner, func(p *env.Proc) { r.s.aggregateFP(p, r.dir.FP, &aggOpts{force: true}) })
	r.sim.Run()
	if len(r.acks) == 0 || len(r.acks) > r.copies {
		t.Errorf("%d acks for a reply and %d copies: want the completion ack, and no reply to the copies that arrived during the apply",
			len(r.acks), r.copies)
	}
	for _, a := range r.acks {
		if maxIDOf(a, r.dir.ID) != 3 {
			t.Fatalf("an ack %+v does not cover the applied entry 3", a)
		}
	}
}

// maxIDOf returns the largest id a acknowledges of dir (0: none).
func maxIDOf(a *wire.AggAck, dir core.DirID) uint64 {
	for _, m := range a.MaxIDs {
		if m.Dir == dir {
			return m.MaxID
		}
	}
	return 0
}

// BenchmarkRecover is the recovery layer benchmark (`make bench-layers`):
// Restart + Recover of a 4 096-record mixed WAL on a one-server Sim.
func BenchmarkRecover(b *testing.B) {
	const records = 4096
	dir := core.DirRef{ID: core.DirID{1, 2, 3, 4}, Key: core.Key{PID: core.RootDirID, Name: "d"}}
	dir.FP = dir.Key.Fingerprint()
	log := wal.NewMem()
	r := redoRecords{log}
	r.inode(dir.Key)
	for i := 0; log.Len() < records; i++ {
		name := fmt.Sprintf("file-%06d", i)
		switch i % 8 {
		case 0, 1, 2:
			r.commit(dir, name)
			log.MarkApplied(wal.LSN(log.Len()))
		case 3, 4, 5:
			r.aggBatch(dir, name, 200+env.NodeID(i%3))
		case 6:
			r.dentry(dir.ID, name)
		case 7:
			r.inode(core.Key{PID: dir.ID, Name: name})
			if i%512 == 7 {
				r.txnCommit(uint64(i))
				log.MarkApplied(wal.LSN(log.Len()))
			}
		}
	}
	var virtual env.Duration
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, s := newReplayServer(b, wal.NewMem(), 4)
		s.Crash()
		srv := Restart(sim, s.cfg, log)
		sim.Spawn(100, func(p *env.Proc) {
			start := p.Now()
			if err := srv.Recover(p); err != nil {
				b.Error(err)
			}
			virtual = p.Now() - start
		})
		sim.Run()
		sim.Shutdown()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/records, "ns/record")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N)/records, "allocs/record")
	b.ReportMetric(float64(virtual)/1e3, "virtual-us")
}

// TestFailStopEndsPeerAggregation: an incarnation that fail-stops while it
// answers an aggregation fetch — its owner silent, the change-log locked —
// leaves the retry loop at its next timeout: no process of it is alive one
// RetryTimeout after the crash, where it used to spin its hundred silent
// rounds (200 ms of virtual time every crash run had to drain).
func TestFailStopEndsPeerAggregation(t *testing.T) {
	sim := env.NewSim(3)
	t.Cleanup(sim.Shutdown)
	const peer, owner env.NodeID = 100, 101
	replies := 0
	sim.AddNode(owner, env.NodeConfig{Cores: 1, Handler: func(p *env.Proc, from env.NodeID, msg any) {
		if _, ok := msg.(*wire.Packet).Body.(*wire.AggEntries); ok {
			replies++ // never acknowledged
		}
	}})
	s := New(sim, Config{ID: peer,
		Ring:      ring.New([]uint32{0}, 0, func(uint32) env.NodeID { return owner }),
		Peers:     []env.NodeID{peer, owner},
		SwitchFor: func(core.Fingerprint) env.NodeID { return 1 }})
	dir := core.DirRef{ID: core.DirID{1, 2, 3, 4}, Key: core.Key{PID: core.RootDirID, Name: "d"}}
	dir.FP = dir.Key.Fingerprint()
	s.clogOf(dir).log.Append(core.LogEntry{ID: 1, Op: core.OpCreate, Name: "x"})

	const crashAt = 3 * env.Millisecond
	sim.Spawn(peer, func(p *env.Proc) {
		s.handleAggFetch(p, nil, &wire.AggFetch{AggID: 7, FP: dir.FP, Owner: owner})
	})
	sim.After(crashAt, s.Crash)
	end := sim.Run()
	if replies != 2 {
		t.Errorf("%d replies reached the owner, want the first and one retransmission before the crash", replies)
	}
	if limit := crashAt + s.cfg.RetryTimeout; end > limit {
		t.Errorf("the simulation drained at %v: the dead incarnation was still running after %v", end, limit)
	}
	if s.clogs[dir.ID].log.Len() != 1 {
		t.Error("the abandoned aggregation trimmed the change-log")
	}
}

// commitParents resolves each commit record of log, in log order, to the kind
// it was logged as and, by its entry's name, its parent.
func commitParents(t *testing.T, log *wal.Mem) (kinds []uint8, parents map[string]core.DirRef) {
	t.Helper()
	parents = map[string]core.DirRef{}
	var slots commitSlots
	log.Replay(func(r wal.Record) error {
		if r.Kind != recCommit && r.Kind != recCommitAt {
			return nil
		}
		_, parent, entry, _, err := slots.decode(r.Kind, r.Payload)
		if err != nil {
			t.Fatalf("commit %d: %v", r.LSN, err)
		}
		kinds = append(kinds, r.Kind)
		parents[entry.Name] = parent
		return nil
	})
	return kinds, parents
}

// createsIn sends the rig's server, 1 ms apart, one create of each name into
// its parent in want, RPC ids from rpc on, and runs the simulation until it
// drains.
func (r *rig) createsIn(want map[string]core.DirRef, rpc uint64, names ...string) {
	for i, name := range names {
		r.send(rigServer, env.Duration(i+1)*env.Millisecond, &wire.MutateReq{
			ReqCommon: wire.ReqCommon{RPC: rpc + uint64(i), Client: rigClient},
			Op:        core.OpCreate, Parent: want[name], Name: name})
	}
	r.sim.Run()
}

func testDirRef(id uint64, name string) core.DirRef {
	d := core.DirRef{ID: core.DirID{id, 1, 2, 3}, Key: core.Key{PID: core.RootDirID, Name: name}}
	d.FP = d.Key.Fingerprint()
	return d
}

// TestRenameRedefinesSlot: a directory's commits name it by its slot until a
// rename re-keys its change-log (rekeyClog); the next commit into it names
// it in full, under its new key, and defines the slot the commits after it
// name. (The store holds more than the commits log, so no checkpoint
// restarts the slots meanwhile.)
func TestRenameRedefinesSlot(t *testing.T) {
	r := newRig(t)
	padStore(r.s, 4<<10)
	d, moved := testDirRef(7, "d0"), testDirRef(7, "d1")
	want := map[string]core.DirRef{"a": d, "b": d, "c": moved, "e": moved}
	r.createsIn(want, 1, "a", "b", "c", "e")
	kinds, parents := commitParents(t, r.s.wal)
	if !slices.Equal(kinds, []uint8{recCommit, recCommitAt, recCommit, recCommitAt}) {
		t.Errorf("commit kinds %v, want full, slot, full after the rename, slot", kinds)
	}
	if !maps.Equal(parents, want) {
		t.Errorf("the log resolves the commits to %v, want %v", parents, want)
	}
}

// TestSlotsContinueAcrossRestart: a restarted server numbers the slots its
// commits define after those its predecessors' records define. Three
// directories get a commit each, the server crashes and recovers, two
// commits go into a new directory — the second names the slot the first
// defined — and the server crashes again: the log resolves every commit to
// its own parent, and a replay of it counts four slots. (Each incarnation's
// store holds more than its commits log, so no checkpoint restarts the slots
// meanwhile.)
func TestSlotsContinueAcrossRestart(t *testing.T) {
	r := newRig(t)
	padStore(r.s, 4<<10)
	want := map[string]core.DirRef{}
	for i := range 3 {
		want[fmt.Sprintf("f%d", i)] = testDirRef(uint64(10+i), fmt.Sprintf("d%d", i))
	}
	r.createsIn(want, 1, "f0", "f1", "f2")
	log := r.s.wal
	r.s.Crash()
	r.s = Restart(r.sim, r.s.cfg, log)
	r.sim.Spawn(rigServer, func(p *env.Proc) {
		if err := r.s.Recover(p); err != nil {
			t.Error(err)
		}
	})
	r.sim.Run()
	padStore(r.s, 4<<10)
	fresh := testDirRef(20, "new")
	want["g"], want["h"] = fresh, fresh
	r.createsIn(want, 10, "g", "h")
	r.s.Crash()

	kinds, parents := commitParents(t, log)
	if !slices.Equal(kinds, []uint8{recCommit, recCommit, recCommit, recCommit, recCommitAt}) {
		t.Errorf("commit kinds %v, want four full and one slot", kinds)
	}
	if !maps.Equal(parents, want) {
		t.Errorf("the log resolves the commits to %v, want %v", parents, want)
	}
	_, s := newReplayServer(t, log, 4)
	if _, err := s.replayWAL(); err != nil || s.walSlots != 4 {
		t.Errorf("replay: %d slots, %v; want 4", s.walSlots, err)
	}
}
