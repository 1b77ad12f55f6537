package server

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/ring"
	"switchfs/internal/wal"
	"switchfs/internal/wire"
)

// newCostedServer is newTestServer with the calibrated service times, so
// virtual durations can be compared.
func newCostedServer(t testing.TB, updates UpdateMode) (*env.Sim, *Server) {
	t.Helper()
	sim := env.NewSim(3)
	t.Cleanup(sim.Shutdown)
	s := New(sim, Config{
		ID:        100,
		Costs:     env.DefaultCosts(),
		Ring:      ring.New([]uint32{0}, 0, func(uint32) env.NodeID { return 100 }),
		Peers:     []env.NodeID{100},
		SwitchFor: func(core.Fingerprint) env.NodeID { return 1 },
		Updates:   updates,
	})
	return sim, s
}

// applyCase is one generated aggregation: what the owner's store holds
// before it, the logs the sources hand in, and what the directory must hold
// afterwards.
type applyCase struct {
	dir     core.DirRef
	vanish  bool // the directory inode is gone: every pending entry is an orphan
	before  map[string]bool
	logs    []aggLog
	marks   []uint64 // per log: the source's watermark before the aggregation
	after   map[string]bool
	pending int // entries above their source's watermark
	orphans int // … of which filed under a key with no inode
}

// genApplyCase builds 1–8 sources' logs of one directory in application
// order against a model entry set, so a delete always names an entry that
// exists at that point (the size attribute never clamps at zero, in a batch
// or source by source). Each source's log opens with a prefix the owner has
// already applied; creates and deletes of one name pair up inside a source
// and across sources; shape 1 removes the directory, shape 2 files some
// sources' logs under the key the directory had before a rename.
func genApplyCase(rnd *rand.Rand) applyCase {
	key := core.Key{PID: core.RootDirID, Name: "d"}
	c := applyCase{
		dir:    core.DirRef{ID: core.DirID{7, 7, 7, 7}, Key: key, FP: key.Fingerprint()},
		before: map[string]bool{},
	}
	shape := rnd.Intn(4)
	c.vanish = shape == 1
	old := c.dir
	old.Key.Name = "d-before-rename"
	old.FP = old.Key.Fingerprint()

	live := map[string]bool{}
	var names []string
	next := 0
	step := func(src int, id uint64) core.LogEntry {
		e := core.LogEntry{ID: id, Time: int64(1000 + rnd.Intn(1000)), Type: core.TypeRegular, Perm: 0o644}
		if len(names) > 0 && rnd.Intn(3) == 0 {
			// Touch a name seen before: delete it if it exists, re-create it
			// otherwise.
			e.Name = names[rnd.Intn(len(names))]
		} else {
			e.Name = fmt.Sprintf("s%d-n%d", src, next)
			next++
			names = append(names, e.Name)
		}
		if live[e.Name] {
			e.Op = core.OpDelete
			delete(live, e.Name)
		} else {
			e.Op = core.OpCreate
			live[e.Name] = true
		}
		return e
	}

	nsrc := 1 + rnd.Intn(8)
	c.logs = make([]aggLog, nsrc)
	c.marks = make([]uint64, nsrc)
	for i := range c.logs {
		c.logs[i] = aggLog{from: env.NodeID(200 + i), log: wire.DirLog{Dir: c.dir}}
		if shape == 2 && rnd.Intn(2) == 0 {
			c.logs[i].log.Dir = old
		}
		// The applied prefix: part of the store's state before the
		// aggregation, still in the log because its ack was lost.
		c.marks[i] = uint64(rnd.Intn(100))
		for k := rnd.Intn(4); k > 0; k-- {
			c.marks[i]++
			c.logs[i].log.Entries = append(c.logs[i].log.Entries, step(i, c.marks[i]))
		}
	}
	for name := range live {
		c.before[name] = true
	}
	for i := range c.logs {
		stale := c.logs[i].log.Dir.Key != c.dir.Key
		saved := live
		if stale || c.vanish {
			// Orphans change nothing: run the generator on a scratch copy.
			live = map[string]bool{}
			for name := range saved {
				live[name] = true
			}
		}
		n := rnd.Intn(40)
		for k := 0; k < n; k++ {
			c.logs[i].log.Entries = append(c.logs[i].log.Entries, step(i, c.marks[i]+uint64(k)+1))
		}
		c.pending += n
		if stale || c.vanish {
			c.orphans += n
			live = saved
		}
	}
	c.after = live
	return c
}

// install puts the case's starting state on a server.
func (c *applyCase) install(s *Server) {
	if !c.vanish {
		s.storeInode(c.dir.Key, &core.Inode{ID: c.dir.ID,
			Attr: core.Attr{Type: core.TypeDir, Perm: core.DefaultDirPerm, Nlink: 2, Size: int64(len(c.before))}})
	}
	for name := range c.before {
		s.putDentry(c.dir.ID, core.DirEntry{Name: name, Type: core.TypeRegular, Perm: 0o644}, true)
	}
	for i, l := range c.logs {
		s.setAppliedMark(l.from, c.dir.ID, c.marks[i])
	}
}

// applyOutcome is everything an application leaves behind.
type applyOutcome struct {
	store   []string
	marks   map[appliedKey]uint64
	records []string // recAggEntry payloads, sorted
	stats   Stats
	took    env.Duration
	maxIDs  []uint64 // by source
}

func runApply(t *testing.T, c *applyCase, updates UpdateMode, apply func(p *env.Proc, s *Server, logs []aggLog)) applyOutcome {
	t.Helper()
	sim, s := newCostedServer(t, updates)
	c.install(s)
	logs := append([]aggLog(nil), c.logs...)
	var out applyOutcome
	sim.Spawn(100, func(p *env.Proc) {
		t0 := p.Now()
		apply(p, s, logs)
		out.took = p.Now() - t0
	})
	sim.Run()
	s.kv.Scan(nil, func(k, v []byte) bool {
		out.store = append(out.store, string(k)+"="+string(v))
		return true
	})
	out.marks = s.applied
	if err := s.wal.Replay(func(r wal.Record) error {
		if r.Kind == recAggEntry {
			out.records = append(out.records, string(r.Payload))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(out.records)
	out.stats = s.Stats
	out.maxIDs = make([]uint64, len(c.logs))
	for _, l := range logs {
		out.maxIDs[l.from-200] = l.maxID
	}

	// Against the model: the entry list and the size attribute.
	got := map[string]bool{}
	prefix := core.EntryPrefix(c.dir.ID)
	s.kv.Scan(prefix, func(k, v []byte) bool {
		got[string(k[len(prefix):])] = true
		return true
	})
	if !reflect.DeepEqual(got, c.after) {
		t.Fatalf("entry list %v, model says %v", got, c.after)
	}
	if !c.vanish {
		var in core.Inode
		if err := s.readInode(c.dir.Key, &in); err != nil || in.Size != int64(len(c.after)) {
			t.Fatalf("directory size %d (err %v), model says %d", in.Size, err, len(c.after))
		}
	}
	return out
}

// TestApplyBatchMatchesPerSource: for random logs of 1–8 sources, applying
// each directory as one batch leaves exactly the store, watermarks, WAL
// records, counters and acks that applying the sources one after another in
// the same order leaves — with and without compaction — and never takes more
// virtual time.
func TestApplyBatchMatchesPerSource(t *testing.T) {
	for _, updates := range []UpdateMode{UpdateCompacted, UpdateAsync} {
		for seed := int64(0); seed < 150; seed++ {
			c := genApplyCase(rand.New(rand.NewSource(seed)))
			batch := runApply(t, &c, updates, func(p *env.Proc, s *Server, logs []aggLog) {
				s.applyByDir(p, logs)
			})
			each := runApply(t, &c, updates, func(p *env.Proc, s *Server, logs []aggLog) {
				for i := range logs {
					s.applyByDir(p, logs[i:i+1])
				}
			})
			what := fmt.Sprintf("seed %d compaction %v", seed, updates == UpdateCompacted)
			if !reflect.DeepEqual(batch.store, each.store) {
				t.Fatalf("%s: store differs:\nbatch %q\neach  %q", what, batch.store, each.store)
			}
			if !reflect.DeepEqual(batch.marks, each.marks) {
				t.Fatalf("%s: watermarks differ: %v vs %v", what, batch.marks, each.marks)
			}
			if !reflect.DeepEqual(batch.records, each.records) {
				t.Fatalf("%s: recAggEntry records differ (%d vs %d)", what, len(batch.records), len(each.records))
			}
			if batch.stats != each.stats {
				t.Fatalf("%s: stats differ: %+v vs %+v", what, batch.stats, each.stats)
			}
			if !reflect.DeepEqual(batch.maxIDs, each.maxIDs) {
				t.Fatalf("%s: acked max ids differ: %v vs %v", what, batch.maxIDs, each.maxIDs)
			}
			if got := batch.stats; got.AggEntries != uint64(c.pending) || got.Orphans != uint64(c.orphans) {
				t.Fatalf("%s: AggEntries %d Orphans %d, generated %d pending with %d orphans",
					what, got.AggEntries, got.Orphans, c.pending, c.orphans)
			}
			if len(batch.records) != c.pending {
				t.Fatalf("%s: %d WAL records for %d pending entries", what, len(batch.records), c.pending)
			}
			if batch.took > each.took {
				t.Fatalf("%s: batch took %v, source by source %v", what, batch.took, each.took)
			}
		}
	}
}

// TestApplyByDirGroups: logs of two directories, and of one directory under
// two keys, interleaved — each group is applied once, in first-appearance
// order, keeping its members' order.
func TestApplyByDirGroups(t *testing.T) {
	sim, s := newCostedServer(t, UpdateCompacted)
	ref := func(id uint64, name string) core.DirRef {
		k := core.Key{PID: core.RootDirID, Name: name}
		return core.DirRef{ID: core.DirID{id, 1, 1, 1}, Key: k, FP: k.Fingerprint()}
	}
	a, b, aOld := ref(1, "a"), ref(2, "b"), ref(1, "a-old")
	for _, d := range []core.DirRef{a, b} {
		s.storeInode(d.Key, &core.Inode{ID: d.ID, Attr: core.Attr{Type: core.TypeDir}})
	}
	entry := func(id uint64, name string) []core.LogEntry {
		return []core.LogEntry{{ID: id, Time: 1, Op: core.OpCreate, Name: name, Type: core.TypeRegular}}
	}
	logs := []aggLog{
		{from: 201, log: wire.DirLog{Dir: a, Entries: entry(1, "x")}},
		{from: 202, log: wire.DirLog{Dir: b, Entries: entry(1, "y")}},
		{from: 203, log: wire.DirLog{Dir: aOld, Entries: entry(1, "z")}},
		{from: 204, log: wire.DirLog{Dir: a, Entries: entry(1, "w")}},
		{from: 205, log: wire.DirLog{Dir: b, Entries: entry(1, "v")}},
	}
	sim.Spawn(100, func(p *env.Proc) { s.applyByDir(p, logs) })
	sim.Run()
	var order []env.NodeID
	for _, l := range logs {
		order = append(order, l.from)
		if l.maxID != 1 {
			t.Errorf("source %d: max id %d, want 1", l.from, l.maxID)
		}
	}
	if want := []env.NodeID{201, 204, 202, 205, 203}; !reflect.DeepEqual(order, want) {
		t.Fatalf("grouped order %v, want %v", order, want)
	}
	if s.Stats.AggEntries != 5 || s.Stats.Orphans != 1 {
		t.Fatalf("AggEntries %d Orphans %d, want 5 and 1 (the log under the old key)", s.Stats.AggEntries, s.Stats.Orphans)
	}
	for _, d := range []core.DirRef{a, b} {
		var in core.Inode
		if err := s.readInode(d.Key, &in); err != nil || in.Size != 2 {
			t.Fatalf("directory %s: size %d err %v, want 2", d.Key.Name, in.Size, err)
		}
	}
}

// TestOutOfOrderEntryIDsAreDropped is why a directory's inode lock must span
// a transaction's prepare and its decision: the (source, directory) watermark
// drops an id that arrives after a larger one as a duplicate, so directory
// updates have to be applied in the order their ids were issued.
func TestOutOfOrderEntryIDsAreDropped(t *testing.T) {
	sim, s := newCostedServer(t, UpdateCompacted)
	key := core.Key{PID: core.RootDirID, Name: "d"}
	dir := core.DirRef{ID: core.DirID{4, 4, 4, 4}, Key: key, FP: key.Fingerprint()}
	s.storeInode(dir.Key, &core.Inode{ID: dir.ID, Attr: core.Attr{Type: core.TypeDir}})
	src := s.cfg.Coordinator | txnSrcFlag
	update := func(p *env.Proc, id uint64, name string) {
		s.applyBatch(p, []aggLog{{from: src, log: wire.DirLog{Dir: dir, Entries: []core.LogEntry{
			{ID: id, Time: 1, Op: core.OpCreate, Name: name, Type: core.TypeRegular}}}}})
	}
	sim.Spawn(100, func(p *env.Proc) {
		update(p, 2, "second") // the later transaction's update lands first …
		update(p, 1, "first")  // … and the earlier one's is taken for a resend
	})
	sim.Run()
	var in core.Inode
	if err := s.readInode(dir.Key, &in); err != nil || in.Size != 1 {
		t.Fatalf("size %d err %v: want 1 — the out-of-order update must have been dropped", in.Size, err)
	}
	if got := s.appliedMark(src, dir.ID); got != 2 {
		t.Fatalf("watermark %d, want 2", got)
	}
	if s.Stats.AggEntries != 1 {
		t.Fatalf("AggEntries %d, want 1", s.Stats.AggEntries)
	}
}

// TestParallelComputeLanes: a lane carries at least minLaneItems items. Below
// two lanes' worth nothing is spawned and the caller is charged n×each;
// above, the work finishes in ⌈n/lanes⌉×each on idle cores.
func TestParallelComputeLanes(t *testing.T) {
	const each = 350 * env.Nanosecond
	for _, tc := range []struct{ n, lanes int }{
		{1, 1}, {2, 1}, {15, 1}, {16, 2}, {23, 2}, {24, 3}, {29, 3}, {32, 4}, {33, 4}, {256, 4},
	} {
		sim, s := newCostedServer(t, UpdateCompacted)
		var took env.Duration
		sim.Spawn(100, func(p *env.Proc) {
			t0 := p.Now()
			s.parallelCompute(p, tc.n, each)
			took = p.Now() - t0
		})
		sim.Run()
		if got := sim.WorkerCount(); got != tc.lanes {
			t.Errorf("n=%d: %d worker processes, want %d", tc.n, got, tc.lanes)
		}
		share := (tc.n + tc.lanes - 1) / tc.lanes
		if want := env.Duration(share) * each; took != want {
			t.Errorf("n=%d: took %v, want %v (%d×each)", tc.n, took, want, share)
		}
	}
}

// BenchmarkApplyBatch is the aggregation apply of the hot-directory
// workloads: eight sources with 32 pending creates each, one directory.
func BenchmarkApplyBatch(b *testing.B) {
	key := core.Key{PID: core.RootDirID, Name: "hot"}
	dir := core.DirRef{ID: core.DirID{1, 2, 3, 4}, Key: key, FP: key.Fingerprint()}
	logs := make([]aggLog, 8)
	for i := range logs {
		logs[i] = aggLog{from: env.NodeID(200 + i), log: wire.DirLog{Dir: dir}}
		for k := 0; k < 32; k++ {
			logs[i].log.Entries = append(logs[i].log.Entries, core.LogEntry{ID: uint64(k + 1), Time: int64(k),
				Op: core.OpCreate, Name: fmt.Sprintf("file-%d-%06d", i, k), Type: core.TypeRegular, Perm: 0o644})
		}
	}
	sim, s := newCostedServer(b, UpdateCompacted)
	s.storeInode(dir.Key, &core.Inode{ID: dir.ID, Attr: core.Attr{Type: core.TypeDir}})
	batch := make([]aggLog, len(logs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Fresh watermarks every round, so all 256 entries are applied; a
		// fresh log now and then, so the benchmark's memory stays bounded.
		clear(s.applied)
		if i%64 == 0 {
			s.wal = wal.NewMem()
		}
		copy(batch, logs)
		sim.Spawn(100, func(p *env.Proc) { s.applyByDir(p, batch) })
		sim.Run()
	}
	if s.Stats.AggEntries != uint64(b.N)*256 {
		b.Fatalf("applied %d entries over %d rounds", s.Stats.AggEntries, b.N)
	}
}
