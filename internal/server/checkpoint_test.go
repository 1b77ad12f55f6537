package server

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/wal"
)

// imageSlots is the slot table the records past log's cut resolve against,
// read from its image (empty before the first checkpoint), and the cut.
func imageSlots(t testing.TB, log *wal.Mem) (commitSlots, wal.LSN) {
	t.Helper()
	image, cut := log.Image()
	if image == nil {
		return commitSlots{}, 0
	}
	_, s := newReplayServer(t, wal.NewMem(), 4)
	slots, err := s.restoreImage(image, &redoPlan{lanes: 1})
	if err != nil {
		t.Fatal(err)
	}
	return slots, cut
}

// checkpointAt cuts log, whose records are recs, at c, as a server that had
// logged them would: behind the image of the state recs[:c] rebuild, which
// keeps the slots the records past c name (the slots its change-logs held)
// and those the unapplied commits through c name (keptSlots), carrying what
// the server carries.
func checkpointAt(t testing.TB, log *wal.Mem, recs []wal.Record, c int) {
	t.Helper()
	_, img := newReplayServer(t, logOf(recs[:c], false, false), 4)
	if _, err := img.replayWAL(); err != nil {
		t.Fatal(err)
	}
	var slots commitSlots
	var kept []slotRef
	for i, r := range recs {
		if r.Kind != recCommit && r.Kind != recCommitAt {
			continue
		}
		if i < c {
			slots.decode(r.Kind, r.Payload)
			continue
		}
		if n, _ := uvarintOf(r.Payload); r.Kind == recCommitAt && n <= uint64(img.walSlots) &&
			!slices.ContainsFunc(kept, func(s slotRef) bool { return uint64(s.n) == n }) {
			ref, _ := slots.ref(n)
			kept = append(kept, slotRef{n: uint32(n), ref: ref})
		}
	}
	_, s := newReplayServer(t, log, 4)
	kept = s.keptSlots(kept, wal.LSN(c))
	s.ckpt = pendingImage{buf: img.appendImage(nil, kept), cut: wal.LSN(c), floor: img.walSlots, slots: kept}
	s.installImage()
}

// uvarintOf reads the uvarint b starts with.
func uvarintOf(b []byte) (uint64, error) {
	r := recReader{b: b}
	return r.uvarint(), r.err
}

// fixtureRecords returns each fixture log's records.
func fixtureRecords(t *testing.T) [][]wal.Record {
	var all [][]wal.Record
	for _, log := range loadWALs(t) {
		var recs []wal.Record
		log.Replay(func(r wal.Record) error { recs = append(recs, r); return nil })
		all = append(all, recs)
	}
	return all
}

// TestCheckpointEquivalence: for every fixture log, its payloads handed to
// Append as they are or in one transient buffer (logOf), every checkpoint
// position and every prefix past it, with the marks as recorded, recovering
// from the image and the log past its cut rebuilds what recovering from the
// whole log does: the store, the change-logs with their commits, the
// watermarks, the invalidations, the slot count and the 2PC state. (Under
// the race detector, every eighth cut and prefix.)
func TestCheckpointEquivalence(t *testing.T) {
	step := 1
	if underRace {
		step = 8
	}
	for i, recs := range fixtureRecords(t) {
		for _, transient := range []bool{false, true} {
			t.Run(fmt.Sprintf("log %d transient %v", i, transient), func(t *testing.T) {
				t.Parallel()
				full := make([]string, len(recs)+1)
				pos := positions(logOf(recs, true, false))
				for k := range full {
					_, s := newReplayServer(t, logOf(recs[:k], true, false), 4)
					if _, err := s.replayWAL(); err != nil {
						t.Fatal(err)
					}
					full[k] = replayDumpAt(s, pos) + fmt.Sprintf("slots %d\n", s.walSlots)
				}
				for c := 0; c <= len(recs); c += step {
					for k := c; k <= len(recs); k += step {
						log := logOf(recs[:k], true, transient)
						checkpointAt(t, log, recs[:k], c)
						_, s := newReplayServer(t, log, 4)
						if _, err := s.replayWAL(); err != nil {
							t.Fatalf("cut at %d, %d records: %v", c, k, err)
						}
						if got := replayDumpAt(s, pos) + fmt.Sprintf("slots %d\n", s.walSlots); got != full[k] {
							t.Fatalf("cut at %d, %d records: recovery rebuilds\n%s\nthe whole log\n%s", c, k, got, full[k])
						}
					}
				}
			})
		}
	}
}

// TestCrashBeforeImageDurable: a crash after an image is taken but before
// it is durable leaves the log with the previous image and every record
// since, and recovery rebuilds the store the server held; a crash once it is
// durable installs it.
func TestCrashBeforeImageDurable(t *testing.T) {
	for _, durable := range []bool{false, true} {
		r := newRig(t)
		want := map[string]core.DirRef{}
		var names []string
		for i := range 40 {
			name := fmt.Sprintf("f%02d", i)
			want[name], names = testDirRef(uint64(10+i%3), fmt.Sprintf("d%d", i%3)), append(names, name)
		}
		r.createsIn(want, 1, names...)
		log := r.s.wal
		_, cut := log.Image()
		if r.s.Stats.Checkpoints == 0 || cut == 0 {
			t.Fatalf("no checkpoint after %d creates (%d records)", len(names), log.Len())
		}
		r.s.walGained = math.MaxUint64 / 2
		r.s.maybeCheckpoint()
		if r.s.ckpt.buf == nil || r.s.ckpt.at <= r.sim.Now() {
			t.Fatalf("no image being written: %+v at %v", r.s.ckpt.cut, r.sim.Now())
		}
		next := r.s.ckpt.cut
		if durable {
			r.sim.RunFor(r.s.ckpt.at - r.sim.Now())
		}
		store := storeDump(r.s)
		r.s.Crash()
		if _, got := log.Image(); durable && got != next || !durable && got != cut {
			t.Fatalf("durable %v: the log is cut at %d after the crash (the image covered %d, the one before %d)", durable, got, next, cut)
		}
		r.s = Restart(r.sim, r.s.cfg, log)
		r.sim.Spawn(rigServer, func(p *env.Proc) {
			if err := r.s.Recover(p); err != nil {
				t.Error(err)
			}
		})
		r.sim.Run()
		if got := storeDump(r.s); got != store {
			t.Fatalf("durable %v: recovery rebuilt\n%s\nthe server held\n%s", durable, got, store)
		}
	}
}

// storeDump prints every pair the server's store holds.
func storeDump(s *Server) string {
	var sb strings.Builder
	s.kv.Scan(nil, func(k, v []byte) bool {
		fmt.Fprintf(&sb, "%x=%x\n", k, v)
		return true
	})
	return sb.String()
}

// BenchmarkCheckpoint is one checkpoint of a server whose store holds 10 000
// inodes (`make bench-layers`): the image built into the buffer the last
// one gave back, and the cut of the 10 000 records logged since. It reports
// the host time and the allocations per store entry.
func BenchmarkCheckpoint(b *testing.B) {
	const entries = 10_000
	_, s := newReplayServer(b, wal.NewMem(), 4)
	in := &core.Inode{Attr: core.Attr{Type: core.TypeRegular, Perm: core.DefaultFilePerm, Nlink: 1}}
	keys := make([]core.Key, entries)
	for i := range keys {
		keys[i] = core.Key{PID: core.DirID{1, uint64(i % 64)}, Name: fmt.Sprintf("file-%06d", i)}
		s.InjectInode(keys[i], in, false)
	}
	var before, after runtime.MemStats
	var mallocs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for _, k := range keys {
			s.walBuf = encodeInodeRec(s.walBuf[:0], k, in)
			mustAppend(s.wal, recInode, s.walBuf)
		}
		s.walGained = math.MaxUint64 / 2
		runtime.ReadMemStats(&before)
		b.StartTimer()
		s.maybeCheckpoint()
		s.installImage()
		b.StopTimer()
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*entries), "ns/entry")
	b.ReportMetric(float64(mallocs)/float64(b.N*entries), "allocs/entry")
}

// TestImageAtSlotDefinition: an image taken as a commit that defines a slot
// is appended counts the slots of the records before it only, so after a
// crash the records past the cut — that commit, the next directory's first
// commit and the commits naming their slots — resolve to their own
// directories.
func TestImageAtSlotDefinition(t *testing.T) {
	r := newRig(t)
	d0, d1, d2 := testDirRef(10, "d0"), testDirRef(11, "d1"), testDirRef(12, "d2")
	r.createsIn(map[string]core.DirRef{"a": d0}, 1, "a")
	padStore(r.s, 4<<10) // no image but the one this test takes
	r.sim.RunFor(env.Millisecond)
	r.s.settleImage()
	if r.s.ckpt.buf != nil {
		t.Fatal("an image still being written")
	}
	r.s.walGained = math.MaxUint64 / 2 // the next append takes an image
	r.createsIn(map[string]core.DirRef{"b": d1, "c": d1, "e": d2, "f": d2}, 2, "b", "c", "e", "f")
	if r.s.Stats.Checkpoints == 0 {
		t.Fatal("no image installed")
	}
	_, cut := r.s.wal.Image()
	var next wal.Record
	r.s.wal.Replay(func(rec wal.Record) error {
		if rec.LSN == cut+1 {
			next = rec
		}
		return nil
	})
	if next.Kind != recCommit {
		t.Fatalf("the record past the cut at %d is of kind %d, want b's commit", cut, next.Kind)
	}
	store := storeDump(r.s)
	log := r.s.wal
	r.s.Crash()
	r.s = Restart(r.sim, r.s.cfg, log)
	r.sim.Spawn(rigServer, func(p *env.Proc) {
		if err := r.s.Recover(p); err != nil {
			t.Error(err)
		}
	})
	r.sim.Run()
	if got := storeDump(r.s); got != store {
		t.Fatalf("recovery rebuilt\n%s\nthe server held\n%s", got, store)
	}
}
