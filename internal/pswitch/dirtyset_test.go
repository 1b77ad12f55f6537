package pswitch

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"switchfs/internal/core"
	"switchfs/internal/env"
)

func fp(i uint64) core.Fingerprint {
	return core.FingerprintOf(core.DirID{i, i * 7, i ^ 42, 1}, "d")
}

func TestInsertQueryRemove(t *testing.T) {
	d := NewDirtySet(4, 8)
	f := fp(1)
	if d.Query(f) {
		t.Fatal("empty set claims membership")
	}
	if !d.Insert(f) {
		t.Fatal("insert failed on empty set")
	}
	if !d.Query(f) {
		t.Fatal("query missed inserted fingerprint")
	}
	if d.Occupied() != 1 {
		t.Fatalf("occupied=%d", d.Occupied())
	}
	if !d.Remove(f, 1, 1) {
		t.Fatal("remove missed")
	}
	if d.Query(f) || d.Occupied() != 0 {
		t.Fatal("remove left state behind")
	}
}

func TestInsertIdempotent(t *testing.T) {
	d := NewDirtySet(4, 8)
	f := fp(2)
	for i := 0; i < 5; i++ {
		if !d.Insert(f) {
			t.Fatal("repeated insert failed")
		}
	}
	if d.Occupied() != 1 {
		t.Fatalf("occupied=%d after duplicate inserts, want 1 (Fig. 10 dedup)", d.Occupied())
	}
	d.Remove(f, 1, 1)
	if d.Query(f) {
		t.Fatal("one remove must clear all duplicates")
	}
}

func TestSetAssociativeOverflow(t *testing.T) {
	// Force many distinct tags into one set: capacity is the stage count.
	const stages = 3
	d := NewDirtySet(stages, 4)
	// Find fingerprints sharing a set index with distinct tags.
	var same []core.Fingerprint
	idx := uint32(0)
	for i := uint64(0); len(same) < stages+1; i++ {
		f := fp(i)
		if len(same) == 0 {
			idx = f.Index(4)
			same = append(same, f)
			continue
		}
		if f.Index(4) == idx && f.Tag(4) != same[0].Tag(4) {
			dup := false
			for _, g := range same {
				if g.Tag(4) == f.Tag(4) {
					dup = true
				}
			}
			if !dup {
				same = append(same, f)
			}
		}
	}
	for i := 0; i < stages; i++ {
		if !d.Insert(same[i]) {
			t.Fatalf("insert %d failed below capacity", i)
		}
	}
	if d.Insert(same[stages]) {
		t.Fatal("insert beyond set capacity succeeded")
	}
	// Every resident fingerprint still answers queries.
	for i := 0; i < stages; i++ {
		if !d.Query(same[i]) {
			t.Fatalf("resident fingerprint %d lost", i)
		}
	}
}

func TestRemoveSequenceGuard(t *testing.T) {
	// §5.4.1: a duplicate (stale) remove must not erase fingerprints
	// inserted after the aggregation completed.
	d := NewDirtySet(4, 8)
	f := fp(3)
	d.Insert(f)
	if !d.Remove(f, 42, 7) {
		t.Fatal("first remove rejected")
	}
	d.Insert(f) // a subsequent operation re-dirties the directory
	if d.Remove(f, 42, 7) {
		t.Fatal("stale duplicate remove was processed")
	}
	if !d.Query(f) {
		t.Fatal("stale remove erased a fresh insert")
	}
	if !d.Remove(f, 42, 8) {
		t.Fatal("fresh remove rejected")
	}
	// Independent origins have independent sequence spaces.
	d.Insert(f)
	if !d.Remove(f, 43, 1) {
		t.Fatal("another origin's remove rejected")
	}
}

func TestForceOverflow(t *testing.T) {
	d := NewDirtySet(4, 8)
	d.ForceOverflow = true
	if d.Insert(fp(5)) {
		t.Fatal("forced overflow still inserted")
	}
}

func TestReset(t *testing.T) {
	d := NewDirtySet(4, 8)
	for i := uint64(0); i < 50; i++ {
		d.Insert(fp(i))
	}
	d.Remove(fp(1), 9, 5)
	d.Reset()
	if d.Occupied() != 0 {
		t.Fatalf("occupied=%d after reset", d.Occupied())
	}
	// Sequence state is also reset: an old sequence number works again.
	d.Insert(fp(1))
	if !d.Remove(fp(1), 9, 1) {
		t.Fatal("sequence state survived reset")
	}
}

// TestMembershipModel drives random operations against a reference set.
// Collisions fold distinct fingerprints together, so the model tracks the
// (index, tag) pair — exactly the switch's notion of identity.
func TestMembershipModel(t *testing.T) {
	d := NewDirtySet(DefaultStages, 10)
	type slot struct{ idx, tag uint32 }
	ref := map[slot]bool{}
	rnd := rand.New(rand.NewSource(4))
	seq := uint64(0)
	for i := 0; i < 20000; i++ {
		f := fp(uint64(rnd.Intn(3000)))
		s := slot{f.Index(10), f.Tag(10)}
		switch rnd.Intn(3) {
		case 0:
			if d.Insert(f) {
				ref[s] = true
			}
		case 1:
			seq++
			d.Remove(f, 1, seq)
			delete(ref, s)
		case 2:
			if got := d.Query(f); got != ref[s] {
				t.Fatalf("op %d: Query=%v, model=%v", i, got, ref[s])
			}
		}
	}
}

// Property: inserting any set of fingerprints below per-set capacity keeps
// them all queryable.
func TestInsertQueryProperty(t *testing.T) {
	f := func(seeds []uint16) bool {
		if len(seeds) > 64 {
			seeds = seeds[:64]
		}
		d := NewDirtySet(DefaultStages, 12)
		for _, s := range seeds {
			d.Insert(fp(uint64(s)))
		}
		for _, s := range seeds {
			if !d.Query(fp(uint64(s))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCapacityMatchesPaper(t *testing.T) {
	d := NewDirtySet(0, 0) // defaults
	if d.Capacity() != 1310720 {
		t.Fatalf("capacity=%d, want 1,310,720 (§6.3)", d.Capacity())
	}
}

func TestSwitchPacketRouting(t *testing.T) {
	// Integration of the switch model with the env: see cluster tests for
	// full-protocol coverage; here the switch's one dirty set is checked.
	sw := New(1, Config{IndexBits: 8})
	for i := uint64(0); i < 64; i++ {
		sw.ds.Insert(fp(i))
	}
	if sw.Occupied() != 64 {
		t.Fatalf("occupied=%d, want 64", sw.Occupied())
	}
	sw.Reset()
	if sw.Occupied() != 0 {
		t.Fatal("reset missed a fingerprint")
	}
}

func TestStatsCounters(t *testing.T) {
	var st Stats
	st.Queries += 2
	st.Inserts++
	if st.Queries != 2 || st.Inserts != 1 {
		t.Fatal("counter bookkeeping broken")
	}
	_ = env.NodeID(0)
	_ = fmt.Sprint()
}

// denseSet is the register file as the switch holds it: every register of
// every set, there from the start (the model's layout before register
// pages). DirtySet must answer exactly as it does.
type denseSet struct {
	stages    int
	bits      uint
	regs      [][]uint32 // [stage][index]
	removeSeq map[env.NodeID]uint64
	occupied  int
}

func newDenseSet(stages int, bits uint) *denseSet {
	d := &denseSet{stages: stages, bits: bits, regs: make([][]uint32, stages), removeSeq: map[env.NodeID]uint64{}}
	for s := range d.regs {
		d.regs[s] = make([]uint32, 1<<bits)
	}
	return d
}

func (d *denseSet) query(f core.Fingerprint) bool {
	idx, tag := f.Index(d.bits), f.Tag(d.bits)
	for s := range d.regs {
		if d.regs[s][idx] == tag {
			return true
		}
	}
	return false
}

func (d *denseSet) insert(f core.Fingerprint) bool {
	idx, tag := f.Index(d.bits), f.Tag(d.bits)
	inserted := false
	for s := range d.regs {
		r := &d.regs[s][idx]
		switch {
		case !inserted && *r == 0:
			*r, inserted = tag, true
			d.occupied++
		case !inserted && *r == tag:
			inserted = true
		case inserted && *r == tag:
			*r = 0
			d.occupied--
		}
	}
	return inserted
}

func (d *denseSet) remove(f core.Fingerprint, origin env.NodeID, seq uint64) bool {
	if origin != 0 {
		if seq <= d.removeSeq[origin] {
			return false
		}
		d.removeSeq[origin] = seq
	}
	idx, tag := f.Index(d.bits), f.Tag(d.bits)
	removed := false
	for s := range d.regs {
		if d.regs[s][idx] == tag {
			d.regs[s][idx] = 0
			removed = true
			d.occupied--
		}
	}
	return removed
}

// heldSets counts the sets of every page that has a non-zero register: the
// storage DirtySet must hold, and no more.
func (d *denseSet) heldSets(pageBits uint) int {
	held := 0
	for p := 0; p < 1<<(d.bits-pageBits); p++ {
		live := false
		for s := range d.regs {
			for _, r := range d.regs[s][p<<pageBits : (p+1)<<pageBits] {
				live = live || r != 0
			}
		}
		if live {
			held += 1 << pageBits
		}
	}
	return held
}

// TestDirtySetMatchesDenseModel drives random inserts, queries, removes
// (stale ones among them) and resets through DirtySet and the dense register
// file, over enough fingerprints that sets fill and overflow, and compares
// every answer, the occupancy and the storage held after each step. At 2^4
// sets the whole table is one page; at 2^7 it is four.
func TestDirtySetMatchesDenseModel(t *testing.T) {
	for _, bits := range []uint{4, 7} {
		t.Run(fmt.Sprintf("bits=%d", bits), func(t *testing.T) {
			const stages = 4
			d, ref := NewDirtySet(stages, bits), newDenseSet(stages, bits)
			rnd := rand.New(rand.NewSource(int64(bits)))
			fps := make([]core.Fingerprint, 8<<bits) // eight per set on average
			for i := range fps {
				fps[i] = fp(uint64(i))
			}
			seqs := make([]uint64, 3)
			overflows, maxHeld := 0, 0
			for step := 0; step < 40_000; step++ {
				f := fps[rnd.Intn(len(fps))]
				switch r := rnd.Intn(1000); {
				case r < 450:
					got, want := d.Insert(f), ref.insert(f)
					if got != want {
						t.Fatalf("step %d: Insert=%v, dense %v", step, got, want)
					}
					if !got {
						overflows++
					}
				case r < 700:
					if got, want := d.Query(f), ref.query(f); got != want {
						t.Fatalf("step %d: Query=%v, dense %v", step, got, want)
					}
				case r < 998:
					origin := rnd.Intn(len(seqs)) // 0 bypasses the guard
					seqs[origin] += uint64(rnd.Intn(3))
					seq := seqs[origin] - uint64(rnd.Intn(2)) // sometimes stale
					got, want := d.Remove(f, env.NodeID(origin), seq), ref.remove(f, env.NodeID(origin), seq)
					if got != want {
						t.Fatalf("step %d: Remove(origin %d, seq %d)=%v, dense %v", step, origin, seq, got, want)
					}
				default:
					d.Reset()
					ref = newDenseSet(stages, bits)
					clear(seqs)
				}
				if d.Occupied() != ref.occupied {
					t.Fatalf("step %d: Occupied=%d, dense %d", step, d.Occupied(), ref.occupied)
				}
				held, max := d.HeldSets()
				if want := ref.heldSets(d.pageBits); held != want {
					t.Fatalf("step %d: %d sets held, want %d", step, held, want)
				}
				maxHeld = max
			}
			if overflows < 100 || maxHeld != 1<<bits {
				t.Fatalf("schedule too tame: %d overflows, at most %d of %d sets held", overflows, maxHeld, 1<<bits)
			}
		})
	}
}

// TestDirtySetHoldsOnlyLiveSets: 10^4 inserts and removes of the same
// fingerprints leave no register storage held but the bounded free list,
// and once the free list is warm, filling an empty set allocates nothing.
func TestDirtySetHoldsOnlyLiveSets(t *testing.T) {
	d := NewDirtySet(DefaultStages, 14)
	fps := make([]core.Fingerprint, 100)
	for i := range fps {
		fps[i] = fp(uint64(i))
	}
	seq := uint64(0)
	for i := 0; i < 10_000; i++ {
		f := fps[i%len(fps)]
		if !d.Insert(f) {
			t.Fatalf("insert %d overflowed", i)
		}
		if i%len(fps) == len(fps)-1 { // every fingerprint in, then all out
			for _, f := range fps {
				seq++
				d.Remove(f, 1, seq)
			}
		}
	}
	if held, max := d.HeldSets(); d.Occupied() != 0 || held != 0 || max < len(fps) {
		t.Fatalf("occupied %d, %d sets held (high-water %d), want 0, 0 and ≥ %d", d.Occupied(), held, max, len(fps))
	}
	if len(d.free) > maxFreePages {
		t.Fatalf("%d pages kept free, bound %d", len(d.free), maxFreePages)
	}
	f := fps[0]
	allocs := testing.AllocsPerRun(100, func() {
		d.Insert(f)
		seq++
		d.Remove(f, 1, seq)
	})
	if allocs != 0 {
		t.Fatalf("filling and emptying a set allocates %.1f times, want 0", allocs)
	}
}
