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
