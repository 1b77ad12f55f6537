package ring

import (
	"testing"

	"switchfs/internal/core"
	"switchfs/internal/env"
)

func nodeOf(slot uint32) env.NodeID { return 100 + env.NodeID(slot) }

func fpOf(i int) core.Fingerprint {
	return core.FingerprintOf(core.RootDirID, string(rune('a'+i%26))+string(rune('0'+i%10)))
}

// Version must start positive, increase by one on every mutation, and never
// move on pure reads.
func TestVersionMonotonicity(t *testing.T) {
	r := New([]uint32{0, 1, 2, 3}, 0, nodeOf)
	v := r.Version()
	if v == 0 {
		t.Fatal("version must start positive")
	}
	fp := fpOf(0)
	r.SetOverride(fp, 2)
	if got := r.Version(); got != v+1 {
		t.Fatalf("SetOverride: version %d, want %d", got, v+1)
	}
	// Re-pinning to the owner it already resolves to still bumps.
	r.SetOverride(fp, r.OwnerOf(fp))
	if got := r.Version(); got != v+2 {
		t.Fatalf("re-SetOverride: version %d, want %d", got, v+2)
	}
	r.ClearOverride(fp)
	if got := r.Version(); got != v+3 {
		t.Fatalf("ClearOverride: version %d, want %d", got, v+3)
	}
	// Clearing a pin that does not exist is a no-op.
	r.ClearOverride(fp)
	if got := r.Version(); got != v+3 {
		t.Fatalf("no-op ClearOverride bumped: version %d, want %d", got, v+3)
	}
	r.Reset([]uint32{0, 1})
	if got := r.Version(); got != v+4 {
		t.Fatalf("Reset: version %d, want %d", got, v+4)
	}
	// Reads never bump.
	_ = r.OwnerOf(fp)
	_ = r.Overrides()
	_ = r.Slots()
	if got := r.Version(); got != v+4 {
		t.Fatalf("reads bumped version to %d", got)
	}
}

// An override takes precedence over the consistent-hash owner, only for its
// own fingerprint, and Reset drops it.
func TestOverridePrecedence(t *testing.T) {
	r := New([]uint32{0, 1, 2, 3}, 0, nodeOf)
	fp := fpOf(1)
	base := r.OwnerOf(fp)
	target := (base + 1) % 4
	r.SetOverride(fp, target)
	if got := r.OwnerOf(fp); got != target {
		t.Fatalf("override ignored: owner %d, want %d", got, target)
	}
	if got := r.OwnerNode(fp); got != nodeOf(target) {
		t.Fatalf("OwnerNode %d, want %d", got, nodeOf(target))
	}
	// Other fingerprints are unaffected.
	for i := 2; i < 40; i++ {
		o := fpOf(i)
		if o == fp {
			continue
		}
		r2 := New([]uint32{0, 1, 2, 3}, 0, nodeOf)
		if r.OwnerOf(o) != r2.OwnerOf(o) {
			t.Fatalf("override leaked onto fingerprint %v", o)
		}
	}
	ovs := r.Overrides()
	if len(ovs) != 1 || ovs[0].FP != fp || ovs[0].Slot != target {
		t.Fatalf("Overrides() = %v, want [{%v %d}]", ovs, fp, target)
	}
	r.ClearOverride(fp)
	if got := r.OwnerOf(fp); got != base {
		t.Fatalf("after clear: owner %d, want base %d", got, base)
	}
	r.SetOverride(fp, target)
	r.Reset([]uint32{0, 1, 2, 3})
	if got := r.OwnerOf(fp); got != base {
		t.Fatalf("Reset kept override: owner %d, want %d", got, base)
	}
	if len(r.Overrides()) != 0 {
		t.Fatal("Reset kept override entries")
	}
}

// keyFPs returns the fingerprints of n file keys in fresh directories.
func keyFPs(seed uint64, n int) []core.Fingerprint {
	g := core.NewIDGen(seed)
	fps := make([]core.Fingerprint, n)
	for i := range fps {
		fps[i] = core.FingerprintOf(g.Next(), "f")
	}
	return fps
}

// File keys land on a member slot, and on the same one whatever order the
// member set is given in.
func TestPlacementDeterministicAndComplete(t *testing.T) {
	slots := []uint32{0, 1, 2, 3}
	a := New(slots, 0, nodeOf)
	b := New([]uint32{3, 2, 1, 0}, 0, nodeOf)
	for _, fp := range keyFPs(5, 2000) {
		owner := a.OwnerOf(fp)
		if owner != b.OwnerOf(fp) {
			t.Fatal("placement depends on slot-list order")
		}
		if owner >= uint32(len(slots)) {
			t.Fatalf("fingerprint %v placed on non-member slot %d", fp, owner)
		}
	}
}

// Equal inputs must produce identical placement — across instances and
// across slot-order permutations (the base ring sorts its member set).
func TestDeterministicPlacement(t *testing.T) {
	a := New([]uint32{0, 1, 2, 3}, 0, nodeOf)
	b := New([]uint32{3, 2, 1, 0}, 0, nodeOf)
	for i := 0; i < 200; i++ {
		fp := fpOf(i)
		if a.OwnerOf(fp) != b.OwnerOf(fp) {
			t.Fatalf("placement differs for fingerprint %v", fp)
		}
	}
	// Overrides applied in any order yield the same sorted listing.
	a.SetOverride(fpOf(3), 1)
	a.SetOverride(fpOf(1), 2)
	b.SetOverride(fpOf(1), 2)
	b.SetOverride(fpOf(3), 1)
	ao, bo := a.Overrides(), b.Overrides()
	if len(ao) != len(bo) {
		t.Fatalf("override counts differ: %d vs %d", len(ao), len(bo))
	}
	for i := range ao {
		if ao[i] != bo[i] {
			t.Fatalf("override listing differs at %d: %v vs %v", i, ao[i], bo[i])
		}
	}
}

// The ring agrees with the raw consistent-hash base when no overrides are
// pinned (clients and servers constructed from the same slots agree).
func TestAgreesWithPlacementBase(t *testing.T) {
	slots := []uint32{0, 1, 2, 3, 4, 5, 6, 7}
	r := New(slots, 0, nodeOf)
	p := newPlacement(slots, 0)
	for i := 0; i < 200; i++ {
		fp := fpOf(i)
		if r.OwnerOf(fp) != p.ownerOf(fp) {
			t.Fatalf("ring disagrees with base placement for %v", fp)
		}
	}
}

// Consistent hashing spreads keys over eight slots within a factor of three
// of an even share.
func TestBalance(t *testing.T) {
	r := New([]uint32{0, 1, 2, 3, 4, 5, 6, 7}, 0, nodeOf)
	const n = 20000
	counts := map[uint32]int{}
	for _, fp := range keyFPs(6, n) {
		counts[r.OwnerOf(fp)]++
	}
	for slot, c := range counts {
		if c < n/8/3 || c > n/8*3 {
			t.Fatalf("slot %d owns %d of %d (poor balance)", slot, c, n)
		}
	}
}

// Growing the member set by one slot moves some keys to it, and far fewer
// than half of them.
func TestMinimalMovementOnReset(t *testing.T) {
	r := New([]uint32{0, 1, 2, 3}, 0, nodeOf)
	fps := keyFPs(8, 5000)
	before := make([]uint32, len(fps))
	for i, fp := range fps {
		before[i] = r.OwnerOf(fp)
	}
	r.Reset([]uint32{0, 1, 2, 3, 4})
	moved := 0
	for i, fp := range fps {
		if r.OwnerOf(fp) != before[i] {
			moved++
		}
	}
	// Roughly 1/5 of the keys move.
	if moved > len(fps)/2 {
		t.Fatalf("%d of %d keys moved after adding one slot", moved, len(fps))
	}
	if moved == 0 {
		t.Fatal("no keys moved to the new slot")
	}
}
