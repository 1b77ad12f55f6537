package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestIDGenUniqueness(t *testing.T) {
	g1 := NewIDGen(1)
	g2 := NewIDGen(2)
	seen := map[DirID]bool{}
	for i := 0; i < 10000; i++ {
		for _, g := range []*IDGen{g1, g2} {
			id := g.Next()
			if seen[id] {
				t.Fatalf("duplicate id %v", id)
			}
			seen[id] = true
		}
	}
}

// TestIncarnationsDisjoint: two incarnations of one node booted 1 ns and
// 2^24 ns apart, the first issuing as many ids of each kind as the
// nanoseconds it lived, issue disjoint ranges of scalar ids and DirIDs, and
// the predecessor test classifies every scalar id by its issuer.
func TestIncarnationsDisjoint(t *testing.T) {
	const node, boot = 7, 1 << 30
	for _, gap := range []uint64{1, 1 << 24} {
		pred, succ := NewIncarnation(node, boot), NewIncarnation(node, boot+gap)
		// Scalar ids ascend, so the ranges are disjoint when the predecessor's
		// last id is below the successor's first. DirIDs do not: the
		// successor's first ones are filed by their last word, for cheap
		// lookups.
		first := succ.Next()
		dirs := map[uint64][]DirID{}
		for i := 0; i < 1000; i++ {
			dir := succ.NextDirID()
			dirs[dir[3]] = append(dirs[dir[3]], dir)
		}
		var last uint64
		for i := uint64(0); i < gap; i++ {
			id, dir := pred.Next(), pred.NextDirID()
			if id <= last || slices.Contains(dirs[dir[3]], dir) {
				t.Fatalf("gap %d: the predecessor's id %d (%#x, %v) is out of order or also the successor's", gap, i, id, dir)
			}
			if !succ.Predecessor(id) || pred.Predecessor(id) {
				t.Fatalf("gap %d: the predecessor's id %#x misclassified", gap, id)
			}
			last = id
		}
		if next := succ.Next(); last >= first || succ.Predecessor(first) || succ.Predecessor(next) || next <= first {
			t.Fatalf("gap %d: the predecessor ended at %#x, the successor issues %#x, %#x", gap, last, first, next)
		}
		other := NewIncarnation(node+1, 0)
		if succ.Predecessor(other.Next()) {
			t.Fatalf("gap %d: another node's id classified as a predecessor's", gap)
		}
	}
}

func TestDirIDRoundTrip(t *testing.T) {
	f := func(a, b, c, d uint64) bool {
		id := DirID{a, b, c, d}
		return DirIDFromBytes(id.AppendBinary(nil)) == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFingerprintWidth(t *testing.T) {
	g := NewIDGen(7)
	for i := 0; i < 1000; i++ {
		fp := FingerprintOf(g.Next(), fmt.Sprintf("n%d", i))
		if uint64(fp) >= 1<<FingerprintBits {
			t.Fatalf("fingerprint %x exceeds %d bits", uint64(fp), FingerprintBits)
		}
	}
}

func TestFingerprintZeroReserved(t *testing.T) {
	// Fingerprint 0 is the protocol's "no group" sentinel: a hash landing on
	// it (any multiple of 2^49) must fold away rather than mint a real group
	// that would silently skip migration admission.
	if fp := fingerprintOfHash(0); fp != 1 {
		t.Fatalf("fingerprintOfHash(0) = %d, want 1", fp)
	}
	if fp := fingerprintOfHash(1 << FingerprintBits); fp != 1 {
		t.Fatalf("hash with all-zero low bits folded to %d, want 1", fp)
	}
	if fp := fingerprintOfHash(42); fp != 42 {
		t.Fatalf("fingerprintOfHash(42) = %d, want 42", fp)
	}
}

func TestFingerprintIndexTagRoundTrip(t *testing.T) {
	// index and tag partition the fingerprint bits (modulo the zero-tag
	// reservation).
	f := func(raw uint64) bool {
		fp := Fingerprint(raw & (1<<FingerprintBits - 1))
		idx := fp.Index(17)
		tag := fp.Tag(17)
		if idx >= 1<<17 {
			return false
		}
		if tag == 0 {
			return false // zero is reserved
		}
		want := uint32(uint64(fp) & (1<<32 - 1))
		if want == 0 {
			want = 1
		}
		return tag == want && idx == uint32(uint64(fp)>>32)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFingerprintDistribution(t *testing.T) {
	// Set indexes must spread uniformly: with 64k fingerprints over 2^10
	// buckets no bucket should be more than 3× the mean.
	g := NewIDGen(3)
	counts := make([]int, 1<<10)
	const n = 1 << 16
	for i := 0; i < n; i++ {
		fp := FingerprintOf(g.Next(), "x")
		counts[fp.Index(10)]++
	}
	mean := n / len(counts)
	for b, c := range counts {
		if c > 3*mean {
			t.Fatalf("bucket %d holds %d (mean %d)", b, c, mean)
		}
	}
}

func TestKeyEncodeDecode(t *testing.T) {
	f := func(a, b uint64, name string) bool {
		if len(name) > 64 {
			name = name[:64]
		}
		k := Key{PID: DirID{a, b, a ^ b, 1}, Name: name}
		got, err := DecodeKey(k.Encode())
		return err == nil && got == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestKeyAndEntryTablesDisjoint(t *testing.T) {
	// The regression this guards: the inode of (pid, name) and a dentry of
	// directory pid with the same name must never share a storage key.
	id := DirID{1, 2, 3, 4}
	inodeKey := Key{PID: id, Name: "child"}.Encode()
	dentryKey := append(EntryPrefix(id), "child"...)
	if bytes.Equal(inodeKey, dentryKey) {
		t.Fatal("inode and dentry keys collide")
	}
	if _, err := DecodeKey(dentryKey); err == nil {
		t.Fatal("dentry key decoded as an inode key")
	}
}

func TestEntryPrefixCoversOnlyChildren(t *testing.T) {
	a := DirID{1, 0, 0, 1}
	b := DirID{1, 0, 0, 2}
	ka := append(EntryPrefix(a), "x"...)
	if bytes.HasPrefix(ka, EntryPrefix(b)) {
		t.Fatal("entry prefixes of different directories overlap")
	}
}

func TestSplitPath(t *testing.T) {
	cases := []struct {
		in   string
		want string
		err  bool
	}{
		{"/", "[]", false},
		{"/a/b/c", "[a b c]", false},
		{"/a//b/", "[a b]", false},
		{"/a/./b", "[a b]", false},
		{"/a/b/../c", "[a c]", false},
		{"/..", "", true},
		{"relative", "", true},
		{"", "", true},
	}
	for _, c := range cases {
		got, err := SplitPath(c.in)
		if c.err {
			if err == nil {
				t.Errorf("SplitPath(%q): expected error", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("SplitPath(%q): %v", c.in, err)
			continue
		}
		if fmt.Sprint(got) != c.want {
			t.Errorf("SplitPath(%q) = %v, want %s", c.in, got, c.want)
		}
	}
}

func TestValidateName(t *testing.T) {
	for _, bad := range []string{"", ".", "..", "a/b", string(make([]byte, 300))} {
		if err := ValidateName(bad); err == nil {
			t.Errorf("name %q accepted", bad)
		}
	}
	for _, good := range []string{"a", "file.txt", "x y", "ünïcode"} {
		if err := ValidateName(good); err != nil {
			t.Errorf("name %q rejected: %v", good, err)
		}
	}
}

func TestInodeRoundTrip(t *testing.T) {
	in := &Inode{
		Attr: Attr{Type: TypeDir, Perm: 0o751, UID: 3, GID: 9, Size: 42,
			Atime: 1, Mtime: 2, Ctime: 3, Nlink: 2},
		ID:      DirID{9, 8, 7, 6},
		File:    FileID(77),
		DataLoc: []uint32{1, 2, 3},
	}
	got, err := DecodeInode(EncodeInode(in))
	if err != nil {
		t.Fatal(err)
	}
	if got.Attr != in.Attr || got.ID != in.ID || got.File != in.File {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, in)
	}
	if len(got.DataLoc) != 3 || got.DataLoc[2] != 3 {
		t.Fatalf("data locations %v", got.DataLoc)
	}
}

func TestInodeDecodeRejectsShort(t *testing.T) {
	if _, err := DecodeInode([]byte{1, 2, 3}); err == nil {
		t.Fatal("short record accepted")
	}
}

func TestDirEntryRoundTrip(t *testing.T) {
	e := DirEntry{Name: "f", Type: TypeRegular, Perm: 0o640}
	got, err := DecodeDirEntry("f", EncodeDirEntry(e))
	if err != nil || got != e {
		t.Fatalf("got %+v err=%v", got, err)
	}
}

func TestErrnoRoundTrip(t *testing.T) {
	for _, e := range []error{ErrExist, ErrNotExist, ErrNotEmpty, ErrNotDir,
		ErrIsDir, ErrInvalid, ErrStaleCache, ErrRetry, ErrUnavailable, ErrLoop} {
		if got := ErrnoOf(e).Err(); !errors.Is(got, e) {
			t.Errorf("errno round trip of %v gave %v", e, got)
		}
	}
	if ErrnoOf(nil) != ErrnoOK || ErrnoOK.Err() != nil {
		t.Error("nil error round trip failed")
	}
}

// --- change-log and compaction ------------------------------------------------

func TestChangeLogAppendAckThrough(t *testing.T) {
	var l ChangeLog
	for i := 1; i <= 5; i++ {
		l.Append(LogEntry{ID: uint64(i), Op: OpCreate, Name: fmt.Sprintf("f%d", i)})
	}
	if l.Len() != 5 || l.Bytes() == 0 {
		t.Fatalf("len=%d bytes=%d", l.Len(), l.Bytes())
	}
	l.AckThrough(3)
	if l.Len() != 2 {
		t.Fatalf("after ack len=%d", l.Len())
	}
	snap := l.Snapshot()
	if snap[0].ID != 4 || snap[1].ID != 5 {
		t.Fatalf("snapshot %v", snap)
	}
	l.AckThrough(100)
	if l.Len() != 0 || l.Bytes() != 0 {
		t.Fatalf("after full ack len=%d bytes=%d", l.Len(), l.Bytes())
	}
}

// TestChangeLogViewsAreStable interleaves Append / Snapshot / AckThrough
// against a copying reference model: Snapshot hands out views of the log's
// backing array, so every view ever taken must stay element-for-element what
// it was when taken, whatever the log does afterwards.
func TestChangeLogViewsAreStable(t *testing.T) {
	type held struct{ view, want []LogEntry }
	for seed := int64(1); seed <= 20; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		var l ChangeLog
		var model []LogEntry // the copying reference
		var views []held
		nextID := uint64(0)
		for step := 0; step < 2000; step++ {
			switch r := rnd.Intn(10); {
			case r < 5:
				// Appenders interleave id assignment and queue order: ids
				// are unique (even in order, odd late) but only roughly
				// increasing.
				nextID += 2
				id := nextID
				if nextID > 2 && rnd.Intn(4) == 0 {
					id -= 3 // queued behind the larger id appended before it
				}
				e := LogEntry{ID: id, Time: int64(step), Op: OpCreate,
					Name: fmt.Sprintf("f%d-%d", seed, step), Type: TypeRegular}
				l.Append(e)
				model = append(model, e)
			case r < 8:
				v := l.Snapshot()
				views = append(views, held{v, append([]LogEntry(nil), v...)})
				if cap(v) != len(v) {
					t.Fatalf("seed %d step %d: view cap %d > len %d: an append onto it would write into the log",
						seed, step, cap(v), len(v))
				}
			default:
				var id uint64
				switch {
				case len(model) == 0:
					id = nextID
				case rnd.Intn(2) == 0:
					id = model[rnd.Intn(len(model))].ID // prefix, or a hole behind one
				default:
					id = uint64(rnd.Int63n(int64(nextID) + 2))
				}
				l.AckThrough(id)
				kept := make([]LogEntry, 0, len(model))
				for _, e := range model {
					if e.ID > id {
						kept = append(kept, e)
					}
				}
				model = kept
			}
			wantBytes := 0
			for _, e := range model {
				wantBytes += entryWireBytes(e)
			}
			if l.Len() != len(model) || l.Bytes() != wantBytes {
				t.Fatalf("seed %d step %d: len=%d bytes=%d, model len=%d bytes=%d",
					seed, step, l.Len(), l.Bytes(), len(model), wantBytes)
			}
			if got := l.Snapshot(); !slices.Equal(got, model) {
				t.Fatalf("seed %d step %d: log %v, model %v", seed, step, got, model)
			}
			for i, h := range views {
				if !slices.Equal(h.view, h.want) {
					t.Fatalf("seed %d step %d: view %d changed under its holder:\n got %v\nwant %v",
						seed, step, i, h.view, h.want)
				}
			}
			if len(views) > 64 {
				views = views[32:]
			}
		}
	}
}

func TestAckThroughOutOfOrderIDs(t *testing.T) {
	var l ChangeLog
	// Concurrent appenders can interleave id assignment and queue order.
	for _, id := range []uint64{2, 1, 4, 3} {
		l.Append(LogEntry{ID: id, Op: OpCreate, Name: fmt.Sprintf("n%d", id)})
	}
	l.AckThrough(2)
	for _, e := range l.Snapshot() {
		if e.ID <= 2 {
			t.Fatalf("entry %d survived AckThrough(2)", e.ID)
		}
	}
	if l.Len() != 2 {
		t.Fatalf("len=%d", l.Len())
	}
}

func TestCompactNetAndMax(t *testing.T) {
	entries := []LogEntry{
		{ID: 1, Time: 10, Op: OpCreate, Name: "a", Type: TypeRegular},
		{ID: 2, Time: 30, Op: OpCreate, Name: "b", Type: TypeRegular},
		{ID: 3, Time: 20, Op: OpDelete, Name: "a"},
		{ID: 4, Time: 25, Op: OpMkdir, Name: "d", Type: TypeDir},
	}
	c := Compact(entries)
	// a cancels (create+delete), b and d remain: net +2.
	if c.NetEntries != 2 {
		t.Errorf("NetEntries=%d, want 2", c.NetEntries)
	}
	if c.MaxTime != 30 || c.MaxID != 4 || c.Count != 4 {
		t.Errorf("MaxTime=%d MaxID=%d Count=%d", c.MaxTime, c.MaxID, c.Count)
	}
	// Final ops: a→removed, b→put, d→put.
	final := map[string]bool{}
	for _, op := range c.Ops {
		final[op.Name] = op.Put
	}
	if final["a"] || !final["b"] || !final["d"] {
		t.Errorf("ops %v", c.Ops)
	}
}

// TestCompactEquivalence is the core §5.3 property: applying the compacted
// update yields the same directory state as applying the raw entries in FIFO
// order, for any FIFO-legal entry sequence.
func TestCompactEquivalence(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		// Generate a FIFO-legal sequence: per name, create/delete alternate
		// starting from "absent".
		names := []string{"a", "b", "c", "d"}
		present := map[string]bool{}
		var entries []LogEntry
		for i := 0; i < 20; i++ {
			n := names[rnd.Intn(len(names))]
			var op Op
			if present[n] {
				op = OpDelete
				present[n] = false
			} else {
				op = OpCreate
				present[n] = true
			}
			entries = append(entries, LogEntry{
				ID: uint64(i + 1), Time: int64(rnd.Intn(100)), Op: op, Name: n,
				Type: TypeRegular,
			})
		}

		// Reference: apply raw entries in order.
		refList := map[string]bool{}
		refSize := int64(0)
		refTime := int64(0)
		for _, e := range entries {
			switch e.Op {
			case OpCreate:
				refList[e.Name] = true
				refSize++
			case OpDelete:
				delete(refList, e.Name)
				refSize--
			}
			if e.Time > refTime {
				refTime = e.Time
			}
		}

		// Compacted: attribute merge + final op per name.
		c := Compact(entries)
		gotList := map[string]bool{}
		for _, op := range c.Ops {
			if op.Put {
				gotList[op.Name] = true
			} else {
				delete(gotList, op.Name)
			}
		}
		var attr Attr
		c.ApplyToAttr(&attr)
		if attr.Size != refSize && !(refSize < 0 && attr.Size == 0) {
			t.Fatalf("trial %d: size %d, want %d", trial, attr.Size, refSize)
		}
		if attr.Mtime != refTime {
			t.Fatalf("trial %d: mtime %d, want %d", trial, attr.Mtime, refTime)
		}
		if fmt.Sprint(gotList) != fmt.Sprint(refList) {
			t.Fatalf("trial %d: list %v, want %v", trial, gotList, refList)
		}
	}
}

func TestApplyToAttrClampsSize(t *testing.T) {
	c := Compacted{NetEntries: -5}
	a := Attr{Size: 2}
	c.ApplyToAttr(&a)
	if a.Size != 0 {
		t.Fatalf("size=%d, want clamped 0", a.Size)
	}
}

func TestOpClassification(t *testing.T) {
	for _, op := range []Op{OpCreate, OpDelete, OpMkdir, OpRmdir} {
		if !op.DoubleInode() || !op.UpdatesDir() {
			t.Errorf("%v misclassified", op)
		}
	}
	for _, op := range []Op{OpStat, OpOpen, OpClose, OpStatDir, OpReadDir} {
		if op.DoubleInode() {
			t.Errorf("%v wrongly double-inode", op)
		}
	}
	if !OpStatDir.DirRead() || !OpReadDir.DirRead() || OpStat.DirRead() {
		t.Error("DirRead misclassification")
	}
	if !OpRename.UpdatesDir() {
		t.Error("rename must update directories")
	}
}
