package kv_test

// Tests for the sharded arena representation behind the Store API:
// group-shard routing, copies and views of stored values, the heap an entry
// costs, compaction, ordered merges across the conforming/fallback split, and
// the O(1) group CountPrefix.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"switchfs/internal/core"
	"switchfs/internal/kv"
)

// dirID returns a distinct 32-byte directory id.
func dirID(i byte) core.DirID {
	var id core.DirID
	id[0] = uint64(i)
	return id
}

// schemaKey builds a conforming tag+id+'/'+name key.
func schemaKey(tag byte, id core.DirID, name string) []byte {
	k := make([]byte, 0, 34+len(name))
	k = append(k, tag)
	k = id.AppendBinary(k)
	k = append(k, '/')
	return append(k, name...)
}

// TestShardedOrdering interleaves conforming keys from several groups with
// non-conforming fallback keys and checks that full scans and ranges still
// come back in global byte order.
func TestShardedOrdering(t *testing.T) {
	s := kv.New()
	var want [][]byte
	// Fallback keys that sort before ('A'...), between ('e'-tag groups vs
	// 'i'-tag groups), and after ('z'...) the schema groups. One is exactly
	// 34 bytes without the '/' so it exercises the near-conforming shape.
	fallback := [][]byte{
		[]byte("A-first"),
		[]byte("f-between-tags"),
		[]byte("z-last"),
		bytes.Repeat([]byte{'f'}, 34),
	}
	for _, k := range fallback {
		s.Put(k, []byte("fb"))
		want = append(want, k)
	}
	for _, tag := range []byte{'e', 'i'} {
		for _, d := range []byte{1, 3, 2} {
			for _, name := range []string{"b", "a", "c/nested", ""} {
				k := schemaKey(tag, dirID(d), name)
				s.Put(k, []byte{tag, d})
				want = append(want, k)
			}
		}
	}
	sortByteSlices(want)

	var got [][]byte
	s.Scan(nil, func(k, _ []byte) bool {
		got = append(got, append([]byte(nil), k...))
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("scan returned %d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("key %d: got %q want %q", i, got[i], want[i])
		}
	}

	// Range over a window that starts inside one group and ends inside
	// another must honor the same global order.
	lo, hi := want[3], want[len(want)-3]
	var ranged [][]byte
	s.Range(lo, hi, func(k, _ []byte) bool {
		ranged = append(ranged, append([]byte(nil), k...))
		return true
	})
	wantRange := want[3 : len(want)-3]
	if len(ranged) != len(wantRange) {
		t.Fatalf("range returned %d keys, want %d", len(ranged), len(wantRange))
	}
	for i := range wantRange {
		if !bytes.Equal(ranged[i], wantRange[i]) {
			t.Fatalf("range key %d: got %q want %q", i, ranged[i], wantRange[i])
		}
	}
}

// TestSameNameAcrossGroups stores the same component name under many
// directories and checks the values stay distinct per key.
func TestSameNameAcrossGroups(t *testing.T) {
	s := kv.New()
	const groups = 64
	for d := 0; d < groups; d++ {
		k := schemaKey('i', dirID(byte(d)), "shared-name")
		s.Put(k, []byte(fmt.Sprintf("val-%d", d)))
	}
	if s.Len() != groups {
		t.Fatalf("Len = %d, want %d", s.Len(), groups)
	}
	for d := 0; d < groups; d++ {
		v, ok := s.Get(schemaKey('i', dirID(byte(d)), "shared-name"))
		if !ok || string(v) != fmt.Sprintf("val-%d", d) {
			t.Fatalf("group %d: got %q ok=%v", d, v, ok)
		}
	}
}

// TestInternKeyIsTheStoredCopy: the store keeps its own copy of a value,
// never the caller's slice. A caller that rewrites its slice after Put
// changes nothing the store returns, and a later Put of the rewritten bytes
// stores a value of its own.
func TestInternKeyIsTheStoredCopy(t *testing.T) {
	s := kv.New()
	buf := []byte("value-one")
	k1, k2, k3 := schemaKey('i', dirID(1), "a"), schemaKey('i', dirID(2), "b"), schemaKey('i', dirID(3), "c")
	s.Put(k1, buf)
	copy(buf, "VALUE")
	s.Put(k2, buf)
	s.Put(k3, []byte("value-one"))
	for k, want := range map[string]string{string(k1): "value-one", string(k2): "VALUE-one", string(k3): "value-one"} {
		if v, _ := s.Get([]byte(k)); string(v) != want {
			t.Errorf("key %q reads %q, want %q", k[34:], v, want)
		}
	}
	v1, _ := s.GetView(k1)
	v2, _ := s.GetView(k2)
	if &v1[0] == &v2[0] || &v1[0] == &buf[0] || &v2[0] == &buf[0] {
		t.Error("a stored value aliases another value or the caller's slice")
	}
}

// TestCompactionBounded: deleted entries do not stay in the arena.
// Putting, then deleting, 100 000 unique names with unique inode-sized
// values leaves the store holding at most 64 KiB more than an empty one:
// compaction drops every dead entry, so nothing keeps a name or a value for
// every key that ever passed through.
func TestCompactionBounded(t *testing.T) {
	const n, budget = 100_000, 64 << 10
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	s := kv.New()
	s.Put(schemaKey('i', dirID(1), "warm"), []byte("shard"))
	before := live()
	val := make([]byte, 90)
	for i := 0; i < n; i++ {
		k := schemaKey('i', dirID(1), fmt.Sprintf("name-%06d", i))
		binary.BigEndian.PutUint64(val, uint64(i))
		s.Put(k, val)
		s.Delete(k)
	}
	after := live()
	runtime.KeepAlive(s)
	grown := int64(after) - int64(before)
	t.Logf("store grew %d bytes over %d unique puts and deletes", grown, n)
	if grown > budget {
		t.Errorf("store retains %d bytes after %d unique puts and deletes, want at most %d", grown, n, budget)
	}
}

// TestBytesPerEntry: 10 000 unique 8-byte names with 13-byte values in one
// group add at most 48 bytes each to the live heap — the entry's 23 bytes
// and two length bytes in the arena, its index slot, and the slack of the
// arena's and the index's growth.
func TestBytesPerEntry(t *testing.T) {
	const n, budget = 10_000, 48
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = schemaKey('i', dirID(1), fmt.Sprintf("f%07d", i))
	}
	val := make([]byte, 13)
	before := live()
	s := kv.New()
	for i, k := range keys {
		binary.BigEndian.PutUint64(val, uint64(i))
		s.Put(k, val)
	}
	after := live()
	runtime.KeepAlive(s)
	runtime.KeepAlive(keys)
	per := float64(int64(after)-int64(before)) / n
	t.Logf("%.1f live bytes per entry", per)
	if per > budget {
		t.Errorf("%.1f live bytes per entry, want at most %d", per, budget)
	}
}

// TestGetViewNoCopy pins the GetView contract on the sharded store: the view
// aliases store memory (same backing array across two calls) while Get
// returns a fresh copy each time.
func TestGetViewNoCopy(t *testing.T) {
	s := kv.New()
	k := schemaKey('i', dirID(9), "node")
	s.Put(k, []byte("payload"))
	v1, _ := s.GetView(k)
	v2, _ := s.GetView(k)
	if &v1[0] != &v2[0] {
		t.Error("GetView should return the stored slice, not a copy")
	}
	c1, _ := s.Get(k)
	c2, _ := s.Get(k)
	if &c1[0] == &c2[0] {
		t.Error("Get should return a fresh copy")
	}
}

// TestGroupCountPrefix checks the O(1) whole-group count agrees with a
// counting scan as entries come and go.
func TestGroupCountPrefix(t *testing.T) {
	s := kv.New()
	id := dirID(5)
	prefix := core.EntryPrefix(id)
	if got := s.CountPrefix(prefix); got != 0 {
		t.Fatalf("empty group count = %d", got)
	}
	for i := 0; i < 10; i++ {
		s.Put(schemaKey('e', id, fmt.Sprintf("f%d", i)), []byte{1})
	}
	// Same names in another group must not leak into the count.
	for i := 0; i < 7; i++ {
		s.Put(schemaKey('e', dirID(6), fmt.Sprintf("f%d", i)), []byte{1})
	}
	if got := s.CountPrefix(prefix); got != 10 {
		t.Fatalf("group count = %d, want 10", got)
	}
	scanned := 0
	s.Scan(prefix, func(_, _ []byte) bool { scanned++; return true })
	if scanned != 10 {
		t.Fatalf("scan count = %d, want 10", scanned)
	}
	for i := 0; i < 10; i++ {
		s.Delete(schemaKey('e', id, fmt.Sprintf("f%d", i)))
	}
	if got := s.CountPrefix(prefix); got != 0 {
		t.Fatalf("drained group count = %d", got)
	}
}

// TestScanAfterDeleteAndReinsert mutates a group between ordered reads so
// the lazily rebuilt suffix index is exercised.
func TestScanAfterDeleteAndReinsert(t *testing.T) {
	s := kv.New()
	id := dirID(8)
	for _, n := range []string{"a", "b", "c", "d"} {
		s.Put(schemaKey('e', id, n), []byte(n))
	}
	collect := func() string {
		out := ""
		s.Scan(core.EntryPrefix(id), func(k, _ []byte) bool {
			out += string(k[34:]) + ","
			return true
		})
		return out
	}
	if got := collect(); got != "a,b,c,d," {
		t.Fatalf("initial order %q", got)
	}
	s.Delete(schemaKey('e', id, "b"))
	if got := collect(); got != "a,c,d," {
		t.Fatalf("after delete %q", got)
	}
	s.Put(schemaKey('e', id, "ba"), []byte("x"))
	if got := collect(); got != "a,ba,c,d," {
		t.Fatalf("after reinsert %q", got)
	}
}

// TestScanPrefixInsideGroup scans with a prefix longer than the group prefix
// (group + name prefix) and checks only matching suffixes come back.
func TestScanPrefixInsideGroup(t *testing.T) {
	s := kv.New()
	id := dirID(2)
	for _, n := range []string{"ab", "abc", "abd", "b", "aa"} {
		s.Put(schemaKey('e', id, n), []byte(n))
	}
	var got []string
	s.Scan(schemaKey('e', id, "ab"), func(k, v []byte) bool {
		got = append(got, string(v))
		return true
	})
	want := []string{"ab", "abc", "abd"}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

// TestScanNamesMatchesScan: ScanNames visits what Scan visits, in order,
// under a whole group, a prefix inside one and a non-conforming prefix, and
// hands out each name past the prefix. Under a group prefix the names are
// copied out of the store into one string: exactly one allocation per call,
// for a group of 5 names as for one of 500.
func TestScanNamesMatchesScan(t *testing.T) {
	s := kv.New()
	id := dirID(4)
	for _, n := range []string{"ab", "abc", "abd", "b", "aa"} {
		s.Put(schemaKey('e', id, n), []byte(n))
		s.Put([]byte("flat/"+n), []byte(n))
	}
	for _, prefix := range [][]byte{schemaKey('e', id, ""), schemaKey('e', id, "ab"), schemaKey('e', dirID(5), ""), []byte("flat/a")} {
		var want, got []string
		s.Scan(prefix, func(k, v []byte) bool {
			want = append(want, string(k[len(prefix):])+"="+string(v))
			return true
		})
		s.ScanNames(prefix, func(name string, v []byte) bool {
			got = append(got, name+"="+string(v))
			return true
		})
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("prefix %q: ScanNames %v, Scan %v", prefix, got, want)
		}
	}
	big := dirID(6)
	for i := 0; i < 500; i++ {
		s.Put(schemaKey('e', big, fmt.Sprintf("f%03d", i)), []byte{1})
	}
	for _, id := range []core.DirID{id, big} {
		group := schemaKey('e', id, "")
		names := 0
		if n := testing.AllocsPerRun(100, func() {
			s.ScanNames(group, func(name string, v []byte) bool { names++; return true })
		}); n != 1 {
			t.Errorf("ScanNames over a group of %d: %v allocs, want 1", s.CountPrefix(group), n)
		}
	}
}

func sortByteSlices(b [][]byte) {
	for i := 1; i < len(b); i++ {
		for j := i; j > 0 && bytes.Compare(b[j], b[j-1]) < 0; j-- {
			b[j], b[j-1] = b[j-1], b[j]
		}
	}
}
