package kv

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestPutGetDelete(t *testing.T) {
	s := New()
	if _, ok := s.Get([]byte("a")); ok {
		t.Fatal("empty store returned a value")
	}
	if !s.Put([]byte("a"), []byte("1")) {
		t.Fatal("first Put not reported as insert")
	}
	if s.Put([]byte("a"), []byte("2")) {
		t.Fatal("overwrite reported as insert")
	}
	v, ok := s.Get([]byte("a"))
	if !ok || string(v) != "2" {
		t.Fatalf("got %q %v", v, ok)
	}
	if !s.Delete([]byte("a")) {
		t.Fatal("Delete missed existing key")
	}
	if s.Delete([]byte("a")) {
		t.Fatal("Delete of absent key reported true")
	}
	if s.Len() != 0 {
		t.Fatalf("Len=%d, want 0", s.Len())
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s := New()
	s.Put([]byte("k"), []byte("abc"))
	v, _ := s.Get([]byte("k"))
	v[0] = 'X'
	v2, _ := s.Get([]byte("k"))
	if string(v2) != "abc" {
		t.Fatalf("internal value mutated: %q", v2)
	}
}

func TestScanOrderAndPrefix(t *testing.T) {
	s := New()
	keys := []string{"dir/b", "dir/a", "dir/c", "other/x", "dir2/z"}
	for _, k := range keys {
		s.Put([]byte(k), []byte(k))
	}
	var got []string
	s.Scan([]byte("dir/"), func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	want := []string{"dir/a", "dir/b", "dir/c"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("scan got %v, want %v", got, want)
	}
	if n := s.CountPrefix([]byte("dir/")); n != 3 {
		t.Fatalf("CountPrefix=%d", n)
	}
}

func TestScanEarlyStop(t *testing.T) {
	s := New()
	for i := 0; i < 10; i++ {
		s.Put([]byte(fmt.Sprintf("k%02d", i)), nil)
	}
	n := 0
	s.Scan([]byte("k"), func(k, v []byte) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("visited %d, want 3", n)
	}
}

func TestRange(t *testing.T) {
	s := New()
	for i := 0; i < 10; i++ {
		s.Put([]byte(fmt.Sprintf("k%02d", i)), nil)
	}
	var got []string
	s.Range([]byte("k03"), []byte("k07"), func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	if len(got) != 4 || got[0] != "k03" || got[3] != "k06" {
		t.Fatalf("range got %v", got)
	}
}

func TestClear(t *testing.T) {
	s := New()
	for i := 0; i < 100; i++ {
		s.Put([]byte(fmt.Sprintf("k%d", i)), nil)
	}
	s.Clear()
	if s.Len() != 0 || s.Has([]byte("k1")) {
		t.Fatal("Clear left data behind")
	}
}

// TestMatchesReferenceModel drives random ops against the skiplist and a
// plain map and compares every observation.
func TestMatchesReferenceModel(t *testing.T) {
	s := New()
	ref := map[string]string{}
	rnd := rand.New(rand.NewSource(99))
	for i := 0; i < 20000; i++ {
		k := fmt.Sprintf("key-%03d", rnd.Intn(500))
		switch rnd.Intn(4) {
		case 0, 1:
			v := fmt.Sprintf("v%d", i)
			ins := s.Put([]byte(k), []byte(v))
			_, had := ref[k]
			if ins == had {
				t.Fatalf("Put(%q) insert=%v but had=%v", k, ins, had)
			}
			ref[k] = v
		case 2:
			del := s.Delete([]byte(k))
			_, had := ref[k]
			if del != had {
				t.Fatalf("Delete(%q)=%v but had=%v", k, del, had)
			}
			delete(ref, k)
		case 3:
			v, ok := s.Get([]byte(k))
			rv, rok := ref[k]
			if ok != rok || (ok && string(v) != rv) {
				t.Fatalf("Get(%q)=%q,%v want %q,%v", k, v, ok, rv, rok)
			}
		}
	}
	if s.Len() != len(ref) {
		t.Fatalf("Len=%d, ref=%d", s.Len(), len(ref))
	}
	// Full scan must be sorted and match the reference exactly.
	var keys []string
	s.Scan(nil, func(k, v []byte) bool {
		keys = append(keys, string(k))
		return true
	})
	if !sort.StringsAreSorted(keys) {
		t.Fatal("scan not sorted")
	}
	if len(keys) != len(ref) {
		t.Fatalf("scan saw %d keys, ref has %d", len(keys), len(ref))
	}
}

// Property: for any key set, scanning with any prefix returns exactly the
// sorted subset carrying that prefix.
func TestScanPrefixProperty(t *testing.T) {
	f := func(keys [][]byte, prefix []byte) bool {
		if len(prefix) > 4 {
			prefix = prefix[:4]
		}
		s := New()
		set := map[string]bool{}
		for _, k := range keys {
			s.Put(k, nil)
			set[string(k)] = true
		}
		var want []string
		for k := range set {
			if bytes.HasPrefix([]byte(k), prefix) {
				want = append(want, k)
			}
		}
		sort.Strings(want)
		var got []string
		s.Scan(prefix, func(k, _ []byte) bool {
			got = append(got, string(k))
			return true
		})
		return fmt.Sprint(got) == fmt.Sprint(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPut(b *testing.B) {
	s := New()
	keys := make([][]byte, 1024)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("bench-key-%04d", i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Put(keys[i%len(keys)], keys[i%len(keys)])
	}
}

// BenchmarkPutUnique puts unique names with unique inode-sized values into
// one directory, the hotdir shape, and reports the live heap each entry adds.
func BenchmarkPutUnique(b *testing.B) {
	s := New()
	key := make([]byte, groupLen, groupLen+24)
	key[groupLen-1] = '/'
	val := make([]byte, 89)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := strconv.AppendInt(append(key[:groupLen], 'f'), int64(i), 10)
		binary.BigEndian.PutUint64(val, uint64(i))
		s.Put(k, val)
	}
	b.StopTimer()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	b.ReportMetric(float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/float64(b.N), "heap-B/entry")
}

func BenchmarkGet(b *testing.B) {
	s := New()
	keys := make([][]byte, 1024)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("bench-key-%04d", i))
		s.Put(keys[i], keys[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Get(keys[i%len(keys)])
	}
}

// TestHashTailWord: the tail after the last full word folds in as the
// little-endian word of its bytes, zero-padded, with its length in the top
// byte, for every tail length: the overlapping loads cover each byte once.
func TestHashTailWord(t *testing.T) {
	const prime = 1099511628211
	key := []byte("0123456789abcdef!")
	for n := 0; n <= len(key); n++ {
		b := key[:n]
		h := uint64(14695981039346656037)
		for ; len(b) >= 8; b = b[8:] {
			h = (h ^ binary.LittleEndian.Uint64(b)) * prime
		}
		if len(b) > 0 {
			var w uint64
			for i, c := range b {
				w |= uint64(c) << (8 * i)
			}
			h = (h ^ w ^ uint64(len(b))<<56) * prime
		}
		if got, want := hash(key[:n]), h*0x9e3779b97f4a7c15; got != want {
			t.Errorf("%d bytes: hash %#x, want %#x", n, got, want)
		}
	}
}

// TestImageRestores: two stores that hold the same pairs, built in other
// orders, one through overwrites, deletes and compactions, have images of
// one size; a restore of either holds those pairs and those live bytes, and
// images to the same bytes again.
func TestImageRestores(t *testing.T) {
	keys := [][]byte{fuzzKey(0), fuzzKey(3), fuzzKey(9), fuzzKey(12), fuzzKey(20), fuzzKey(28), fuzzKey(30), []byte("flat"), []byte("\xff")}
	a, b := New(), New()
	for i, k := range keys {
		a.Put(k, []byte{byte(i)})
	}
	for i := len(keys) - 1; i >= 0; i-- {
		b.Put(keys[i], bytes.Repeat([]byte{9}, 40))
		b.Put([]byte(fmt.Sprintf("gone%d", i)), []byte("x"))
	}
	for i, k := range keys {
		b.Put(k, []byte{byte(i)})
		b.Delete([]byte(fmt.Sprintf("gone%d", i)))
	}
	img := a.AppendImage(nil)
	if len(img) != a.ImageSize() || b.ImageSize() != a.ImageSize() {
		t.Fatalf("image of %d bytes, ImageSize %d and %d", len(img), a.ImageSize(), b.ImageSize())
	}
	if a.Bytes() != b.Bytes() {
		t.Fatalf("live bytes %d / %d", a.Bytes(), b.Bytes())
	}
	r := New()
	r.Put([]byte("stale"), []byte("dropped by the restore"))
	n := 0
	if err := r.Restore(img, func([]byte) { n++ }); err != nil {
		t.Fatal(err)
	}
	if n != len(keys) || r.Len() != len(keys) || r.Has([]byte("stale")) || r.Bytes() != a.Bytes() {
		t.Fatalf("restored %d keys (visited %d), live bytes %d, want %d and %d", r.Len(), n, r.Bytes(), len(keys), a.Bytes())
	}
	for i, k := range keys {
		if v, _ := r.Get(k); !bytes.Equal(v, []byte{byte(i)}) {
			t.Fatalf("restored %q = %x", k, v)
		}
	}
	if !bytes.Equal(r.AppendImage(nil), img) {
		t.Fatal("the restored store images to other bytes")
	}
	rb := New()
	if err := rb.Restore(b.AppendImage(nil), nil); err != nil || rb.Len() != len(keys) || !bytes.Equal(rb.AppendImage(nil), b.AppendImage(nil)) {
		t.Fatalf("the other store's image restores to %d keys (%v)", rb.Len(), err)
	}
}

// TestRestoreRefuses: images no store produces are errors, not panics.
func TestRestoreRefuses(t *testing.T) {
	group := string(fuzzGroup('e', 1))
	for _, img := range []string{
		"\x05hello\x01\x01a\x00",                  // a prefix of no group's length
		"\x22" + strings.Repeat("x", 34) + "\x00", // a group's length without its '/'
		"\x00\x01\x22" + group + "\x00",           // a flat key of a group's shape
		"\x00\x02\x01a\x00\x01a\x00",              // a key twice
		"\x00\x01\x01a",                           // a value missing
		"\x00\x09\x01a\x00",                       // more entries than bytes
		"\x80",                                    // a truncated length
	} {
		if err := New().Restore([]byte(img), nil); err == nil {
			t.Errorf("Restore(%q) succeeded", img)
		}
	}
}
