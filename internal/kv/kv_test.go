package kv

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
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
