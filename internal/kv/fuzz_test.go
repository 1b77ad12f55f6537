package kv

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// fuzzNames are the component names a fuzzed key ends in: the empty name,
// names that prefix one another, and two past 127 bytes, whose length takes
// two uvarint bytes.
var fuzzNames = []string{"", "a", "ab", "abc", "b", "ba", "c", strings.Repeat("x", 130), strings.Repeat("xy", 100)}

// fuzzFlat are non-conforming keys: short ones, keys that prefix one another,
// one 34 bytes long without the '/', and keys at the top of byte order.
var fuzzFlat = []string{"a", "dir/", "dir/x", "dir2", "e", strings.Repeat("f", 34), "j", "\xff", "\xff\xff"}

// fuzzValLens are the value lengths a Put picks from; 128 and 300 take two
// uvarint bytes.
var fuzzValLens = []int{0, 1, 3, 5, 13, 127, 128, 300}

// fuzzKey turns a byte into a key: three groups ('e' and 'i' tables of one
// directory, the 'e' table of another) times the names, or a flat key.
func fuzzKey(c byte) []byte {
	groups := [][]byte{fuzzGroup('e', 1), fuzzGroup('i', 1), fuzzGroup('e', 2)}
	i := int(c) % (len(groups)*len(fuzzNames) + len(fuzzFlat))
	if i < len(groups)*len(fuzzNames) {
		return append(slices.Clone(groups[i/len(fuzzNames)]), fuzzNames[i%len(fuzzNames)]...)
	}
	return []byte(fuzzFlat[i-len(groups)*len(fuzzNames)])
}

// fuzzGroup is a conforming group prefix: tag, a 32-byte id, '/'.
func fuzzGroup(tag, id byte) []byte {
	g := make([]byte, groupLen)
	g[0], g[1], g[groupLen-1] = tag, id, '/'
	return g
}

// fuzzPrefix turns two bytes into a scan prefix or range bound: a key cut
// short, so group prefixes, prefixes inside a group and flat prefixes all
// occur, or nil.
func fuzzPrefix(c, cut byte) []byte {
	if c == 0xff {
		return nil
	}
	k := fuzzKey(c)
	switch cut % 4 {
	case 0:
		return k
	case 1:
		if conforming(k) {
			return k[:groupLen]
		}
	}
	return k[:len(k)-int(cut)%(len(k)+1)]
}

// FuzzStore runs a byte string as Put, overwrite, Delete, Get, GetView,
// Scan, ScanNames, Range and CountPrefix calls against a sorted-map model
// and checks every answer. It also holds views taken with GetView across
// writes to other keys and compactions and checks they still read their
// bytes, and checks after every call that each shard's arena holds at most
// twice its live bytes.
func FuzzStore(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 3, 4, 3, 1, 5, 4, 1, 5, 6, 255, 0, 7, 27, 1, 8, 0, 9})
	// Fill one group, overwrite with other lengths and delete: compactions.
	var fill []byte
	for i := 0; i < 9; i++ {
		fill = append(fill, 0, byte(i), byte(i))
	}
	for i := 0; i < 9; i++ {
		fill = append(fill, 5, byte(i), 2, byte(i), 7, 3, byte(i), 3, byte(i))
	}
	f.Add(append(fill, 6, 0, 1, 7, 0, 1, 8, 0, 255, 9, 0, 1))
	// Scan a group, overwrite one entry at another length, scan again: the
	// built order must follow the entry.
	f.Add([]byte{0, 1, 3, 0, 2, 3, 6, 0, 0, 1, 2, 1, 5, 6, 0, 0, 1, 7, 0, 0, 1})
	f.Add([]byte("the quick brown fox jumps over the lazy dog, again and again and again"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s := New()
		model := map[string][]byte{}
		type view struct {
			key       string
			view, was []byte
		}
		var views []view
		// forget drops the views of key: a write to it may change them.
		forget := func(key []byte) {
			views = slices.DeleteFunc(views, func(v view) bool { return v.key == string(key) })
		}
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			c := data[0]
			data = data[1:]
			return c
		}
		var stamp byte
		value := func(n int) []byte {
			stamp++
			return bytes.Repeat([]byte{stamp}, n)
		}
		for len(data) > 0 {
			op := next() % 10
			key := fuzzKey(next())
			have, had := model[string(key)]
			switch op {
			case 0, 1, 2: // Put, overwrite at the same length, at another
				n := fuzzValLens[int(next())%len(fuzzValLens)]
				if op == 1 && had {
					n = len(have)
				} else if op == 2 && had && n == len(have) {
					n++
				}
				val := value(n)
				if ins := s.Put(key, val); ins == had {
					t.Fatalf("Put(%q) reported insert %v, model had it %v", key, ins, had)
				}
				forget(key)
				model[string(key)] = slices.Clone(val)
				clear(val) // the store must hold its own copy
			case 3:
				if del := s.Delete(key); del != had {
					t.Fatalf("Delete(%q) = %v, model had it %v", key, del, had)
				}
				forget(key)
				delete(model, string(key))
			case 4:
				v, ok := s.Get(key)
				if ok != had || !bytes.Equal(v, have) {
					t.Fatalf("Get(%q) = %q %v, model %q %v", key, v, ok, have, had)
				}
				if ok && s.Has(key) != ok {
					t.Fatalf("Has(%q) disagrees with Get", key)
				}
			case 5:
				v, ok := s.GetView(key)
				if ok != had || !bytes.Equal(v, have) {
					t.Fatalf("GetView(%q) = %q %v, model %q %v", key, v, ok, have, had)
				}
				if ok && len(views) < 8 {
					views = append(views, view{string(key), v, slices.Clone(v)})
				}
			case 6, 7, 9:
				prefix := fuzzPrefix(next(), next())
				var want []string
				for _, k := range sortedKeys(model) {
					if strings.HasPrefix(k, string(prefix)) {
						want = append(want, k+"="+string(model[k]))
					}
				}
				var got []string
				switch op {
				case 6:
					s.Scan(prefix, func(k, v []byte) bool { got = append(got, string(k)+"="+string(v)); return true })
				case 7:
					s.ScanNames(prefix, func(name string, v []byte) bool {
						got = append(got, string(prefix)+name+"="+string(v))
						return true
					})
				case 9:
					if n := s.CountPrefix(prefix); n != len(want) {
						t.Fatalf("CountPrefix(%q) = %d, model %d", prefix, n, len(want))
					}
					got = want
				}
				if !slices.Equal(got, want) {
					t.Fatalf("op %d prefix %q: got %q, model %q", op, prefix, got, want)
				}
			case 8:
				lo, hi := fuzzPrefix(next(), next()), fuzzPrefix(next(), next())
				var want []string
				for _, k := range sortedKeys(model) {
					if k >= string(lo) && (hi == nil || k < string(hi)) {
						want = append(want, k)
					}
				}
				var got []string
				s.Range(lo, hi, func(k, _ []byte) bool { got = append(got, string(k)); return true })
				if !slices.Equal(got, want) {
					t.Fatalf("Range(%q, %q): got %q, model %q", lo, hi, got, want)
				}
			}
			if s.Len() != len(model) {
				t.Fatalf("Len = %d, model %d", s.Len(), len(model))
			}
			for _, v := range views {
				if !bytes.Equal(v.view, v.was) {
					t.Fatalf("a view of %q read %q, then %q after writes to other keys", v.key, v.was, v.view)
				}
			}
			live := checkArena(t, "fallback", s.fallback)
			for p, sh := range s.shards {
				live += checkArena(t, p, sh)
			}
			if s.Bytes() != live {
				t.Fatalf("Bytes = %d, the arenas hold %d live", s.Bytes(), live)
			}
		}
	})
}

// FuzzImage restores arbitrary bytes as an image, which must not panic and,
// when accepted, must image back to the same bytes; then it runs the bytes as
// Put and Delete calls against a sorted-map model, images the store and
// restores the image into a fresh store, which must hold exactly the model's
// pairs, visit each key once, and image to the same bytes.
func FuzzImage(f *testing.F) {
	f.Add([]byte{})
	f.Add(New().AppendImage(nil))
	f.Add([]byte{0, 1, 1, 'a', 0})
	f.Add([]byte{34, 1, 2, 3})
	f.Add([]byte{0, 1, 0, 0, 2, 0, 2, 3, 0, 4, 5, 1, 6, 1, 7, 3, 8})
	f.Add([]byte("the quick brown fox jumps over the lazy dog, again and again and again"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s := New()
		if err := s.Restore(data, nil); err == nil {
			if img := s.AppendImage(nil); !bytes.Equal(img, data) {
				r := New()
				if err := r.Restore(img, nil); err != nil || !bytes.Equal(r.AppendImage(nil), img) {
					t.Fatalf("an accepted image does not round-trip: %x -> %x (%v)", data, img, err)
				}
			}
		}
		s = New()
		model := map[string][]byte{}
		for i := 0; i+2 < len(data); i += 3 {
			key := fuzzKey(data[i+1])
			if data[i]%4 == 3 {
				s.Delete(key)
				delete(model, string(key))
				continue
			}
			val := bytes.Repeat([]byte{data[i]}, fuzzValLens[int(data[i+2])%len(fuzzValLens)])
			s.Put(key, val)
			model[string(key)] = val
		}
		img := s.AppendImage(nil)
		if len(img) != s.ImageSize() {
			t.Fatalf("image of %d bytes, ImageSize %d", len(img), s.ImageSize())
		}
		r := New()
		visits := map[string]int{}
		if err := r.Restore(img, func(k []byte) { visits[string(k)]++ }); err != nil {
			t.Fatalf("Restore of an image: %v", err)
		}
		var got []string
		r.Range(nil, nil, func(k, v []byte) bool { got = append(got, string(k)+"="+string(v)); return true })
		var want []string
		for _, k := range sortedKeys(model) {
			want = append(want, k+"="+string(model[k]))
			if visits[k] != 1 {
				t.Fatalf("Restore visited %q %d times", k, visits[k])
			}
		}
		if !slices.Equal(got, want) || r.Len() != len(model) || len(visits) != len(model) {
			t.Fatalf("restored %q, model %q", got, want)
		}
		if r.Bytes() != s.Bytes() || !bytes.Equal(r.AppendImage(nil), img) {
			t.Fatalf("restored store: %d live bytes and image %x; the original's %d and %x", r.Bytes(), r.AppendImage(nil), s.Bytes(), img)
		}
	})
}

// sortedKeys returns the model's keys in byte order.
func sortedKeys(model map[string][]byte) []string {
	keys := make([]string, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// checkArena fails t unless sh's arena holds at most twice its live bytes,
// counted from the index, plus a small constant, and returns them.
func checkArena(t *testing.T, name string, sh *shard) int {
	t.Helper()
	live := 0
	for _, o := range sh.index {
		if o != 0 {
			_, _, end := sh.entry(o - 1)
			live += end - int(o-1)
		}
	}
	if len(sh.arena) > 2*live+16 {
		t.Fatalf("shard %s: arena of %d bytes for %d live", fmt.Sprintf("%q", name), len(sh.arena), live)
	}
	return live
}
