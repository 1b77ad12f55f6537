// Package kv implements the ordered in-memory key-value store backing each
// metadata server — the stand-in for RocksDB in async-write mode (paper
// §7.1). Keys follow the metadata schema of Tab. 3 (a one-byte table tag, a
// 32-byte directory id, a '/' separator, and a component name), so the store
// shards by that 34-byte group prefix: each directory's records live in
// their own small map. Values are stored as given, one copy each: an inode
// is core.AppendInode's compact image (a fresh file's is 5 bytes plus its
// timestamp, a fresh directory's 37 plus it), a dentry 3 bytes. Two small
// direct-mapped caches share recurring bytes across keys: a component name
// repeated in many directories is stored once while it stays cached, and so
// is a small value (a dentry record, identical preloaded inodes); a name or
// value seen once costs one copy and no table entry, and nothing deleted is
// retained. Ordered prefix scans — directory entry lists enumerate children
// with one scan — are served from per-shard sorted indexes rebuilt lazily
// after mutations. Keys outside the schema shape (tests, baseline directory
// records) fall back to a flat shard that merges into scans in global byte
// order, so the external contract is unchanged: a byte-ordered map with
// prefix scans.
package kv

import (
	"bytes"
	"encoding/binary"
	"sort"
	"strings"
)

// groupLen is the length of the schema's group prefix: tag byte + 32-byte
// directory id + '/'.
const groupLen = 34

// Intern caches: internSlots slots each for names and for values no longer
// than internValMax bytes. A slot holds the last name or value that hashed
// to it, so the caches cost a fixed 10 KiB per store however many distinct
// names and values pass through.
const (
	internBits   = 8
	internSlots  = 1 << internBits
	internValMax = 128
)

// internSlot is the cache slot of b: FNV-1a, a word at a time, then a
// Fibonacci multiply whose top bits every input bit reaches (FNV's own top
// bits barely see the last byte, which is where f1 and f2 differ). The hash
// is fixed, not seeded, so what the caches share — and the heap the store
// holds — is the same in every process.
func internSlot(b []byte) int {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for ; len(b) >= 8; b = b[8:] {
		h = (h ^ binary.LittleEndian.Uint64(b)) * prime
	}
	for _, c := range b {
		h = (h ^ uint64(c)) * prime
	}
	return int((h * 0x9e3779b97f4a7c15) >> (64 - internBits))
}

// conforming reports whether key has the tag+id+'/' group shape. A key
// matching this shape always lives in its group shard, and a key that does
// not can never match a conforming prefix, so the two populations partition
// cleanly.
func conforming(key []byte) bool {
	return len(key) >= groupLen && key[groupLen-1] == '/'
}

// shard holds one group's records: suffix (component name) → value. order is
// the sorted live suffix list backing scans; it is dropped on structural
// changes and rebuilt on the next ordered read.
type shard struct {
	m     map[string][]byte
	order []string
}

func newShard() *shard { return &shard{m: make(map[string][]byte)} }

// ensureOrder returns the sorted suffix list, rebuilding it if a mutation
// invalidated it. The map iteration feeds a sort, so the randomized order
// never escapes.
func (sh *shard) ensureOrder() []string {
	if sh.order == nil {
		order := make([]string, 0, len(sh.m))
		for name := range sh.m {
			order = append(order, name)
		}
		sort.Strings(order)
		sh.order = order
	}
	return sh.order
}

// Store is a sorted key-value map. It copies keys and values in, sharing
// recurring names and small values through two bounded intern caches.
type Store struct {
	shards map[string]*shard
	// fallback holds non-conforming keys (full key as the suffix).
	fallback *shard
	// prefixes is the sorted shard-prefix list; nil after a shard is added.
	prefixes []string
	// names caches suffixes: a component name that many directories (or
	// tables) repeat is stored once while it holds its slot.
	names [internSlots]string
	// vals caches small values (≤ internValMax bytes): dentry records and
	// freshly-created inodes repeat a handful of byte patterns across
	// millions of keys.
	vals [internSlots][]byte
	n    int
}

// New creates an empty store.
func New() *Store {
	return &Store{shards: make(map[string]*shard), fallback: newShard()}
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	return s.n
}

// intern returns a string equal to b: the cached one on a hit, else a fresh
// copy, which takes over b's slot.
func (s *Store) intern(b []byte) string {
	slot := &s.names[internSlot(b)]
	if *slot != string(b) {
		*slot = string(b)
	}
	return *slot
}

// internVal returns a stored copy of val: for a small value, the cached one
// on a hit, else a fresh copy, which takes over val's slot. Stored values are
// never mutated in place (Put installs a fresh value), so sharing one slice
// across keys is safe.
func (s *Store) internVal(val []byte) []byte {
	if len(val) == 0 {
		return nil
	}
	if len(val) > internValMax {
		return append([]byte(nil), val...)
	}
	slot := &s.vals[internSlot(val)]
	if !bytes.Equal(*slot, val) {
		*slot = append([]byte(nil), val...)
	}
	return *slot
}

// lookup finds the shard and suffix for key without allocating. A nil shard
// means the key cannot be present.
func (s *Store) lookup(key []byte) (*shard, []byte) {
	if conforming(key) {
		return s.shards[string(key[:groupLen])], key[groupLen:]
	}
	return s.fallback, key
}

// Get returns a copy of the value stored under key.
func (s *Store) Get(key []byte) ([]byte, bool) {
	sh, suffix := s.lookup(key)
	if sh == nil {
		return nil, false
	}
	v, ok := sh.m[string(suffix)]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// GetView returns the value stored under key without copying. The returned
// slice aliases store memory — possibly shared with other keys holding an
// equal small value: the caller must not mutate it and must not retain it
// across a Put/Delete of the same key — decode immediately.
func (s *Store) GetView(key []byte) ([]byte, bool) {
	sh, suffix := s.lookup(key)
	if sh == nil {
		return nil, false
	}
	v, ok := sh.m[string(suffix)]
	return v, ok
}

// Has reports key presence without copying the value.
func (s *Store) Has(key []byte) bool {
	sh, suffix := s.lookup(key)
	if sh == nil {
		return false
	}
	_, ok := sh.m[string(suffix)]
	return ok
}

// Put stores a copy of val under key, overwriting any previous value. It
// reports whether the key was newly inserted.
func (s *Store) Put(key, val []byte) bool {
	var sh *shard
	var suffix []byte
	if conforming(key) {
		sh = s.shards[string(key[:groupLen])]
		if sh == nil {
			sh = newShard()
			s.shards[string(key[:groupLen])] = sh
			s.prefixes = nil
		}
		suffix = key[groupLen:]
	} else {
		sh, suffix = s.fallback, key
	}
	name := s.intern(suffix)
	_, existed := sh.m[name]
	sh.m[name] = s.internVal(val)
	if !existed {
		sh.order = nil
		s.n++
	}
	return !existed
}

// Delete removes key, reporting whether it was present.
func (s *Store) Delete(key []byte) bool {
	sh, suffix := s.lookup(key)
	if sh == nil {
		return false
	}
	if _, ok := sh.m[string(suffix)]; !ok {
		return false
	}
	delete(sh.m, string(suffix))
	sh.order = nil
	s.n--
	return true
}

// Scan calls fn for every live (key, value) with the given prefix, in key
// order, until fn returns false. The callback receives scratch key storage
// and internal value slices valid only for the duration of the call: it must
// not retain or mutate them.
func (s *Store) Scan(prefix []byte, fn func(key, val []byte) bool) {
	if conforming(prefix) {
		sh, names := s.groupNames(prefix)
		if len(names) == 0 {
			return
		}
		buf := make([]byte, 0, groupLen+64)
		buf = append(buf, prefix[:groupLen]...)
		for _, name := range names {
			buf = append(buf[:groupLen], name...)
			if !fn(buf, sh.m[name]) {
				return
			}
		}
		return
	}
	s.Range(prefix, prefixSuccessor(prefix), fn)
}

// ScanNames is Scan for a caller that wants each key's suffix past the
// prefix as a string — a directory's entry names — and may keep it: under a
// group prefix the suffix is a substring of the store's own copy of the
// name, so nothing is copied. Values follow Scan's rules.
func (s *Store) ScanNames(prefix []byte, fn func(name string, val []byte) bool) {
	if conforming(prefix) {
		sh, names := s.groupNames(prefix)
		rest := len(prefix) - groupLen
		for _, name := range names {
			if !fn(name[rest:], sh.m[name]) {
				return
			}
		}
		return
	}
	s.Range(prefix, prefixSuccessor(prefix), func(k, v []byte) bool { return fn(string(k[len(prefix):]), v) })
}

// groupNames returns the shard a conforming prefix selects — exactly one:
// non-conforming keys can never match it — and its sorted names that extend
// the prefix past the group.
func (s *Store) groupNames(prefix []byte) (*shard, []string) {
	sh := s.shards[string(prefix[:groupLen])]
	if sh == nil {
		return nil, nil
	}
	rest := string(prefix[groupLen:])
	order := sh.ensureOrder()
	order = order[sort.SearchStrings(order, rest):]
	if rest != "" {
		order = order[:sort.Search(len(order), func(i int) bool { return !strings.HasPrefix(order[i], rest) })]
	}
	return sh, order
}

// CountPrefix returns the number of keys with the given prefix. Counting a
// whole group — the directory-emptiness check — is O(1).
func (s *Store) CountPrefix(prefix []byte) int {
	if len(prefix) == groupLen && prefix[groupLen-1] == '/' {
		if sh := s.shards[string(prefix)]; sh != nil {
			return len(sh.m)
		}
		return 0
	}
	c := 0
	s.Scan(prefix, func(_, _ []byte) bool { c++; return true })
	return c
}

// Clear drops every key (crash simulation: a server's volatile state is
// lost).
func (s *Store) Clear() {
	s.shards = make(map[string]*shard)
	s.fallback = newShard()
	s.prefixes = nil
	s.names, s.vals = [internSlots]string{}, [internSlots][]byte{}
	s.n = 0
}

// ensurePrefixes returns the sorted shard-prefix list (map iteration feeds a
// sort; the randomized order never escapes).
func (s *Store) ensurePrefixes() []string {
	if s.prefixes == nil {
		ps := make([]string, 0, len(s.shards))
		for p := range s.shards {
			ps = append(ps, p)
		}
		sort.Strings(ps)
		s.prefixes = ps
	}
	return s.prefixes
}

// cmpSB compares a string with a byte slice lexicographically without
// allocating.
func cmpSB(a string, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// prefixSuccessor returns the smallest byte string greater than every string
// starting with prefix, or nil when no bound exists.
func prefixSuccessor(prefix []byte) []byte {
	for i := len(prefix) - 1; i >= 0; i-- {
		if prefix[i] != 0xff {
			end := append([]byte(nil), prefix[:i+1]...)
			end[i]++
			return end
		}
	}
	return nil
}

// Range calls fn for every live pair in [lo, hi) in key order until fn
// returns false. A nil hi means "to the end". Key/value slices follow the
// Scan contract. The walk is in global byte order: group shards in prefix
// order (each in suffix order) merged two ways with the fallback shard.
// Distinct group prefixes have equal length, so prefix order totally orders
// the shards' disjoint key ranges; only the fallback interleaves.
func (s *Store) Range(lo, hi []byte, fn func(key, val []byte) bool) {
	fb := s.fallback.ensureOrder()
	fi := 0
	if len(lo) > 0 {
		fi = sort.Search(len(fb), func(i int) bool { return cmpSB(fb[i], lo) >= 0 })
	}
	buf := make([]byte, 0, 128)
	// drainFallback emits fallback keys below limit (nil: no limit) and
	// below hi; it reports whether iteration should continue.
	drainFallback := func(limit []byte) bool {
		for fi < len(fb) {
			k := fb[fi]
			if limit != nil && cmpSB(k, limit) >= 0 {
				return true
			}
			if hi != nil && cmpSB(k, hi) >= 0 {
				fi = len(fb)
				return true
			}
			buf = append(buf[:0], k...)
			fi++
			if !fn(buf, s.fallback.m[k]) {
				return false
			}
		}
		return true
	}
	key := make([]byte, 0, 128)
	for _, p := range s.ensurePrefixes() {
		if hi != nil && cmpSB(p, hi) >= 0 {
			break
		}
		sh := s.shards[p]
		if len(sh.m) == 0 {
			continue
		}
		start := 0
		if len(lo) > 0 {
			switch {
			case len(lo) >= groupLen && string(lo[:groupLen]) == p:
				// lo falls inside this shard: binary-search the suffixes.
				start = sort.SearchStrings(sh.ensureOrder(), string(lo[groupLen:]))
			case cmpSB(p, lo) < 0:
				// Every key extends p; lo is not an extension of p and sorts
				// above it, so the whole shard precedes lo.
				continue
			}
		}
		order := sh.ensureOrder()
		for _, name := range order[start:] {
			key = append(append(key[:0], p...), name...)
			if hi != nil && bytes.Compare(key, hi) >= 0 {
				drainFallback(nil)
				return
			}
			if !drainFallback(key) {
				return
			}
			if !fn(key, sh.m[name]) {
				return
			}
		}
	}
	drainFallback(nil)
}
