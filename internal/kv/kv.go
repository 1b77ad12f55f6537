// Package kv implements the ordered in-memory key-value store backing each
// metadata server — the stand-in for RocksDB in async-write mode (paper
// §7.1). Keys follow the metadata schema of Tab. 3 (a one-byte table tag, a
// 32-byte directory id, a '/' separator, and a component name), so the store
// shards by that 34-byte group prefix: each directory's records live in their
// own shard. A shard packs its entries into one byte arena the way RocksDB's
// memtable does — each a uvarint-prefixed name and a uvarint-prefixed value,
// back to back — and finds them through an open-addressing index of arena
// offsets, so an entry costs its bytes, two length bytes and an index slot,
// not a string, a slice and a map cell. Ordered prefix scans — directory
// entry lists enumerate children with one scan — are served from a per-shard
// sorted offset list rebuilt lazily after inserts and deletes. Keys outside
// the schema shape (tests, baseline directory records) fall back to a flat
// shard that merges into scans in global byte order, so the external
// contract is unchanged: a byte-ordered map with prefix scans.
package kv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"
)

// groupLen is the length of the schema's group prefix: tag byte + 32-byte
// directory id + '/'.
const groupLen = 34

// hash keys a shard's index: FNV-1a, a word at a time, the tail of up to 7
// bytes as one more little-endian word with its length in the top byte, then
// a Fibonacci multiply whose top bits every input bit reaches (FNV's own top
// bits barely see the last word, which is where f1 and f2 differ); the index
// takes the top bits. The hash is fixed, not seeded, so where an entry sits —
// and the heap the store holds — is the same in every process.
func hash(b []byte) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for ; len(b) >= 8; b = b[8:] {
		h = (h ^ binary.LittleEndian.Uint64(b)) * prime
	}
	if n := len(b); n > 0 {
		// Two overlapping loads cover the tail; OR-ing the same byte twice
		// at its own position leaves it as it is.
		var t uint64
		if n >= 4 {
			t = uint64(binary.LittleEndian.Uint32(b)) | uint64(binary.LittleEndian.Uint32(b[n-4:]))<<(8*(n-4))
		} else {
			t = uint64(b[0]) | uint64(b[n/2])<<(8*(n/2)) | uint64(b[n-1])<<(8*(n-1))
		}
		h = (h ^ t ^ uint64(n)<<56) * prime
	}
	return h * 0x9e3779b97f4a7c15
}

// conforming reports whether key has the tag+id+'/' group shape. A key
// matching this shape always lives in its group shard, and a key that does
// not can never match a conforming prefix, so the two populations partition
// cleanly.
func conforming(key []byte) bool {
	return len(key) >= groupLen && key[groupLen-1] == '/'
}

// shard holds one group's records: suffix (component name) → value.
//
// arena holds the entries back to back, each a uvarint name length, the
// name, a uvarint value length and the value. Its bytes are never rewritten
// but by a Put whose value has the stored one's length, which overwrites it
// in place; any other overwrite, and every delete, leaves the old entry as
// dead bytes, and once they pass half the arena the live entries move to a
// fresh one (maybeCompact). A view into the old arena stays readable.
//
// index is a linear-probing table of arena offsets plus one (0 is an empty
// slot), a power of two long and at most three quarters full, probed from
// the top bits of the name's hash; a delete shifts the rest of its probe run
// back, so there are no tombstones. order, valid while sorted, lists the
// live offsets in name order for scans; an insert, a delete or a compaction
// drops it and the next ordered read rebuilds it in place.
type shard struct {
	arena  []byte
	index  []uint32
	shift  uint8 // 64 − log2(len(index))
	order  []uint32
	sorted bool
	n      int // live entries
	dead   int // arena bytes of overwritten and deleted entries
}

// uvarintAt decodes the uvarint at a[off:] and returns it with the offset
// past it; a length below 128 is its one byte.
func uvarintAt(a []byte, off int) (int, int) {
	if c := a[off]; c < 0x80 {
		return int(c), off + 1
	}
	v, k := binary.Uvarint(a[off:])
	return int(v), off + k
}

// entry returns the name and value of the entry at off and the offset past
// it. Both slices are capped at their own length, so an append to either
// cannot write into the next entry.
func (sh *shard) entry(off uint32) (name, val []byte, end int) {
	a := sh.arena
	l, p := uvarintAt(a, int(off))
	name = a[p : p+l : p+l]
	l, p = uvarintAt(a, p+l)
	return name, a[p : p+l : p+l], p + l
}

// name returns the name of the entry at off.
func (sh *shard) name(off uint32) []byte {
	l, p := uvarintAt(sh.arena, int(off))
	return sh.arena[p : p+l : p+l]
}

// find returns the index slot holding name and true, or the empty slot that
// ends name's probe run and false.
func (sh *shard) find(name []byte) (int, bool) {
	if sh.index == nil {
		return -1, false
	}
	a, mask := sh.arena, len(sh.index)-1
	for i := int(hash(name) >> sh.shift); ; i = (i + 1) & mask {
		o := int(sh.index[i])
		if o == 0 {
			return i, false
		}
		// A name shorter than 128 bytes starts at o, after its one length
		// byte: compare the length before the bytes.
		if l := int(a[o-1]); l < 0x80 {
			if l == len(name) && string(a[o:o+l]) == string(name) {
				return i, true
			}
		} else if string(sh.name(uint32(o-1))) == string(name) {
			return i, true
		}
	}
}

// place puts off into the first empty slot of its name's probe run.
func (sh *shard) place(off uint32) {
	mask := len(sh.index) - 1
	i := int(hash(sh.name(off)) >> sh.shift)
	for sh.index[i] != 0 {
		i = (i + 1) & mask
	}
	sh.index[i] = off + 1
}

// grow doubles the index (four slots at first) and re-places every entry.
func (sh *shard) grow() {
	old := sh.index
	size := max(4, 2*len(old))
	sh.index = make([]uint32, size)
	sh.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	for _, o := range old {
		if o != 0 {
			sh.place(o - 1)
		}
	}
}

// appendEntry appends name and val to the arena and returns their offset.
func (sh *shard) appendEntry(name, val []byte) uint32 {
	off := len(sh.arena)
	if off >= math.MaxUint32 {
		panic("kv: a shard's arena outgrew its 32-bit offsets")
	}
	sh.arena = append(binary.AppendUvarint(sh.arena, uint64(len(name))), name...)
	sh.arena = append(binary.AppendUvarint(sh.arena, uint64(len(val))), val...)
	return uint32(off)
}

// put stores val under name and reports whether name is new.
func (sh *shard) put(name, val []byte) bool {
	i, ok := sh.find(name)
	if ok {
		off := sh.index[i] - 1
		_, old, end := sh.entry(off)
		if len(old) == len(val) {
			copy(old, val)
			return false
		}
		sh.dead += end - int(off)
		sh.index[i] = sh.appendEntry(name, val) + 1
		if sh.sorted {
			sh.order[sh.search(sh.order, name)] = sh.index[i] - 1
		}
		sh.maybeCompact()
		return false
	}
	if (sh.n+1)*4 > len(sh.index)*3 {
		sh.grow()
		i, _ = sh.find(name)
	}
	sh.index[i] = sh.appendEntry(name, val) + 1
	sh.n++
	sh.sorted = false
	return true
}

// del removes name, reporting whether it was present. The entries after it
// in its probe run move back over the hole unless that would put one before
// its home slot.
func (sh *shard) del(name []byte) bool {
	i, ok := sh.find(name)
	if !ok {
		return false
	}
	off := sh.index[i] - 1
	_, _, end := sh.entry(off)
	sh.dead += end - int(off)
	mask := len(sh.index) - 1
	for j := (i + 1) & mask; sh.index[j] != 0; j = (j + 1) & mask {
		home := int(hash(sh.name(sh.index[j]-1)) >> sh.shift)
		if (j-home)&mask >= (j-i)&mask {
			sh.index[i] = sh.index[j]
			i = j
		}
	}
	sh.index[i] = 0
	sh.n--
	sh.sorted = false
	sh.maybeCompact()
	return true
}

// maybeCompact moves the live entries to a fresh arena once dead bytes pass
// half of it, so the arena holds at most twice its live bytes. A fresh arena
// rather than a shift in place keeps every earlier view readable. Each index
// slot keeps its place and takes its entry's new offset; the order is rebuilt
// on the next ordered read.
func (sh *shard) maybeCompact() {
	if sh.dead*2 <= len(sh.arena) {
		return
	}
	old, live := sh.arena, len(sh.arena)-sh.dead
	sh.arena, sh.dead, sh.sorted = nil, 0, false
	if sh.n == 0 {
		return
	}
	sh.arena = make([]byte, 0, live)
	for i, o := range sh.index {
		if o == 0 {
			continue
		}
		l, p := uvarintAt(old, int(o-1))
		l, p = uvarintAt(old, p+l)
		sh.index[i] = uint32(len(sh.arena)) + 1
		sh.arena = append(sh.arena, old[o-1:p+l]...)
	}
}

// search returns the first position in order whose name is at least name.
func (sh *shard) search(order []uint32, name []byte) int {
	return sort.Search(len(order), func(i int) bool { return bytes.Compare(sh.name(order[i]), name) >= 0 })
}

// ensureOrder returns the live offsets in name order, rebuilding the list in
// its own array if an insert, a delete or a compaction invalidated it. The index walk feeds
// a sort, so slot order never escapes.
func (sh *shard) ensureOrder() []uint32 {
	if !sh.sorted {
		order := sh.order[:0]
		for _, o := range sh.index {
			if o != 0 {
				order = append(order, o-1)
			}
		}
		slices.SortFunc(order, func(a, b uint32) int { return bytes.Compare(sh.name(a), sh.name(b)) })
		sh.order, sh.sorted = order, true
	}
	return sh.order
}

// Store is a sorted key-value map. It copies keys and values in, each into
// its group's arena.
type Store struct {
	shards map[string]*shard
	// fallback holds non-conforming keys (full key as the suffix).
	fallback *shard
	// prefixes is the sorted shard-prefix list; nil after a shard is added.
	prefixes []string
	n        int
	// bytes is the live arena bytes of every shard (Bytes).
	bytes int
}

// New creates an empty store.
func New() *Store {
	return &Store{shards: make(map[string]*shard), fallback: &shard{}}
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	return s.n
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
	v, ok := s.GetView(key)
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// GetView returns the value stored under key without copying. The returned
// slice aliases the shard's arena: the caller must not mutate it and must
// not retain it across a Put/Delete of the same key — a Put of a value of
// the same length overwrites it in place — so decode immediately. Writes to
// other keys, and the compactions they cause, leave it readable.
func (s *Store) GetView(key []byte) ([]byte, bool) {
	sh, suffix := s.lookup(key)
	if sh == nil {
		return nil, false
	}
	i, ok := sh.find(suffix)
	if !ok {
		return nil, false
	}
	_, v, _ := sh.entry(sh.index[i] - 1)
	return v, true
}

// Has reports key presence without copying the value.
func (s *Store) Has(key []byte) bool {
	sh, suffix := s.lookup(key)
	if sh == nil {
		return false
	}
	_, ok := sh.find(suffix)
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
			sh = &shard{}
			s.shards[string(key[:groupLen])] = sh
			s.prefixes = nil
		}
		suffix = key[groupLen:]
	} else {
		sh, suffix = s.fallback, key
	}
	live := sh.live()
	inserted := sh.put(suffix, val)
	s.bytes += sh.live() - live
	if inserted {
		s.n++
	}
	return inserted
}

// Delete removes key, reporting whether it was present.
func (s *Store) Delete(key []byte) bool {
	sh, suffix := s.lookup(key)
	if sh == nil {
		return false
	}
	live := sh.live()
	if !sh.del(suffix) {
		return false
	}
	s.bytes += sh.live() - live
	s.n--
	return true
}

// live is the arena bytes of the shard's live entries.
func (sh *shard) live() int { return len(sh.arena) - sh.dead }

// Bytes returns the live bytes of the store: each entry's name, value and
// their two length prefixes, the group prefix a shard's entries share aside.
func (s *Store) Bytes() int { return s.bytes }

// Scan calls fn for every live (key, value) with the given prefix, in key
// order, until fn returns false. The callback receives key and value slices
// valid only for the duration of the call: it must not retain or mutate them,
// and it must not write to the store — collect first, then mutate.
func (s *Store) Scan(prefix []byte, fn func(key, val []byte) bool) {
	if conforming(prefix) {
		sh, offs := s.groupNames(prefix)
		if len(offs) == 0 {
			return
		}
		buf := make([]byte, 0, groupLen+64)
		buf = append(buf, prefix[:groupLen]...)
		for _, off := range offs {
			name, val, _ := sh.entry(off)
			buf = append(buf[:groupLen], name...)
			if !fn(buf, val) {
				return
			}
		}
		return
	}
	s.Range(prefix, prefixSuccessor(prefix), fn)
}

// ScanNames is Scan for a caller that wants each key's suffix past the
// prefix as a string — a directory's entry names — and may keep it. Under a
// group prefix the names are copied out of the arena into one string per
// call, which the names handed out share. Values follow Scan's rules.
func (s *Store) ScanNames(prefix []byte, fn func(name string, val []byte) bool) {
	if conforming(prefix) {
		sh, offs := s.groupNames(prefix)
		rest := len(prefix) - groupLen
		size := 0
		for _, off := range offs {
			size += len(sh.name(off)) - rest
		}
		var b strings.Builder
		b.Grow(size)
		for _, off := range offs {
			b.Write(sh.name(off)[rest:])
		}
		names := b.String()
		for _, off := range offs {
			name, val, _ := sh.entry(off)
			l := len(name) - rest
			if !fn(names[:l], val) {
				return
			}
			names = names[l:]
		}
		return
	}
	s.Range(prefix, prefixSuccessor(prefix), func(k, v []byte) bool { return fn(string(k[len(prefix):]), v) })
}

// groupNames returns the shard a conforming prefix selects — exactly one:
// non-conforming keys can never match it — and the offsets, in name order,
// of its names that extend the prefix past the group.
func (s *Store) groupNames(prefix []byte) (*shard, []uint32) {
	sh := s.shards[string(prefix[:groupLen])]
	if sh == nil {
		return nil, nil
	}
	rest := prefix[groupLen:]
	order := sh.ensureOrder()
	if len(rest) > 0 {
		order = order[sh.search(order, rest):]
		order = order[:sort.Search(len(order), func(i int) bool { return !bytes.HasPrefix(sh.name(order[i]), rest) })]
	}
	return sh, order
}

// CountPrefix returns the number of keys with the given prefix. Counting a
// whole group — the directory-emptiness check — is O(1).
func (s *Store) CountPrefix(prefix []byte) int {
	if len(prefix) == groupLen && prefix[groupLen-1] == '/' {
		if sh := s.shards[string(prefix)]; sh != nil {
			return sh.n
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
	s.fallback = &shard{}
	s.prefixes = nil
	s.n, s.bytes = 0, 0
}

// AppendImage appends the store's image to b: its live entries, group by
// group in prefix order and each group's in its arena's order, which a
// restore keeps, so a restored store images to the same bytes. The image is
// a run of groups, the flat keys' first, each a uvarint prefix length
// (groupLen, or 0 for the flat keys), the prefix, a uvarint entry count and
// the entries as the arena holds them, a uvarint name length, the name, a
// uvarint value length and the value; empty groups are left out. It sorts
// nothing and allocates nothing but b's growth.
func (s *Store) AppendImage(b []byte) []byte {
	b = s.fallback.appendImage(b, "")
	for _, p := range s.ensurePrefixes() {
		b = s.shards[p].appendImage(b, p)
	}
	return b
}

// ImageSize returns the length of the store's image (AppendImage).
func (s *Store) ImageSize() int {
	n := s.fallback.imageSize(0)
	for _, sh := range s.shards {
		n += sh.imageSize(groupLen)
	}
	return n
}

// imageSize is the length of the group appendImage appends for sh under a
// prefix of the given length.
func (sh *shard) imageSize(prefix int) int {
	if sh.n == 0 {
		return 0
	}
	return uvarintLen(prefix) + prefix + uvarintLen(sh.n) + sh.live()
}

// uvarintLen is the length of n's uvarint encoding.
func uvarintLen(n int) int { return (bits.Len64(uint64(n)|1) + 6) / 7 }

// appendImage appends sh's group under prefix to b, if it holds an entry.
func (sh *shard) appendImage(b []byte, prefix string) []byte {
	if sh.n == 0 {
		return b
	}
	b = append(binary.AppendUvarint(b, uint64(len(prefix))), prefix...)
	b = binary.AppendUvarint(b, uint64(sh.n))
	for off := 0; off < len(sh.arena); {
		name, _, end := sh.entry(uint32(off))
		if i, ok := sh.find(name); ok && int(sh.index[i])-1 == off { // live, not overwritten
			b = append(b, sh.arena[off:end]...)
		}
		off = end
	}
	return b
}

// Restore replaces the store's contents with image's, calling each, when it
// is not nil, with every key restored; the key is valid only during the call.
// An image AppendImage did not produce may be refused with an error (a
// group prefix of another length or shape, a flat key of a group's shape, a
// key twice, a truncated entry or count), and then leaves the store holding
// part of it.
func (s *Store) Restore(image []byte, each func(key []byte)) error {
	s.Clear()
	r := imageReader{b: image}
	var key []byte
	for len(r.b) > 0 && r.err == nil {
		prefix := r.bytes()
		if len(prefix) != 0 && (len(prefix) != groupLen || !conforming(prefix)) {
			return fmt.Errorf("kv: image group prefix %x is no group's", prefix)
		}
		n := r.uvarint()
		if n > uint64(len(r.b))/2 {
			return fmt.Errorf("kv: image group of %d entries in %d bytes", n, len(r.b))
		}
		for ; n > 0 && r.err == nil; n-- {
			key = append(append(key[:0], prefix...), r.bytes()...)
			val := r.bytes()
			switch {
			case r.err != nil:
			case len(prefix) == 0 && conforming(key):
				return fmt.Errorf("kv: image flat key %x has a group's shape", key)
			case !s.Put(key, val):
				return fmt.Errorf("kv: image holds key %x twice", key)
			case each != nil:
				each(key)
			}
		}
	}
	if r.err != nil {
		return fmt.Errorf("kv: image: %w", r.err)
	}
	return nil
}

// imageReader reads an image's fields in order; the first short or
// overflowing field sets err, and every read after it returns nothing.
type imageReader struct {
	b   []byte
	err error
}

func (r *imageReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.err = errors.New("truncated or overflowing length")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *imageReader) bytes() []byte {
	n := r.uvarint()
	if r.err == nil && n > uint64(len(r.b)) {
		r.err = errors.New("truncated field")
	}
	if r.err != nil {
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
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
	fs := s.fallback
	fb := fs.ensureOrder()
	fi := 0
	if len(lo) > 0 {
		fi = fs.search(fb, lo)
	}
	// drainFallback emits fallback keys below limit (nil: no limit) and
	// below hi; it reports whether iteration should continue.
	drainFallback := func(limit []byte) bool {
		for fi < len(fb) {
			k, v, _ := fs.entry(fb[fi])
			if limit != nil && bytes.Compare(k, limit) >= 0 {
				return true
			}
			if hi != nil && bytes.Compare(k, hi) >= 0 {
				fi = len(fb)
				return true
			}
			fi++
			if !fn(k, v) {
				return false
			}
		}
		return true
	}
	key := make([]byte, 0, 128)
	for _, p := range s.ensurePrefixes() {
		if hi != nil && p >= string(hi) {
			break
		}
		sh := s.shards[p]
		if sh.n == 0 {
			continue
		}
		order := sh.ensureOrder()
		if len(lo) > 0 {
			switch {
			case len(lo) >= groupLen && string(lo[:groupLen]) == p:
				// lo falls inside this shard: binary-search the suffixes.
				order = order[sh.search(order, lo[groupLen:]):]
			case p < string(lo):
				// Every key extends p; lo is not an extension of p and sorts
				// above it, so the whole shard precedes lo.
				continue
			}
		}
		for _, off := range order {
			name, val, _ := sh.entry(off)
			key = append(append(key[:0], p...), name...)
			if hi != nil && bytes.Compare(key, hi) >= 0 {
				drainFallback(nil)
				return
			}
			if !drainFallback(key) {
				return
			}
			if !fn(key, val) {
				return
			}
		}
	}
	drainFallback(nil)
}
