package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// Equivalence, aliasing and allocation tests of the append/into codec forms
// and the index path walker, and the inode image's layout and canonical
// form. The key references are the previous one-shot implementations: the
// encodings are durable (WAL records, store values), so the append forms
// must produce them byte for byte.

// walkPath is how client.resolve reads a path: canonicalise once, then step
// through the components by index.
func walkPath(path string) ([]string, error) {
	cp, err := CanonicalPath(path)
	if err != nil {
		return nil, err
	}
	comps := []string{}
	if cp == "/" {
		return comps, nil
	}
	for i := 0; i < len(cp); {
		var comp string
		comp, i = NextComponent(cp, i)
		comps = append(comps, comp)
	}
	return comps, nil
}

// TestPathWalkerMatchesSplitPath: over a generated corpus — empty, ".", ".."
// (escaping or not), 255- and 256-byte names, trailing and doubled slashes,
// relative paths, depth 0–8 — the index walker yields exactly SplitPath's
// components and SplitPath's error.
func TestPathWalkerMatchesSplitPath(t *testing.T) {
	pieces := []string{"", ".", "..", "a", "bb", "x.y", "..c", "ü",
		strings.Repeat("n", MaxNameLen), strings.Repeat("n", MaxNameLen+1)}
	rnd := rand.New(rand.NewSource(19))
	corpus := []string{"", "/", "//", "/.", "/..", "a", "a/b", "/a/b/c", "/a//b/", "/a/./b", "/a/b/../c"}
	for i := 0; i < 5000; i++ {
		var sb strings.Builder
		if rnd.Intn(20) != 0 {
			sb.WriteByte('/')
		}
		for d, depth := 0, rnd.Intn(9); d < depth; d++ {
			if d > 0 {
				sb.WriteByte('/')
			}
			// Mostly plain names, so that deep canonical paths are common.
			if rnd.Intn(3) == 0 {
				sb.WriteString(pieces[rnd.Intn(len(pieces))])
			} else {
				sb.WriteString(pieces[3+rnd.Intn(5)])
			}
		}
		if rnd.Intn(6) == 0 {
			sb.WriteByte('/')
		}
		corpus = append(corpus, sb.String())
	}
	var canonicalSeen, rewritten, failed int
	for _, path := range corpus {
		want, werr := SplitPath(path)
		got, err := walkPath(path)
		if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
			t.Fatalf("path %q: walker error %v, SplitPath error %v", path, err, werr)
		}
		if err != nil {
			failed++
			continue
		}
		if !slices.Equal(got, want) {
			t.Fatalf("path %q: walker %q, SplitPath %q", path, got, want)
		}
		if cp, _ := CanonicalPath(path); cp == path {
			canonicalSeen++
		} else {
			rewritten++
		}
	}
	if canonicalSeen < 500 || rewritten < 500 || failed < 500 {
		t.Fatalf("corpus is lopsided: %d canonical, %d rewritten, %d invalid", canonicalSeen, rewritten, failed)
	}
}

// refEncodeKey is the one-shot key encoder as it was before the append form
// existed; refEncodeInode writes the inode image field by field from its
// layout, each optional field with its presence bit.
func refEncodeKey(tag byte, k Key) []byte {
	b := []byte{tag}
	b = k.PID.AppendBinary(b)
	b = append(b, '/')
	return append(b, k.Name...)
}

func refEncodeInode(in *Inode) []byte {
	var p byte
	var opt []byte
	for bit, f := range []struct {
		present bool
		v       uint64
	}{
		{in.UID != 0, uint64(in.UID)},
		{in.GID != 0, uint64(in.GID)},
		{in.Size != 0, uint64(in.Size)},
		{in.Mtime != in.Atime, uint64(in.Mtime)},
		{in.Ctime != in.Mtime, uint64(in.Ctime)},
		{in.File != 0, uint64(in.File)},
	} {
		if f.present {
			p |= 1 << bit
			opt = binary.AppendUvarint(opt, f.v)
		}
	}
	if len(in.DataLoc) > 0 {
		p |= 1 << 6
		opt = binary.AppendUvarint(opt, uint64(len(in.DataLoc)))
		for _, d := range in.DataLoc {
			opt = binary.AppendUvarint(opt, uint64(d))
		}
	}
	if in.ID != (DirID{}) {
		p |= 1 << 7
		opt = in.ID.AppendBinary(opt)
	}
	b := []byte{byte(in.Type)}
	b = binary.BigEndian.AppendUint16(b, uint16(in.Perm))
	b = append(b, p)
	b = binary.AppendUvarint(b, uint64(in.Nlink))
	b = binary.AppendUvarint(b, uint64(in.Atime))
	return append(b, opt...)
}

// randWide is a random value of a random bit length, 0 to 64, so that every
// uvarint length turns up.
func randWide(rnd *rand.Rand) uint64 { return rnd.Uint64() >> rnd.Intn(65) }

// randInode is a random inode. Half of them are default-heavy, as the
// inodes the servers store are: each field at its default (zero, or the
// previous timestamp) with probability one half.
func randInode(rnd *rand.Rand) *Inode {
	in := &Inode{
		Attr: Attr{Type: FileType(1 + rnd.Intn(3)), Perm: Perm(rnd.Intn(1 << 12)),
			UID: rnd.Uint32(), GID: rnd.Uint32(), Size: rnd.Int63(),
			Atime: rnd.Int63(), Mtime: rnd.Int63(), Ctime: rnd.Int63(), Nlink: rnd.Uint32()},
		ID:   DirID{rnd.Uint64(), rnd.Uint64(), rnd.Uint64(), rnd.Uint64()},
		File: FileID(rnd.Uint64()),
	}
	for n := rnd.Intn(12); n > 0 && rnd.Intn(2) == 0; n-- {
		in.DataLoc = append(in.DataLoc, rnd.Uint32())
	}
	if rnd.Intn(2) == 0 {
		return in
	}
	dflt := func() bool { return rnd.Intn(2) == 0 }
	in.UID, in.GID, in.Nlink = uint32(randWide(rnd)), uint32(randWide(rnd)), uint32(randWide(rnd))
	in.Size, in.Atime, in.File = int64(randWide(rnd)), int64(randWide(rnd)), FileID(randWide(rnd))
	in.Mtime, in.Ctime = int64(randWide(rnd)), int64(randWide(rnd))
	if dflt() {
		in.UID = 0
	}
	if dflt() {
		in.GID = 0
	}
	if dflt() {
		in.Size = 0
	}
	if dflt() {
		in.Mtime = in.Atime
	}
	if dflt() {
		in.Ctime = in.Mtime
	}
	if dflt() {
		in.File = 0
	}
	if dflt() {
		in.ID = DirID{}
	}
	return in
}

// TestAppendCodecsMatchOneShot: on random keys and inodes (empty and
// non-empty DataLoc, default-heavy and not) the append forms produce the
// reference bytes, leave a
// non-empty destination's prefix alone, and the wrappers agree with them;
// decode-into overwrites every field of a dirty destination and shares no
// memory with its input.
func TestAppendCodecsMatchOneShot(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	prefix := []byte("prefix")
	for i := 0; i < 2000; i++ {
		k := Key{PID: DirID{rnd.Uint64(), rnd.Uint64(), rnd.Uint64(), rnd.Uint64()},
			Name: strings.Repeat("k", rnd.Intn(MaxNameLen+1))}
		want := refEncodeKey(tagInode, k)
		var kb KeyBuf
		if got := k.AppendTo(kb[:0]); !bytes.Equal(got, want) || len(got) != k.EncodedLen() {
			t.Fatalf("AppendTo(%v) = %x, want %x", k, got, want)
		}
		if got := k.Encode(); !bytes.Equal(got, want) {
			t.Fatalf("Encode(%v) = %x, want %x", k, got, want)
		}
		if got := k.AppendTo(slices.Clone(prefix)); !bytes.Equal(got, append(slices.Clone(prefix), want...)) {
			t.Fatalf("AppendTo onto %q = %x", prefix, got)
		}
		if got, want := AppendEntryKey(nil, k.PID, k.Name), refEncodeKey(tagEntry, k); !bytes.Equal(got, want) {
			t.Fatalf("AppendEntryKey = %x, want %x", got, want)
		}
		if got := AppendEntryKey(nil, k.PID, k.Name); !bytes.HasPrefix(got, EntryPrefix(k.PID)) {
			t.Fatalf("entry key %x does not extend EntryPrefix", got)
		}

		in := randInode(rnd)
		enc := refEncodeInode(in)
		var vb InodeBuf
		if got := AppendInode(vb[:0], in); !bytes.Equal(got, enc) || len(got) != InodeSize(in) {
			t.Fatalf("AppendInode(%+v) = %x, want %x", in, got, enc)
		}
		if got := EncodeInode(in); !bytes.Equal(got, enc) {
			t.Fatalf("EncodeInode(%+v) = %x, want %x", in, got, enc)
		}
		if got := AppendInode(slices.Clone(prefix), in); !bytes.Equal(got, append(slices.Clone(prefix), enc...)) {
			t.Fatalf("AppendInode onto %q = %x", prefix, got)
		}

		into := *randInode(rnd) // every field dirty, DataLoc maybe non-empty
		if err := DecodeInodeInto(&into, enc); err != nil {
			t.Fatal(err)
		}
		fresh, err := DecodeInode(enc)
		if err != nil {
			t.Fatal(err)
		}
		for _, got := range []*Inode{&into, fresh} {
			if got.Attr != in.Attr || got.ID != in.ID || got.File != in.File || !slices.Equal(got.DataLoc, in.DataLoc) {
				t.Fatalf("decoded %+v, want %+v", got, in)
			}
		}
		for j := range enc {
			enc[j] = 0xFF // the source may be store memory: nothing may alias it
		}
		if !slices.Equal(into.DataLoc, in.DataLoc) {
			t.Fatalf("DataLoc aliases the decoded buffer: %v, want %v", into.DataLoc, in.DataLoc)
		}
	}
}

// TestCodecAllocationBudgets pins what the request path relies on: a key
// appended into stack scratch, an inode decoded into a caller's value and a
// canonical path checked and walked cost no allocation; the one-shot
// wrappers cost exactly their result.
func TestCodecAllocationBudgets(t *testing.T) {
	k := Key{PID: DirID{1, 2, 3, 4}, Name: "file-000123"}
	in := &Inode{Attr: Attr{Type: TypeRegular, Perm: DefaultFilePerm, Nlink: 1}}
	enc := EncodeInode(in)
	path := "/dir-0042/sub/file-000123"
	var sink int
	for _, c := range []struct {
		name string
		want float64
		fn   func()
	}{
		{"Key.AppendTo(stack)", 0, func() { var kb KeyBuf; sink += len(k.AppendTo(kb[:0])) }},
		{"AppendEntryKey(stack)", 0, func() { var kb KeyBuf; sink += len(AppendEntryKey(kb[:0], k.PID, k.Name)) }},
		{"AppendInode(stack)", 0, func() { var vb InodeBuf; sink += len(AppendInode(vb[:0], in)) }},
		{"DecodeInodeInto", 0, func() {
			var out Inode
			if DecodeInodeInto(&out, enc) != nil {
				t.Fatal("decode failed")
			}
			sink += int(out.Nlink)
		}},
		{"CanonicalPath+NextComponent", 0, func() {
			cp, _ := CanonicalPath(path)
			for i := 0; i < len(cp); {
				var comp string
				comp, i = NextComponent(cp, i)
				sink += len(comp)
			}
		}},
		{"Key.Encode", 1, func() { sink += len(k.Encode()) }},
		{"EncodeInode", 1, func() { sink += len(EncodeInode(in)) }},
		{"DecodeInode", 1, func() { out, _ := DecodeInode(enc); sink += int(out.Nlink) }},
	} {
		if got := testing.AllocsPerRun(100, c.fn); got != c.want {
			t.Errorf("%s: %v allocs/op, want %v", c.name, got, c.want)
		}
	}
	_ = sink
}
