package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"testing"
)

// uvarintEdges are values at each side of the uvarint length steps, at the
// uint32 limit and at the int64 and uint64 limits.
var uvarintEdges = []uint64{1, 1<<7 - 1, 1 << 7, 1<<14 - 1, 1 << 14, 1<<28 - 1, 1 << 28,
	math.MaxUint32, 1 << 35, 1<<56 - 1, 1 << 56, 1<<63 - 1, 1 << 63, math.MaxUint64}

// edgeInode is an inode whose optional fields are present exactly where mask
// has their bit, each holding v (or v cut to its width, kept non-zero, or v
// past the timestamp it must differ from); nlink and atime hold v too.
func edgeInode(mask byte, v uint64) *Inode {
	v32 := uint32(min(v, math.MaxUint32))
	in := &Inode{Attr: Attr{Type: TypeRegular, Perm: 0o7777, Nlink: v32, Atime: int64(v)}}
	if mask&hasUID != 0 {
		in.UID = v32
	}
	if mask&hasGID != 0 {
		in.GID = v32
	}
	if mask&hasSize != 0 {
		in.Size = int64(v)
	}
	in.Mtime = in.Atime
	if mask&hasMtime != 0 {
		in.Mtime += int64(v)
	}
	in.Ctime = in.Mtime
	if mask&hasCtime != 0 {
		in.Ctime -= int64(v)
	}
	if mask&hasFile != 0 {
		in.File = FileID(v)
	}
	if mask&hasDataLoc != 0 {
		in.DataLoc = []uint32{v32, 0, 1}
	}
	if mask&hasID != 0 {
		in.ID = DirID{0, 0, 0, v}
	}
	return in
}

// TestInodeImagePresenceTable: for every one of the 256 presence bytes and
// every uvarint edge, the image carries exactly that presence byte, is
// InodeSize long, matches the reference encoder and decodes to the inode.
func TestInodeImagePresenceTable(t *testing.T) {
	for mask := 0; mask < 256; mask++ {
		for _, v := range uvarintEdges {
			in := edgeInode(byte(mask), v)
			var vb InodeBuf
			img := AppendInode(vb[:0], in)
			if img[3] != byte(mask) || len(img) != InodeSize(in) || !bytes.Equal(img, refEncodeInode(in)) {
				t.Fatalf("mask %08b, v %d: image %x (%d bytes, InodeSize %d), want presence %08b and %x",
					mask, v, img, len(img), InodeSize(in), mask, refEncodeInode(in))
			}
			var out Inode
			if err := DecodeInodeInto(&out, img); err != nil {
				t.Fatalf("mask %08b, v %d: %v", mask, v, err)
			}
			if out.Attr != in.Attr || out.ID != in.ID || out.File != in.File || !slices.Equal(out.DataLoc, in.DataLoc) {
				t.Fatalf("mask %08b, v %d: decoded %+v, want %+v", mask, v, out, *in)
			}
		}
	}
}

// image is an inode image put together by hand: the header (type, perm,
// presence), then the given fields, each a uvarint value or raw bytes.
func image(presence byte, fields ...any) []byte {
	b := []byte{byte(TypeRegular), 0x01, 0xa4, presence}
	for _, f := range fields {
		switch f := f.(type) {
		case uint64:
			b = binary.AppendUvarint(b, f)
		case int:
			b = binary.AppendUvarint(b, uint64(f))
		case []byte:
			b = append(b, f...)
		}
	}
	return b
}

// TestInodeImageRejects: the decoder refuses every byte string AppendInode
// cannot produce, each for its own reason — among them, one row per
// presence bit set over its field's default.
func TestInodeImageRejects(t *testing.T) {
	id := make([]byte, 32)
	id[31] = 1
	for _, c := range []struct {
		name string
		img  []byte
		want error
	}{
		{"empty", nil, errImageShort},
		{"header cut", []byte{1, 2, 3}, errImageShort},
		{"nlink missing", image(0), errImageShort},
		{"atime missing", image(0, 1), errImageShort},
		{"atime cut inside its uvarint", image(0, 1, []byte{0x80}), errImageShort},
		{"present uid missing", image(hasUID, 1, 5), errImageShort},
		{"id cut", image(hasID, 1, 5, id[:31]), errImageShort},
		{"data location count past the end", image(hasDataLoc, 1, 5, 3, 7, 7), errImageShort},
		{"data location cut", image(hasDataLoc, 1, 5, 2, 7, []byte{0x80}), errImageShort},
		{"overlong nlink", image(0, []byte{0x81, 0x00}, 5), errImageOverlong},
		{"overlong atime", image(0, 1, []byte{0x80, 0x80, 0x00}), errImageOverlong},
		{"overlong size", image(hasSize, 1, 5, []byte{0x85, 0x00}), errImageOverlong},
		{"uvarint past 64 bits", image(0, 1, bytes.Repeat([]byte{0xff}, 10), 1), errImageOverflow},
		{"uvarint of 11 bytes", image(0, 1, append(bytes.Repeat([]byte{0x80}, 10), 1)), errImageOverflow},
		{"nlink past uint32", image(0, uint64(1)<<32, 5), errImageOverflow},
		{"uid past uint32", image(hasUID, 1, 5, uint64(1)<<32), errImageOverflow},
		{"gid past uint32", image(hasGID, 1, 5, uint64(math.MaxUint64)), errImageOverflow},
		{"data location past uint32", image(hasDataLoc, 1, 5, 1, uint64(1)<<32), errImageOverflow},
		{"uid present at zero", image(hasUID, 1, 5, 0), errImageDefault},
		{"gid present at zero", image(hasGID, 1, 5, 0), errImageDefault},
		{"size present at zero", image(hasSize, 1, 5, 0), errImageDefault},
		{"mtime present at atime", image(hasMtime, 1, 5, 5), errImageDefault},
		{"ctime present at atime, mtime absent", image(hasCtime, 1, 5, 5), errImageDefault},
		{"ctime present at mtime", image(hasMtime|hasCtime, 1, 5, 6, 6), errImageDefault},
		{"file present at zero", image(hasFile, 1, 5, 0), errImageDefault},
		{"data locations present, none counted", image(hasDataLoc, 1, 5, 0), errImageDefault},
		{"id present at zero", image(hasID, 1, 5, make([]byte, 32)), errImageDefault},
		{"trailing byte", image(0, 1, 5, 0), errImageTrailing},
		{"trailing byte after the id", image(hasID, 1, 5, id, 0), errImageTrailing},
	} {
		var in Inode
		if err := DecodeInodeInto(&in, c.img); !errors.Is(err, c.want) {
			t.Errorf("%s: image %x decodes with error %v, want %v", c.name, c.img, err, c.want)
		}
	}
	// The hand-built images accepted as they stand, so each row above fails
	// for the one reason it names.
	for _, img := range [][]byte{image(0, 1, 5), image(hasUID, 1, 5, 1), image(hasID, 1, 5, id),
		image(hasMtime|hasCtime, 1, 5, 6, 5), image(hasDataLoc, 1, 5, 2, 7, 0)} {
		var in Inode
		if err := DecodeInodeInto(&in, img); err != nil {
			t.Errorf("image %x: %v", img, err)
		}
	}
}

// FuzzDecodeInode: the decoder never panics, and whatever it accepts is an
// image AppendInode produces — re-encoding the inode gives the same bytes,
// InodeSize of them. The seed corpus, which tier-1 runs, is a few images at
// the edges and the rejection table's kinds of damage.
func FuzzDecodeInode(f *testing.F) {
	for _, mask := range []byte{0, hasMtime, hasID | hasSize, hasDataLoc | hasFile, 0xff} {
		for _, v := range []uint64{1, 1 << 7, math.MaxUint32, math.MaxUint64} {
			img := EncodeInode(edgeInode(mask, v))
			f.Add(img)
			f.Add(img[:len(img)-1])
			f.Add(append(img, 0))
		}
	}
	f.Add(image(hasUID, 1, 5, 0))
	f.Add(image(0, []byte{0x81, 0x00}, 5))
	f.Add(image(hasDataLoc, 1, 5, 3, 7, 7))
	f.Fuzz(func(t *testing.T, b []byte) {
		var in Inode
		if DecodeInodeInto(&in, b) != nil {
			return
		}
		if got := AppendInode(nil, &in); !bytes.Equal(got, b) || InodeSize(&in) != len(b) {
			t.Fatalf("accepted %x as %+v, which encodes as %x (InodeSize %d)", b, in, got, InodeSize(&in))
		}
	})
}
