package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// FileType distinguishes the kinds of metadata objects in the namespace.
type FileType uint8

const (
	// TypeRegular is an ordinary file.
	TypeRegular FileType = iota + 1
	// TypeDir is a directory.
	TypeDir
	// TypeSymlink is a symbolic link.
	TypeSymlink
)

func (t FileType) String() string {
	switch t {
	case TypeRegular:
		return "file"
	case TypeDir:
		return "dir"
	case TypeSymlink:
		return "symlink"
	default:
		return fmt.Sprintf("FileType(%d)", uint8(t))
	}
}

// Perm is a POSIX permission/mode word.
type Perm uint16

// DefaultFilePerm and DefaultDirPerm are used when a caller does not specify
// a mode.
const (
	DefaultFilePerm Perm = 0o644
	DefaultDirPerm  Perm = 0o755
)

// Attr is the attribute block shared by files and directories (Tab. 3).
// Timestamps are virtual-clock nanoseconds; the environment supplies them.
type Attr struct {
	Type  FileType
	Perm  Perm
	UID   uint32
	GID   uint32
	Size  int64 // bytes for files; entry count for directories
	Atime int64
	Mtime int64
	Ctime int64
	Nlink uint32
}

// Inode is a metadata object stored in the key-value store. Directories carry
// their 256-bit ID; regular files carry a FileID only when they participate
// in hard links.
type Inode struct {
	Attr
	// ID is the directory identifier; zero for non-directories.
	ID DirID
	// File is the file attribute-object id (hard-link support); zero when
	// the file has a single reference stored inline.
	File FileID
	// DataLoc names the data servers holding the file content; metadata-only
	// workloads leave it empty.
	DataLoc []uint32
}

// DirEntry is one entry of a directory's entry list, stored as its own
// key-value pair colocated with the directory inode (Tab. 3).
type DirEntry struct {
	Name string
	Type FileType
	Perm Perm
}

// Key addresses a metadata object: the concatenation of the parent
// directory's id and the component name (§4.3).
type Key struct {
	PID  DirID
	Name string
}

func (k Key) String() string { return k.PID.String()[:8] + "…/" + k.Name }

// Storage-table tags. Inodes and directory entries are distinct tables in
// the metadata store (Tab. 3); the tag byte keeps their keyspaces disjoint —
// the inode of /a/b (keyed by parent id + "b") and root's dentry "b" (keyed
// by directory id + "b") must never collide.
const (
	tagInode byte = 'i'
	tagEntry byte = 'e'
)

// KeyBuf is stack scratch for one encoded key: key.AppendTo(buf[:0]) stays
// off the heap for names up to 62 bytes and spills to it beyond. The encoded
// slice must not outlive the buffer — pass it to lookups (kv.GetView, Has,
// Put, Delete and map indexing copy what they keep), never store it.
type KeyBuf [96]byte

// keyOverhead is the encoded key's fixed part: tag, 32-byte id, separator.
const keyOverhead = 1 + 32 + 1

// EncodedLen is the length of the key's encoding.
func (k Key) EncodedLen() int { return keyOverhead + len(k.Name) }

// AppendTo appends the inode-table key to dst: tag, parent id, separator,
// name. Lexicographic order groups a parent's inode keys together.
func (k Key) AppendTo(dst []byte) []byte {
	return appendKey(dst, tagInode, k.PID, k.Name)
}

func appendKey(dst []byte, tag byte, id DirID, name string) []byte {
	dst = append(dst, tag)
	dst = id.AppendBinary(dst)
	dst = append(dst, '/')
	return append(dst, name...)
}

// Encode renders the inode-table key into a fresh slice.
func (k Key) Encode() []byte { return k.AppendTo(make([]byte, 0, k.EncodedLen())) }

// DecodeKey parses an inode-table key encoded by Key.Encode. Keys from other
// tables return an error.
func DecodeKey(b []byte) (Key, error) {
	if len(b) < 34 || b[0] != tagInode || b[33] != '/' {
		return Key{}, fmt.Errorf("core: not an inode key (%d bytes)", len(b))
	}
	return Key{PID: DirIDFromBytes(b[1:33]), Name: string(b[34:])}, nil
}

// EntryPrefix is the entry-table scan prefix selecting every dentry of
// directory id. Dentries are stored on the same server as the directory's
// inode (Tab. 3).
func EntryPrefix(id DirID) []byte { return AppendEntryKey(make([]byte, 0, keyOverhead), id, "") }

// AppendEntryKey appends the entry-table key of directory id's dentry name
// to dst (the scan prefix followed by the name).
func AppendEntryKey(dst []byte, id DirID, name string) []byte {
	return appendKey(dst, tagEntry, id, name)
}

// Fingerprint of the directory identified by key (pid,name): used both by
// clients (to stamp requests) and servers (to stamp dirty-set updates).
func (k Key) Fingerprint() Fingerprint { return FingerprintOf(k.PID, k.Name) }

// DirRef fully identifies a directory to the protocol: its 256-bit id (which
// addresses the entry list), the key of its own inode (which addresses its
// attributes on the owner server), and its fingerprint (which addresses its
// state in the switch). Clients learn DirRefs during path resolution and pass
// them in requests so servers never resolve paths themselves.
type DirRef struct {
	ID  DirID
	Key Key
	FP  Fingerprint
}

// RootRef is the DirRef of "/": its inode is stored under the zero parent
// with an empty name.
func RootRef() DirRef {
	k := Key{PID: DirID{}, Name: ""}
	return DirRef{ID: RootDirID, Key: k, FP: k.Fingerprint()}
}

// ValidateName rejects component names the namespace cannot store.
func ValidateName(name string) error {
	switch {
	case name == "":
		return fmt.Errorf("%w: empty name", ErrInvalid)
	case name == "." || name == "..":
		return fmt.Errorf("%w: reserved name %q", ErrInvalid, name)
	case strings.ContainsRune(name, '/'):
		return fmt.Errorf("%w: name %q contains '/'", ErrInvalid, name)
	case len(name) > MaxNameLen:
		return fmt.Errorf("%w: name longer than %d bytes", ErrInvalid, MaxNameLen)
	}
	return nil
}

// MaxNameLen bounds a single path component, as in POSIX NAME_MAX.
const MaxNameLen = 255

// SplitPath normalizes an absolute slash-separated path into its components.
// The empty list denotes the root directory.
func SplitPath(path string) ([]string, error) {
	if path == "" || path[0] != '/' {
		return nil, fmt.Errorf("%w: path %q is not absolute", ErrInvalid, path)
	}
	raw := strings.Split(path, "/")
	comps := make([]string, 0, len(raw))
	for _, c := range raw {
		switch c {
		case "", ".":
			continue
		case "..":
			if len(comps) == 0 {
				return nil, fmt.Errorf("%w: path %q escapes root", ErrInvalid, path)
			}
			comps = comps[:len(comps)-1]
		default:
			if err := ValidateName(c); err != nil {
				return nil, err
			}
			comps = append(comps, c)
		}
	}
	return comps, nil
}

// CanonicalPath returns path as "/" or "/c1/…/cn" over exactly SplitPath's
// components, failing exactly when SplitPath does. A path already in that
// form — what callers nearly always pass — comes back as is, unallocated, so
// its components can be walked as substrings (NextComponent).
func CanonicalPath(path string) (string, error) {
	if path == "/" || canonical(path) {
		return path, nil
	}
	comps, err := SplitPath(path)
	if err != nil {
		return "", err
	}
	return "/" + strings.Join(comps, "/"), nil
}

// canonical reports whether path is a '/'-introduced sequence of names
// SplitPath would keep unchanged.
func canonical(path string) bool {
	if path == "" || path[0] != '/' {
		return false
	}
	for i := 0; i < len(path); {
		comp, end := NextComponent(path, i)
		if comp == "" || comp == "." || comp == ".." || len(comp) > MaxNameLen {
			return false
		}
		i = end
	}
	return true
}

// NextComponent returns the component of a canonical path that follows the
// '/' at path[i], and the index just past it: the next '/', or len(path)
// after the leaf.
func NextComponent(path string, i int) (comp string, end int) {
	end = len(path)
	if j := strings.IndexByte(path[i+1:], '/'); j >= 0 {
		end = i + 1 + j
	}
	return path[i+1 : end], end
}

// The inode image is the one encoding of an inode: the value stored in the
// KV store, the image in WAL records and the bytes carried on the wire.
//
//	type (1 B) · perm (2 B, big-endian) · presence (1 B) · nlink · atime ·
//	the fields whose presence bit is set, in bit order:
//	uid · gid · size · mtime · ctime · file · data locations · id
//
// Every field after the presence byte is a uvarint, except id, which is 32
// bytes big-endian; data locations are a count, then each location. A bit is
// set exactly when its field differs from its default: zero, or no data
// location, except that mtime defaults to atime and ctime to mtime. So a
// fresh file, whose three timestamps are equal, takes 5 bytes plus its atime.
// The image is canonical: every inode has exactly one, and the decoder
// accepts nothing else, so two images are byte-equal exactly when their
// inodes are equal (a 2PC check compares stored images that way).
const (
	hasUID byte = 1 << iota
	hasGID
	hasSize
	hasMtime
	hasCtime
	hasFile
	hasDataLoc
	hasID
)

// presence is in's presence byte.
func presence(in *Inode) byte {
	var p byte
	if in.UID != 0 {
		p |= hasUID
	}
	if in.GID != 0 {
		p |= hasGID
	}
	if in.Size != 0 {
		p |= hasSize
	}
	if in.Mtime != in.Atime {
		p |= hasMtime
	}
	if in.Ctime != in.Mtime {
		p |= hasCtime
	}
	if in.File != 0 {
		p |= hasFile
	}
	if len(in.DataLoc) != 0 {
		p |= hasDataLoc
	}
	if in.ID != (DirID{}) {
		p |= hasID
	}
	return p
}

// InodeBuf is stack scratch for one inode image, the counterpart of KeyBuf:
// AppendInode(buf[:0], in) stays off the heap for every inode without data
// locations (at most 101 bytes) and spills to it only when the locations
// take more than the 27 bytes left — past 5 of them in the worst case.
type InodeBuf [128]byte

// uvarintLen is the length of v's uvarint encoding.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// InodeSize is the length of in's image.
func InodeSize(in *Inode) int {
	p := presence(in)
	n := 4 + uvarintLen(uint64(in.Nlink)) + uvarintLen(uint64(in.Atime))
	if p&hasUID != 0 {
		n += uvarintLen(uint64(in.UID))
	}
	if p&hasGID != 0 {
		n += uvarintLen(uint64(in.GID))
	}
	if p&hasSize != 0 {
		n += uvarintLen(uint64(in.Size))
	}
	if p&hasMtime != 0 {
		n += uvarintLen(uint64(in.Mtime))
	}
	if p&hasCtime != 0 {
		n += uvarintLen(uint64(in.Ctime))
	}
	if p&hasFile != 0 {
		n += uvarintLen(uint64(in.File))
	}
	if p&hasDataLoc != 0 {
		n += uvarintLen(uint64(len(in.DataLoc)))
		for _, d := range in.DataLoc {
			n += uvarintLen(uint64(d))
		}
	}
	if p&hasID != 0 {
		n += 32
	}
	return n
}

// AppendInode appends in's image to dst.
func AppendInode(dst []byte, in *Inode) []byte {
	p := presence(in)
	dst = append(dst, byte(in.Type), byte(in.Perm>>8), byte(in.Perm), p)
	dst = binary.AppendUvarint(dst, uint64(in.Nlink))
	dst = binary.AppendUvarint(dst, uint64(in.Atime))
	if p&hasUID != 0 {
		dst = binary.AppendUvarint(dst, uint64(in.UID))
	}
	if p&hasGID != 0 {
		dst = binary.AppendUvarint(dst, uint64(in.GID))
	}
	if p&hasSize != 0 {
		dst = binary.AppendUvarint(dst, uint64(in.Size))
	}
	if p&hasMtime != 0 {
		dst = binary.AppendUvarint(dst, uint64(in.Mtime))
	}
	if p&hasCtime != 0 {
		dst = binary.AppendUvarint(dst, uint64(in.Ctime))
	}
	if p&hasFile != 0 {
		dst = binary.AppendUvarint(dst, uint64(in.File))
	}
	if p&hasDataLoc != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(in.DataLoc)))
		for _, d := range in.DataLoc {
			dst = binary.AppendUvarint(dst, uint64(d))
		}
	}
	if p&hasID != 0 {
		dst = in.ID.AppendBinary(dst)
	}
	return dst
}

// EncodeInode serializes an inode into a fresh slice of exactly its size.
func EncodeInode(in *Inode) []byte { return AppendInode(make([]byte, 0, InodeSize(in)), in) }

// Why DecodeInodeInto refuses an image.
var (
	errImageShort    = errors.New("core: inode image truncated")
	errImageOverlong = errors.New("core: inode image has an overlong uvarint")
	errImageOverflow = errors.New("core: inode image field overflows")
	errImageDefault  = errors.New("core: inode image marks a default field present")
	errImageTrailing = errors.New("core: inode image has trailing bytes")
)

// imageReader reads an image's fields in order. The first bad read sets err
// and drops the bytes left, so every read after it returns zero and the
// decoder checks err once.
type imageReader struct {
	b   []byte
	p   byte // presence
	err error
}

func (r *imageReader) fail(err error) {
	if r.err == nil {
		r.err, r.b = err, nil
	}
}

// uvarint reads a uvarint in its shortest form. A one-byte field — nlink, a
// small size or location — is read inline: a one-byte form is never overlong
// and never overflows, and after an error no byte is left to read.
func (r *imageReader) uvarint() uint64 {
	if len(r.b) != 0 && r.b[0] < 0x80 {
		v := uint64(r.b[0])
		r.b = r.b[1:] // a self-assignment, which keeps the image on the stack
		return v
	}
	return r.uvarintLong()
}

// uvarintLong reads a uvarint of any length, refusing an overlong form.
func (r *imageReader) uvarintLong() uint64 {
	v, n := binary.Uvarint(r.b)
	switch {
	case n == 0:
		r.fail(errImageShort)
	case n < 0:
		r.fail(errImageOverflow)
	case n > 1 && r.b[n-1] == 0: // a zero last group adds nothing
		r.fail(errImageOverlong)
	default:
		r.b = r.b[n:]
		return v
	}
	return 0
}

// u32 checks that v, a field just read, fits a uint32.
func (r *imageReader) u32(v uint64) uint32 {
	if v > math.MaxUint32 {
		r.fail(errImageOverflow)
	}
	return uint32(v)
}

// opt reads the field of presence bit bit: def when the bit is clear, and
// anything but def when it is set.
func (r *imageReader) opt(bit byte, def uint64) uint64 {
	if r.p&bit == 0 {
		return def
	}
	v := r.uvarint()
	if v == def {
		r.fail(errImageDefault)
	}
	return v
}

// DecodeInodeInto parses an image AppendInode produced into *in, overwriting
// every field, and refuses any other bytes: a truncated or overlong field, a
// value past its field's width, a present field holding its default, or
// bytes after the image. Nothing in *in aliases b afterwards (DataLoc is
// copied), so b may be store memory (kv.GetView) and in may live on the
// caller's stack. On error *in holds no meaningful value.
func DecodeInodeInto(in *Inode, b []byte) error {
	if len(b) < 4 {
		return errImageShort
	}
	r := imageReader{b: b[4:], p: b[3]}
	in.Type = FileType(b[0])
	in.Perm = Perm(binary.BigEndian.Uint16(b[1:]))
	in.Nlink = r.u32(r.uvarint())
	in.Atime = int64(r.uvarint())
	in.UID = r.u32(r.opt(hasUID, 0))
	in.GID = r.u32(r.opt(hasGID, 0))
	in.Size = int64(r.opt(hasSize, 0))
	in.Mtime = int64(r.opt(hasMtime, uint64(in.Atime)))
	in.Ctime = int64(r.opt(hasCtime, uint64(in.Mtime)))
	in.File = FileID(r.opt(hasFile, 0))
	in.DataLoc = nil
	if n := r.opt(hasDataLoc, 0); n > uint64(len(r.b)) {
		r.fail(errImageShort) // every location takes at least a byte
	} else if n > 0 {
		in.DataLoc = make([]uint32, n)
		for i := range in.DataLoc {
			in.DataLoc[i] = r.u32(r.uvarint())
		}
	}
	in.ID = DirID{}
	if r.p&hasID != 0 {
		if len(r.b) < 32 {
			r.fail(errImageShort)
		} else if in.ID, r.b = DirIDFromBytes(r.b), r.b[32:]; in.ID == (DirID{}) {
			r.fail(errImageDefault)
		}
	}
	if len(r.b) != 0 {
		r.fail(errImageTrailing)
	}
	return r.err
}

// DecodeInode parses the output of EncodeInode into a fresh inode.
func DecodeInode(b []byte) (*Inode, error) {
	in := &Inode{}
	if err := DecodeInodeInto(in, b); err != nil {
		return nil, err
	}
	return in, nil
}

// EncodeDirEntry serializes a dentry value (the key carries the name; the
// value stores type and permissions, per Tab. 3).
func EncodeDirEntry(e DirEntry) []byte {
	b := make([]byte, 0, 3)
	b = append(b, byte(e.Type))
	b = binary.BigEndian.AppendUint16(b, uint16(e.Perm))
	return b
}

// DecodeDirEntry parses the output of EncodeDirEntry; the caller supplies the
// name recovered from the key.
func DecodeDirEntry(name string, b []byte) (DirEntry, error) {
	if len(b) < 3 {
		return DirEntry{}, fmt.Errorf("core: dentry record too short")
	}
	return DirEntry{Name: name, Type: FileType(b[0]), Perm: Perm(binary.BigEndian.Uint16(b[1:]))}, nil
}
