// Package core defines the protocol-level types of SwitchFS: directory
// identifiers, fingerprints, the metadata schema (inodes, dentries, keys),
// directory states, and change-logs with compaction.
//
// These types are shared by the SwitchFS servers, clients, the programmable
// switch model, and the emulated baseline systems, so that all systems under
// comparison use the same storage and networking framework (as in the paper's
// evaluation setup, §7.1).
package core

import (
	"encoding/binary"
	"fmt"
)

// DirID is the 256-bit unique identifier assigned to every directory upon
// creation (paper §4.3, Tab. 3). File inodes are addressed by (parent DirID,
// name) and do not carry their own DirID; regular files with hard links use a
// FileID (see hardlink support in §5.5).
type DirID [4]uint64

// RootDirID is the well-known identifier of the filesystem root "/".
// The root directory always exists and is never removed.
var RootDirID = DirID{0, 0, 0, 1}

// IsZero reports whether d is the all-zero (invalid) identifier.
func (d DirID) IsZero() bool { return d[0] == 0 && d[1] == 0 && d[2] == 0 && d[3] == 0 }

// String renders the identifier as fixed-width hex, for logs and errors.
func (d DirID) String() string {
	return fmt.Sprintf("%016x%016x%016x%016x", d[0], d[1], d[2], d[3])
}

// AppendBinary appends the 32-byte big-endian encoding of d to b.
func (d DirID) AppendBinary(b []byte) []byte {
	for i := 0; i < 4; i++ {
		b = binary.BigEndian.AppendUint64(b, d[i])
	}
	return b
}

// DirIDFromBytes decodes a 32-byte big-endian DirID. It panics if b is short;
// callers validate lengths at the wire boundary.
func DirIDFromBytes(b []byte) DirID {
	var d DirID
	for i := 0; i < 4; i++ {
		d[i] = binary.BigEndian.Uint64(b[i*8:])
	}
	return d
}

// IDGen deterministically generates unique 256-bit directory identifiers.
// Each metadata server owns one generator seeded with its node id, so ids
// allocated by different servers never collide. IDGen is not safe for
// concurrent use; servers serialize allocation under their directory locks.
type IDGen struct {
	node uint64
	seq  uint64
}

// NewIDGen returns a generator whose ids embed the given node number.
func NewIDGen(node uint64) *IDGen { return &IDGen{node: node} }

// Next returns a fresh DirID. Ids are unique per (node, seq) and whitened
// with Mix64 so that their bits are uniformly distributed — DirIDs feed
// the fingerprint hash and the placement hash.
func (g *IDGen) Next() DirID {
	g.seq++
	s := g.seq
	return DirID{
		Mix64(g.node*0x9E3779B97F4A7C15 + 0x1234),
		Mix64(s),
		Mix64(g.node ^ (s << 32)),
		g.node<<48 | (s & 0xFFFFFFFFFFFF),
	}
}

// Mix64 is the finalizer of the SplitMix64 generator; a strong, cheap 64-bit
// mixing function.
func Mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// FingerprintBits is the width of the on-switch directory fingerprint
// (paper §4.3): it must fit the switch register layout of a 17-bit set index
// plus a 32-bit tag.
const FingerprintBits = 49

// Fingerprint identifies a directory inside the switch. Multiple directories
// may share a fingerprint (a "fingerprint group"); SwitchFS places all
// directories of a group on the same server so aggregation of the group is a
// single-server affair (§5.1 "Transition granularity").
type Fingerprint uint64

// FingerprintOf hashes (pid, name) into the 49-bit fingerprint space.
// Fingerprint 0 is reserved as the protocol's "no group" sentinel (scan
// admission opt-out, dentry transaction ops that ride with their directory's
// inode op), so a computed zero folds to 1 — legal for the same reason Tag
// folds: fingerprint collisions only make directories share a group, never a
// correctness violation.
func FingerprintOf(pid DirID, name string) Fingerprint {
	return fingerprintOfHash(hash64Dir(pid, name))
}

func fingerprintOfHash(h uint64) Fingerprint {
	fp := Fingerprint(h & (1<<FingerprintBits - 1))
	if fp == 0 {
		return 1
	}
	return fp
}

// Index returns the set index (upper 17 bits of the fingerprint) used to pick
// the register set inside the switch's dirty set (§6.3).
func (f Fingerprint) Index(indexBits uint) uint32 {
	return uint32(uint64(f) >> (FingerprintBits - indexBits))
}

// Tag returns the register tag (remaining low bits). Tag zero is reserved as
// the empty-register marker; a computed zero maps to 1. This folds two
// fingerprints together, which is legal: fingerprint collisions only cause
// directories to share a group, never a correctness violation.
func (f Fingerprint) Tag(indexBits uint) uint32 {
	t := uint32(uint64(f) & (1<<(FingerprintBits-indexBits) - 1))
	if t == 0 {
		t = 1
	}
	return t
}

// hash64Dir is a deterministic 64-bit hash of a (DirID, name) pair (FNV-1a
// over the id words and the name bytes, then strengthened with Mix64).
// Determinism matters: placement must agree across clients, servers, and
// across process restarts.
func hash64Dir(pid DirID, name string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, w := range pid {
		for i := 0; i < 8; i++ {
			h ^= (w >> (8 * i)) & 0xFF
			h *= prime64
		}
	}
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return Mix64(h)
}

// Hash64 exposes the schema hash for placement decisions.
func Hash64(pid DirID, name string) uint64 { return hash64Dir(pid, name) }

// FileID identifies the attribute object of a regular file when hard links
// are enabled (§5.5): references (pid,name) point at a FileID-addressed
// attribute record that carries the link count.
type FileID uint64
