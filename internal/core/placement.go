package core

import (
	"fmt"
	"sort"
)

// Placement maps metadata objects to servers with consistent hashing (§5.5).
// SwitchFS uses P/C separation: file and directory inodes are partitioned by
// hashing their (pid, name) key. Directories are placed by *fingerprint*, so
// an entire fingerprint group lands on one server — the invariant that keeps
// aggregation a single-destination protocol (§4.3).
//
// The ring lives on clients and servers; the switch routes only by
// fingerprint prefix and never consults it, which is why reconfiguration
// needs no switch changes (§5.5).
type Placement struct {
	vnodes  int
	servers []uint32 // sorted, the current member set
	ring    []ringPoint
}

type ringPoint struct {
	hash   uint64
	server uint32
}

// DefaultVNodes is the number of virtual nodes per server on the ring; high
// enough that per-file hashing balances within a few percent.
const DefaultVNodes = 128

// NewPlacement builds a ring over the given server ids.
func NewPlacement(servers []uint32, vnodes int) *Placement {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	p := &Placement{vnodes: vnodes}
	p.Reset(servers)
	return p
}

// Reset replaces the member set (cluster reconfiguration).
func (p *Placement) Reset(servers []uint32) {
	p.servers = append([]uint32(nil), servers...)
	sort.Slice(p.servers, func(i, j int) bool { return p.servers[i] < p.servers[j] })
	p.ring = p.ring[:0]
	for _, s := range p.servers {
		for v := 0; v < p.vnodes; v++ {
			h := splitmix64(uint64(s)<<32 | uint64(v) | 0xA5A5<<48)
			p.ring = append(p.ring, ringPoint{hash: h, server: s})
		}
	}
	sort.Slice(p.ring, func(i, j int) bool { return p.ring[i].hash < p.ring[j].hash })
}

// Servers returns the current member set in ascending order.
func (p *Placement) Servers() []uint32 { return append([]uint32(nil), p.servers...) }

// NumServers returns the member count.
func (p *Placement) NumServers() int { return len(p.servers) }

// locate finds the first ring point at or after h, wrapping.
func (p *Placement) locate(h uint64) uint32 {
	if len(p.ring) == 0 {
		panic("core: placement has no servers")
	}
	i := sort.Search(len(p.ring), func(i int) bool { return p.ring[i].hash >= h })
	if i == len(p.ring) {
		i = 0
	}
	return p.ring[i].server
}

// OwnerOfFile returns the server owning the inode addressed by (pid, name) —
// per-file hashing (P/C separation). Files route through the fingerprint hash
// exactly like directories, so a file and a directory competing for the same
// (pid, name) land on the same server and the existence check is local.
func (p *Placement) OwnerOfFile(pid DirID, name string) uint32 {
	return p.OwnerOfFingerprint(FingerprintOf(pid, name))
}

// OwnerOfFingerprint returns the server owning every directory whose
// fingerprint is fp. Directory inodes (and their entry lists) are placed by
// fingerprint so that all members of a fingerprint group colocate.
func (p *Placement) OwnerOfFingerprint(fp Fingerprint) uint32 {
	return p.locate(splitmix64(uint64(fp) | 1<<62))
}

// OwnerOfDir places the directory identified by (pid, name): shorthand for
// OwnerOfFingerprint(FingerprintOf(pid, name)).
func (p *Placement) OwnerOfDir(pid DirID, name string) uint32 {
	return p.OwnerOfFingerprint(FingerprintOf(pid, name))
}

// OwnerOfKey routes by object type: directories by fingerprint, files by key
// hash.
func (p *Placement) OwnerOfKey(k Key, isDir bool) uint32 {
	if isDir {
		return p.OwnerOfDir(k.PID, k.Name)
	}
	return p.OwnerOfFile(k.PID, k.Name)
}

// String summarizes the ring for diagnostics.
func (p *Placement) String() string {
	return fmt.Sprintf("placement{%d servers × %d vnodes}", len(p.servers), p.vnodes)
}
