package ring

import (
	"sort"

	"switchfs/internal/core"
)

// placement maps fingerprint groups to slots with consistent hashing (§5.5):
// the base a Ring's overrides layer over. SwitchFS uses P/C separation: file
// and directory inodes are partitioned by hashing their (pid, name) key, both
// through its fingerprint, so an entire fingerprint group lands on one slot —
// the invariant that keeps aggregation a single-destination protocol (§4.3) —
// and a file and a directory competing for the same (pid, name) land together,
// keeping the existence check local.
//
// The ring lives on clients and servers; the switch routes only by
// fingerprint prefix and never consults it, which is why reconfiguration
// needs no switch changes (§5.5).
type placement struct {
	vnodes int
	slots  []uint32 // sorted, the current member set
	points []point
}

type point struct {
	hash uint64
	slot uint32
}

// defaultVNodes is the number of virtual nodes per slot on the ring; high
// enough that per-file hashing balances within a few percent.
const defaultVNodes = 128

func newPlacement(slots []uint32, vnodes int) *placement {
	if vnodes <= 0 {
		vnodes = defaultVNodes
	}
	p := &placement{vnodes: vnodes}
	p.reset(slots)
	return p
}

// reset replaces the member set (cluster reconfiguration).
func (p *placement) reset(slots []uint32) {
	p.slots = append([]uint32(nil), slots...)
	sort.Slice(p.slots, func(i, j int) bool { return p.slots[i] < p.slots[j] })
	p.points = p.points[:0]
	for _, s := range p.slots {
		for v := 0; v < p.vnodes; v++ {
			h := core.Mix64(uint64(s)<<32 | uint64(v) | 0xA5A5<<48)
			p.points = append(p.points, point{hash: h, slot: s})
		}
	}
	sort.Slice(p.points, func(i, j int) bool { return p.points[i].hash < p.points[j].hash })
}

// ownerOf returns the slot of the first ring point at or after fp's hash,
// wrapping.
func (p *placement) ownerOf(fp core.Fingerprint) uint32 {
	if len(p.points) == 0 {
		panic("ring: placement has no slots")
	}
	h := core.Mix64(uint64(fp) | 1<<62)
	i := sort.Search(len(p.points), func(i int) bool { return p.points[i].hash >= h })
	if i == len(p.points) {
		i = 0
	}
	return p.points[i].slot
}
