// Package pswitch models the programmable switch (paper §6): the parser,
// the fingerprint-prefix router, the in-network dirty set, and the address
// rewriter for overflow fallback. The model reproduces the Tofino pipeline
// semantics the correctness argument relies on — per-stage atomicity and
// ordered execution, hence idempotent and per-fingerprint linearizable
// dirty-set operations (§6.3 "Properties").
package pswitch

import (
	"switchfs/internal/core"
	"switchfs/internal/env"
)

// Default dimensions of the dirty set (§6.3): ten stages of 2^17 32-bit
// registers, 1,310,720 fingerprints, 5 MiB of register memory.
const (
	DefaultStages    = 10
	DefaultIndexBits = 17
)

// DirtySet is the multi-slot hash table of directory fingerprints. Registers
// at the same index across stages form a set (a "way" per stage, like a
// set-associative cache). The zero register value means empty.
type DirtySet struct {
	stages    int
	indexBits uint
	regs      [][]uint32 // [stage][index]
	removeSeq map[env.NodeID]uint64
	occupied  int
	// ForceOverflow makes every insert fail — the §7.3.2 experiment.
	ForceOverflow bool
}

// NewDirtySet builds a dirty set with the given geometry.
func NewDirtySet(stages int, indexBits uint) *DirtySet {
	if stages <= 0 {
		stages = DefaultStages
	}
	if indexBits == 0 || indexBits > 24 {
		indexBits = DefaultIndexBits
	}
	d := &DirtySet{
		stages:    stages,
		indexBits: indexBits,
		regs:      make([][]uint32, stages),
		removeSeq: make(map[env.NodeID]uint64),
	}
	for i := range d.regs {
		d.regs[i] = make([]uint32, 1<<indexBits)
	}
	return d
}

// Capacity returns the total number of register slots.
func (d *DirtySet) Capacity() int { return d.stages * (1 << d.indexBits) }

// Occupied returns the number of live fingerprints.
func (d *DirtySet) Occupied() int { return d.occupied }

// set returns fp's register index (its set) and the tag stored there.
func (d *DirtySet) set(fp core.Fingerprint) (idx uint32, tag uint32) {
	return fp.Index(d.indexBits), fp.Tag(d.indexBits)
}

// Query reports whether fp is in the set: the OR of per-stage register
// queries (§6.3).
func (d *DirtySet) Query(fp core.Fingerprint) bool {
	idx, tag := d.set(fp)
	for s := 0; s < d.stages; s++ {
		if d.regs[s][idx] == tag {
			return true
		}
	}
	return false
}

// Insert adds fp. Stages perform conditional inserts until one succeeds (the
// register is empty or already holds the tag); the remaining stages perform
// conditional removes so no duplicate tags survive (Fig. 10). It returns
// false on overflow: every stage of the set holds a different tag.
func (d *DirtySet) Insert(fp core.Fingerprint) bool {
	if d.ForceOverflow {
		return false
	}
	idx, tag := d.set(fp)
	inserted := false
	fresh := false
	for s := 0; s < d.stages; s++ {
		r := &d.regs[s][idx]
		if !inserted {
			// conditional insert: succeeds when empty or equal.
			if *r == 0 {
				*r = tag
				inserted = true
				fresh = true
			} else if *r == tag {
				inserted = true
			}
		} else if *r == tag {
			// conditional remove of duplicates in later stages.
			*r = 0
			d.occupied--
		}
	}
	if fresh {
		d.occupied++
	}
	return inserted
}

// Remove deletes fp if the remove's sequence number exceeds every previously
// processed remove from the same origin — the duplicate-remove guard of
// §5.4.1. A zero origin bypasses the guard (administrative resets).
func (d *DirtySet) Remove(fp core.Fingerprint, origin env.NodeID, seq uint64) bool {
	if origin != 0 {
		if seq <= d.removeSeq[origin] {
			return false
		}
		d.removeSeq[origin] = seq
	}
	idx, tag := d.set(fp)
	removed := false
	for s := 0; s < d.stages; s++ {
		if d.regs[s][idx] == tag {
			d.regs[s][idx] = 0
			removed = true
			d.occupied--
		}
	}
	return removed
}

// Reset clears all registers and sequence state (switch crash/reboot,
// §5.4.2).
func (d *DirtySet) Reset() {
	for s := range d.regs {
		clear(d.regs[s])
	}
	d.occupied = 0
	d.removeSeq = make(map[env.NodeID]uint64)
}
