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
//
// The switch's register file is fixed; the model's holds only what is live.
// Sets are grouped into pages of 2^pageShift consecutive indexes, and a
// page's registers exist only while one of its sets holds a tag: the insert
// that fills an empty page takes storage for it, and the remove that empties
// it gives the storage back. Up to maxFreePages released pages are kept,
// zeroed, for the next page to fill, so a steady churn of dirty directories
// allocates nothing. Every query, insert and remove answers as on the dense
// register file.
type DirtySet struct {
	stages    int
	indexBits uint
	pageBits  uint
	pages     []*regPage // [idx >> pageBits]; nil while the page holds no tag
	free      []*regPage // released pages, all registers zero
	removeSeq map[env.NodeID]uint64
	occupied  int
	// held counts the pages with storage, heldMax its high-water mark.
	held, heldMax int
	// ForceOverflow makes every insert fail — the §7.3.2 experiment.
	ForceOverflow bool
}

// regPage holds the registers of one page's sets, set-major: set i of the
// page keeps its stages at regs[i*stages : (i+1)*stages].
type regPage struct {
	regs []uint32
	live int // non-zero registers
}

const (
	// pageShift sets a page's width: 32 sets, 1 280 B at ten stages.
	pageShift = 5
	// maxFreePages bounds the released pages kept for reuse.
	maxFreePages = 8
)

// NewDirtySet builds a dirty set with the given geometry.
func NewDirtySet(stages int, indexBits uint) *DirtySet {
	if stages <= 0 {
		stages = DefaultStages
	}
	if indexBits == 0 || indexBits > 24 {
		indexBits = DefaultIndexBits
	}
	pageBits := min(uint(pageShift), indexBits)
	return &DirtySet{
		stages:    stages,
		indexBits: indexBits,
		pageBits:  pageBits,
		pages:     make([]*regPage, 1<<(indexBits-pageBits)),
		free:      make([]*regPage, 0, maxFreePages),
		removeSeq: make(map[env.NodeID]uint64),
	}
}

// Capacity returns the total number of register slots.
func (d *DirtySet) Capacity() int { return d.stages * (1 << d.indexBits) }

// Occupied returns the number of live fingerprints.
func (d *DirtySet) Occupied() int { return d.occupied }

// HeldSets returns how many sets have register storage now, and the most
// that ever had at once. Storage comes a page at a time, so both count every
// set of each page held.
func (d *DirtySet) HeldSets() (held, max int) {
	return d.held << d.pageBits, d.heldMax << d.pageBits
}

// set returns fp's register index (its set) and the tag stored there.
func (d *DirtySet) set(fp core.Fingerprint) (idx uint32, tag uint32) {
	return fp.Index(d.indexBits), fp.Tag(d.indexBits)
}

// row returns the page holding set idx and the set's registers in it, or
// nil and no registers when the page has no storage (every register zero).
func (d *DirtySet) row(idx uint32) (*regPage, []uint32) {
	pg := d.pages[idx>>d.pageBits]
	if pg == nil {
		return nil, nil
	}
	off := int(idx&(1<<d.pageBits-1)) * d.stages
	return pg, pg.regs[off : off+d.stages]
}

// acquire gives set idx's page storage, a released page when one is kept.
func (d *DirtySet) acquire(idx uint32) (*regPage, []uint32) {
	var pg *regPage
	if n := len(d.free); n > 0 {
		pg, d.free = d.free[n-1], d.free[:n-1]
	} else {
		pg = &regPage{regs: make([]uint32, d.stages<<d.pageBits)}
	}
	d.pages[idx>>d.pageBits] = pg
	if d.held++; d.held > d.heldMax {
		d.heldMax = d.held
	}
	return d.row(idx)
}

// release takes page p's storage back; its registers must all be zero.
func (d *DirtySet) release(p uint32) {
	if len(d.free) < maxFreePages {
		d.free = append(d.free, d.pages[p])
	}
	d.pages[p] = nil
	d.held--
}

// Query reports whether fp is in the set: the OR of per-stage register
// queries (§6.3).
func (d *DirtySet) Query(fp core.Fingerprint) bool {
	idx, tag := d.set(fp)
	_, row := d.row(idx)
	for _, r := range row {
		if r == tag {
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
	pg, row := d.row(idx)
	if pg == nil {
		pg, row = d.acquire(idx)
	}
	inserted := false
	for s := range row {
		r := &row[s]
		if !inserted {
			// conditional insert: succeeds when empty or equal.
			if *r == 0 {
				*r = tag
				inserted = true
				pg.live++
				d.occupied++
			} else if *r == tag {
				inserted = true
			}
		} else if *r == tag {
			// conditional remove of duplicates in later stages.
			*r = 0
			pg.live--
			d.occupied--
		}
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
	pg, row := d.row(idx)
	removed := false
	for s := range row {
		if row[s] == tag {
			row[s] = 0
			removed = true
			pg.live--
			d.occupied--
		}
	}
	if removed && pg.live == 0 {
		d.release(idx >> d.pageBits)
	}
	return removed
}

// Reset clears all registers and sequence state (switch crash/reboot,
// §5.4.2).
func (d *DirtySet) Reset() {
	for p, pg := range d.pages {
		if pg != nil {
			clear(pg.regs)
			pg.live = 0
			d.release(uint32(p))
		}
	}
	d.occupied = 0
	d.removeSeq = make(map[env.NodeID]uint64)
}
