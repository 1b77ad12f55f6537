// Package ring is the versioned placement ring consulted by clients,
// servers, and the cluster control plane. It layers two mechanisms over the
// consistent-hash base (core.Placement):
//
//   - explicit per-fingerprint overrides, so a single hot directory group can
//     be migrated to a chosen slot without perturbing anything else, and
//   - a monotonically increasing version, bumped on every placement change,
//     so a re-routed operation can be attributed to the ring state it ran
//     under (figures report the version timeline during rebalance).
//
// The ring is the unit of agreement during staged rebalance: the control
// plane installs an override in the same atomic event that gates the
// destination, in-flight operations against the moving group observe the
// ownership check fail with ErrRetry, and the client re-resolves under the
// bumped version. Reconfigure is the bulk case: overrides drain group by
// group until a Reset lands the base ring on the new member set.
package ring

import (
	"fmt"
	"sort"

	"switchfs/internal/core"
	"switchfs/internal/env"
)

// Ring is a versioned placement: consistent-hash base + per-fingerprint
// overrides. All methods are cheap and never park, so a read-modify sequence
// inside one simulator event is atomic with respect to traffic.
type Ring struct {
	placement *core.Placement
	overrides map[core.Fingerprint]uint32
	version   uint64
	nodeOf    func(uint32) env.NodeID
}

// Override is one pinned fingerprint-group placement.
type Override struct {
	FP   core.Fingerprint
	Slot uint32
}

// New builds a ring over the given slots. nodeOf maps a placement slot to
// the owning server's NodeID (the cluster's address layout); vnodes <= 0
// selects core.DefaultVNodes.
func New(slots []uint32, vnodes int, nodeOf func(uint32) env.NodeID) *Ring {
	return &Ring{
		placement: core.NewPlacement(slots, vnodes),
		overrides: make(map[core.Fingerprint]uint32),
		version:   1,
		nodeOf:    nodeOf,
	}
}

// Version returns the current ring version. It increases by exactly one on
// every SetOverride/ClearOverride/Reset, never decreases, and starts at 1.
func (r *Ring) Version() uint64 {
	return r.version
}

// OwnerOf returns the slot owning fingerprint group fp: the override if one
// is pinned, the consistent-hash owner otherwise.
func (r *Ring) OwnerOf(fp core.Fingerprint) uint32 {
	if slot, ok := r.overrides[fp]; ok {
		return slot
	}
	return r.placement.OwnerOfFingerprint(fp)
}

// OwnerNode returns the NodeID owning fingerprint group fp.
func (r *Ring) OwnerNode(fp core.Fingerprint) env.NodeID {
	return r.nodeOf(r.OwnerOf(fp))
}

// OwnerOfFile returns the slot owning the object addressed by (pid, name) —
// files and directories both route by fingerprint (P/C separation), so this
// is OwnerOf of the key's fingerprint. Test and tooling convenience.
func (r *Ring) OwnerOfFile(pid core.DirID, name string) uint32 {
	return r.OwnerOf(core.FingerprintOf(pid, name))
}

// NodeOf maps a placement slot to its NodeID.
func (r *Ring) NodeOf(slot uint32) env.NodeID { return r.nodeOf(slot) }

// SetOverride pins fingerprint group fp to slot and bumps the version.
// Installing the override a group already resolves to still bumps the
// version — the caller is staging a migration and relies on the bump.
func (r *Ring) SetOverride(fp core.Fingerprint, slot uint32) {
	r.overrides[fp] = slot
	r.version++
}

// ClearOverride removes fp's pin (a no-op without one does not bump).
func (r *Ring) ClearOverride(fp core.Fingerprint) {
	if _, ok := r.overrides[fp]; !ok {
		return
	}
	delete(r.overrides, fp)
	r.version++
}

// Reset replaces the base member set, drops every override, and bumps the
// version (bulk reconfiguration: by the time the control plane resets, every
// group has been migrated to its target owner, so the overrides are spent).
func (r *Ring) Reset(slots []uint32) {
	r.placement.Reset(slots)
	r.overrides = make(map[core.Fingerprint]uint32)
	r.version++
}

// Overrides returns the pinned placements sorted by fingerprint —
// deterministic iteration for control-plane scans and figures.
func (r *Ring) Overrides() []Override {
	out := make([]Override, 0, len(r.overrides))
	for fp, slot := range r.overrides {
		out = append(out, Override{FP: fp, Slot: slot})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FP < out[j].FP })
	return out
}

// Slots returns the base member set in ascending order (overrides excluded:
// an override pins a group to a member, it does not add members).
func (r *Ring) Slots() []uint32 {
	return r.placement.Servers()
}

// String summarizes the ring for diagnostics.
func (r *Ring) String() string {
	return fmt.Sprintf("ring{v%d, %d slots, %d overrides}",
		r.version, r.placement.NumServers(), len(r.overrides))
}
