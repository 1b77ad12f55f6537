package server

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/wal"
)

// A checkpoint (DESIGN.md "Checkpoint") is a durable image of what replay
// rebuilds from the log's records through a cut: the store, the applied
// marks and the rmdir invalidations, with the slot count at the cut and the
// slots the change-logs hold, which later commits may name. The
// server takes one, in one event and without stopping, once the payload
// bytes it logged since the last one exceed twice the store's live bytes
// (maybeCheckpoint says why twice); it is
// written in the background and is durable after one WALAppend per store
// entry. Then the log cuts the records it covers (installImage), carrying
// below the cut the ones whose pending work the image does not hold: the
// unapplied commits, prepares and commit decisions. A crash before then
// recovers from the previous image, whose records are all still logged.

// pendingImage is an image being written: durable at at, it covers the
// records through cut; floor is the count of slots they defined, and slots
// those of them it keeps.
type pendingImage struct {
	buf   []byte
	cut   wal.LSN
	floor uint32
	slots []slotRef
	at    env.Time
}

// maybeCheckpoint installs the image being written if it is durable by now,
// then takes the next one if the log gained more payload bytes since the
// last than twice what the store holds live — the two image buffers a
// server keeps, the durable image and the one the next is built in, so a
// cut never leaves more bytes held than the log it replaced — unless one is
// still being written, or a logged record's effects are still being applied
// across a park (applying), so the store would lack part of a record the
// image claims. The image is taken before the record being logged is
// appended: every record it covers has had its effects.
func (s *Server) maybeCheckpoint() {
	s.settleImage()
	if s.ckpt.buf != nil || s.applying > 0 || s.walGained <= 2*uint64(s.kv.Bytes()) {
		return
	}
	s.walGained = 0
	cut := wal.LSN(s.wal.Len())
	slots := s.keptSlots(s.slotBuf[:0], cut)
	s.ckpt = pendingImage{
		cut:   cut,
		floor: s.walSlots,
		slots: slots,
		at:    s.env.Now() + env.Duration(s.kv.Len())*s.cfg.Costs.WALAppend,
	}
	s.ckpt.buf = s.appendImage(s.ckptBuf[:0], slots)
	s.ckptBuf, s.slotBuf = nil, nil
}

// keptSlots appends to buf, ascending and once each, the slots defined
// through cut that a record past it, or carried below it, may name: those
// the change-logs hold, which later commits name, and those the unapplied
// commits through cut name, which the cut carries as they are. Resolving the
// latter walks the records since the durable image's cut, whose slots are
// defined there or kept by that image.
func (s *Server) keptSlots(buf []slotRef, cut wal.LSN) []slotRef {
	for _, dl := range s.clogs {
		if dl.walSlot != 0 {
			buf = append(buf, slotRef{n: dl.walSlot, ref: dl.ref})
		}
	}
	slices.SortFunc(buf, func(a, b slotRef) int { return cmp.Compare(a.n, b.n) })
	_, prev := s.wal.Image()
	walk := commitSlots{base: s.slotBase, kept: s.slotsKept}
	s.wal.Walk(cut, func(r wal.Record) bool {
		switch {
		case r.Kind == recCommit && r.LSN > prev:
			walk.refs = append(walk.refs, (&recReader{b: r.Payload}).dirRef())
		case r.Kind == recCommitAt && !r.Applied:
			// Many unapplied commits name one slot: each slot goes in once.
			n, _ := binary.Uvarint(r.Payload)
			i, found := slices.BinarySearchFunc(buf, n, func(s slotRef, n uint64) int { return cmp.Compare(uint64(s.n), n) })
			if ref, ok := walk.ref(n); ok && !found {
				buf = slices.Insert(buf, i, slotRef{n: uint32(n), ref: ref})
			}
		}
		return true
	})
	return buf
}

// settleImage installs the image being written if it is durable by now.
func (s *Server) settleImage() {
	if s.ckpt.buf != nil && s.env.Now() >= s.ckpt.at {
		s.installImage()
	}
}

// installImage makes the pending image the log's: the log cuts the records
// it covers, carrying the unapplied commits, prepares and commit decisions,
// whose pending work (change-log entries, prepared transactions, decisions to
// re-drive) the image does not hold, as they are — every slot such a commit
// names the image keeps — and hands back the image it replaces, whose buffer
// the next image is built in.
func (s *Server) installImage() {
	old, err := s.wal.Checkpoint(s.ckpt.buf, s.ckpt.cut, func(r wal.Record) bool {
		switch r.Kind {
		case recCommit, recCommitAt, recTxnCommit, recTxnPrepare:
			return true
		}
		return false
	})
	if err != nil {
		panic(fmt.Sprintf("server: WAL checkpoint failed: %v", err))
	}
	s.slotBase, s.slotBuf, s.slotsKept = s.ckpt.floor, s.slotsKept[:0], s.ckpt.slots
	s.ckptBuf, s.ckpt = old, pendingImage{}
	s.Stats.Checkpoints++
}

// appendImage appends the server's image to b: the slot count and the kept
// slots, each a number and a DirRef; the directories of the logged rmdirs in
// log order; the applied marks sorted by directory and source, each as a
// recMark encodes it; and the store's image (kv.Store.AppendImage).
func (s *Server) appendImage(b []byte, slots []slotRef) []byte {
	b = binary.AppendUvarint(b, uint64(s.walSlots))
	b = binary.AppendUvarint(b, uint64(len(slots)))
	for _, sl := range slots {
		b = appendDirRef(binary.AppendUvarint(b, uint64(sl.n)), sl.ref)
	}
	b = binary.AppendUvarint(b, uint64(len(s.rmdirs)))
	for _, d := range s.rmdirs {
		b = d.AppendBinary(b)
	}
	marks := s.markBuf[:0]
	for k := range s.applied {
		marks = append(marks, k)
	}
	slices.SortFunc(marks, func(a, b appliedKey) int {
		if c := cmpDirID(a.dir, b.dir); c != 0 {
			return c
		}
		return cmp.Compare(a.src, b.src)
	})
	s.markBuf = marks
	b = binary.AppendUvarint(b, uint64(len(marks)))
	for _, k := range marks {
		b = encodeMark(b, k.src, k.dir, s.applied[k])
	}
	// One allocation at most, with room for the store to grow an eighth
	// before the next image in this buffer needs another.
	if n := s.kv.ImageSize(); cap(b)-len(b) < n {
		b = slices.Grow(b, n+n/8)
	}
	return s.kv.AppendImage(b)
}

// restoreImage rebuilds from image what replay of the records it covers
// would: the store, the applied marks and, in log order, the rmdir
// invalidations. It charges plan one redo unit per store entry but the root,
// which replay bootstraps uncharged, on its key's lane, and per mark, as a
// recMark: no more than the records it replaces. It
// returns the slot table the records past the image's cut resolve against.
func (s *Server) restoreImage(image []byte, plan *redoPlan) (commitSlots, error) {
	r := recReader{b: image}
	var slots commitSlots
	floor := r.uvarint()
	if floor > math.MaxUint32 && r.err == nil {
		r.err = errors.New("slot count overflow")
	}
	n := r.uvarint()
	if n > uint64(len(r.b))/73 && r.err == nil {
		r.err = errShort // a slot takes at least 73 bytes
	}
	for ; n > 0 && r.err == nil; n-- {
		sl := slotRef{n: uint32(r.uvarint()), ref: r.dirRef()}
		if k := len(slots.kept); (sl.n == 0 || k > 0 && sl.n <= slots.kept[k-1].n || uint64(sl.n) > floor) && r.err == nil {
			r.err = errors.New("slots out of order")
		}
		slots.kept = append(slots.kept, sl)
	}
	n = r.uvarint()
	if n > uint64(len(r.b))/32 && r.err == nil {
		r.err = errShort
	}
	for ; n > 0 && r.err == nil; n-- {
		d := r.dirID()
		s.rmdirs = append(s.rmdirs, d)
		s.addInval(d)
	}
	n = r.uvarint()
	if n > uint64(len(r.b))/34 && r.err == nil {
		r.err = errShort // a mark takes at least 34 bytes
	}
	for ; n > 0 && r.err == nil; n-- {
		src, dir, id := r.node(), r.dirID(), r.uvarint()
		plan.keyed(core.Hash64(dir, "") ^ uint64(src))
		s.setAppliedMark(src, dir, id)
	}
	if r.err != nil {
		return slots, fmt.Errorf("server: corrupt checkpoint image: %w", r.err)
	}
	root := core.RootRef().Key.AppendTo(nil)
	if err := s.kv.Restore(r.b, func(k []byte) {
		if !bytes.Equal(k, root) { // replay bootstraps the root uncharged
			plan.keyed(keyLane(k))
		}
	}); err != nil {
		return slots, fmt.Errorf("server: corrupt checkpoint image: %w", err)
	}
	slots.base = uint32(floor)
	return slots, nil
}

// keyLane hashes a store key as replay's records hash the key they write:
// (directory id, name) for a key of the schema's shape.
func keyLane(k []byte) uint64 {
	if len(k) >= 34 && k[33] == '/' {
		return core.Hash64(core.DirIDFromBytes(k[1:33]), string(k[34:]))
	}
	return core.Hash64(core.DirID{}, string(k))
}
