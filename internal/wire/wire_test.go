package wire

import (
	"testing"
	"unsafe"

	"switchfs/internal/core"
)

// inside reports whether p points into the size bytes starting at base.
func inside(p, base unsafe.Pointer, size uintptr) bool {
	return uintptr(p) >= uintptr(base) && uintptr(p) < uintptr(base)+size
}

// TestNewPacketCarvesOneAllocation: the packet and its body are one heap
// object — the body lies inside the carved block, right behind the packet,
// and building both costs exactly one allocation — with Dst, Origin and Body
// set and everything else zero.
func TestNewPacketCarvesOneAllocation(t *testing.T) {
	pkt, req := NewPacket[FileReq](7, 9)
	if pkt.Dst != 7 || pkt.Origin != 9 || pkt.DS != nil || pkt.Trace.Valid() {
		t.Fatalf("packet header %+v", *pkt)
	}
	if body, ok := pkt.Body.(*FileReq); !ok || body != req {
		t.Fatalf("Body is %T %p, want the returned *FileReq %p", pkt.Body, pkt.Body, req)
	}
	if req.RPC != 0 || req.Name != "" || req.Ancestors != nil {
		t.Fatalf("body not zero: %+v", *req)
	}
	block := unsafe.Sizeof(carved[FileReq]{})
	if !inside(unsafe.Pointer(req), unsafe.Pointer(pkt), block) {
		t.Fatalf("body %p lies outside the packet's %d-byte block at %p", req, block, pkt)
	}

	var keepP *Packet
	var keepB *FileResp
	if got := testing.AllocsPerRun(100, func() { keepP, keepB = NewPacket[FileResp](1, 2) }); got != 1 {
		t.Errorf("NewPacket: %v allocs, want 1", got)
	}
	var keepH *DSHeader
	if got := testing.AllocsPerRun(100, func() { keepP, keepH = Carve[DSHeader]() }); got != 1 {
		t.Errorf("Carve: %v allocs, want 1", got)
	}
	_, _, _ = keepP, keepB, keepH
}

// TestNewPacketNeverSharesMemory: packets are not pooled — a sent packet is
// aliased by retransmission, duplication and the dedup cache — so every call
// returns a block of its own, and filling a later packet never shows through
// an earlier one.
func TestNewPacketNeverSharesMemory(t *testing.T) {
	type pair struct {
		pkt  *Packet
		body *MutateResp
	}
	var sent []pair
	seen := map[*Packet]bool{}
	for i := 0; i < 1000; i++ {
		pkt, body := NewPacket[MutateResp](1, 2)
		body.RPC, body.Dir = uint64(i), core.DirID{uint64(i)}
		if seen[pkt] {
			t.Fatalf("call %d returned a packet handed out before: %p", i, pkt)
		}
		seen[pkt] = true
		sent = append(sent, pair{pkt, body})
	}
	for i, s := range sent {
		if s.body.RPC != uint64(i) || s.body.Dir != (core.DirID{uint64(i)}) || s.pkt.Body.(*MutateResp) != s.body {
			t.Fatalf("packet %d was overwritten: %+v", i, *s.body)
		}
	}
}
