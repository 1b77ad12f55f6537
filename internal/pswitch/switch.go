package pswitch

import (
	"switchfs/internal/env"
	"switchfs/internal/trace"
	"switchfs/internal/wire"
)

// Config parameterizes a switch instance.
type Config struct {
	// IndexBits sets each stage's register count (§6.3); the stage count
	// is the paper's DefaultStages.
	IndexBits uint
	// PipeDelay is the pipeline traversal time for packets carrying a
	// dirty-set operation.
	PipeDelay env.Duration
	// Servers is the multicast domain: every metadata server's address.
	Servers []env.NodeID
	// Trace records pipeline-traversal spans (nil: tracing off).
	Trace *trace.Recorder
}

// Stats counts data-plane activity.
type Stats struct {
	Queries   uint64
	Inserts   uint64
	Overflows uint64
	Removes   uint64
	StaleRem  uint64
	Forwarded uint64
}

// Switch is the programmable-switch model: it parses dirty-set headers,
// executes the register operations, and routes/multicasts/rewrites packets
// (Fig. 8). Attach its Handler to an env node.
type Switch struct {
	ID    env.NodeID
	cfg   Config
	ds    *DirtySet
	Stats Stats
	// extraDelay is added to every dirty-set pipeline traversal — the gray
	// failure of a congested or degraded switch pipe (fault injection).
	extraDelay env.Duration
	// dirtyAll makes every query answer dirty: a rebooted switch's empty
	// registers cannot vouch for the entries a server that was down at its
	// recovery still holds, until that server has re-delivered them.
	dirtyAll bool
}

// New builds a switch. It holds one dirty set; a deployment that spreads
// fingerprints over several range-partitions them over switches (§6.4).
func New(id env.NodeID, cfg Config) *Switch {
	return &Switch{ID: id, cfg: cfg, ds: NewDirtySet(DefaultStages, cfg.IndexBits)}
}

// SetServers replaces the multicast domain (cluster reconfiguration; the
// control plane updates the multicast group, no data-plane change — §5.5).
func (s *Switch) SetServers(ids []env.NodeID) {
	s.cfg.Servers = append([]env.NodeID(nil), ids...)
}

// SetExtraDelay adds d to every dirty-set pipeline traversal (gray failure:
// a slowed pipe). Zero restores nominal speed.
func (s *Switch) SetExtraDelay(d env.Duration) { s.extraDelay = d }

// ForceOverflow makes every insert fail (§7.3.2).
func (s *Switch) ForceOverflow(v bool) { s.ds.ForceOverflow = v }

// Reset clears all dirty-set state (switch reboot, §5.4.2).
func (s *Switch) Reset() { s.ds.Reset() }

// SetDirtyAll makes every query answer dirty (v) or the registers answer
// again (!v) — the control plane's hold after a reboot that could not flush
// every server's change-logs.
func (s *Switch) SetDirtyAll(v bool) { s.dirtyAll = v }

// Occupied returns the number of live fingerprints.
func (s *Switch) Occupied() int { return s.ds.Occupied() }

// HeldSets returns how many dirty-set sets have register storage now, and
// the most that ever had at once (DirtySet.HeldSets).
func (s *Switch) HeldSets() (held, max int) { return s.ds.HeldSets() }

// Handler processes one packet; register it as the switch node's env
// handler. The pipeline delay models the ASIC traversal; the switch never
// queues (line rate, §2.2) — that is precisely its advantage over the
// dedicated-server tracker of §7.3.3.
func (s *Switch) Handler(p *env.Proc, from env.NodeID, msg any) {
	pkt, ok := msg.(*wire.Packet)
	if !ok {
		return // not a SwitchFS packet; a real switch would L2-forward it
	}
	if pkt.DS == nil || pkt.DS.Op == wire.DSNone {
		// Regular packet: route by destination MAC. The packet may be
		// retransmitted by its sender, so it is forwarded untouched — no
		// span context is grafted on.
		s.Stats.Forwarded++
		p.Send(pkt.Dst, pkt)
		return
	}
	sp := s.cfg.Trace.StartSpan(p, pkt.Trace, dsSpanName(pkt.DS.Op), "switch")
	defer sp.End()
	p.Sleep(s.cfg.PipeDelay + s.extraDelay)
	ds := s.ds
	switch pkt.DS.Op {
	case wire.DSQuery:
		s.Stats.Queries++
		ret := s.dirtyAll || ds.Query(pkt.DS.FP)
		// Forward a copy: the RET field is written into the packet, and the
		// original may be retransmitted by its sender. Packet and header
		// are carved from one allocation — this runs once per directory
		// read on the hot path.
		out, hdr := wire.Carve[wire.DSHeader]()
		*out, *hdr = *pkt, *pkt.DS
		hdr.Ret = ret
		out.DS = hdr
		out.Trace = sp.Ctx()
		p.Send(pkt.Dst, out)

	case wire.DSInsert:
		s.Stats.Inserts++
		cn, _ := pkt.Body.(*wire.CommitNotice)
		if ds.Insert(pkt.DS.FP) {
			// Success: multicast completion to the client and unlock signal
			// to the origin server (Fig. 4, 7a/7b).
			if cn != nil {
				p.Send(cn.Client, &wire.Packet{Dst: cn.Client, Origin: s.ID,
					Trace: sp.Ctx(), Body: cn.Resp})
				ack, body := wire.NewPacket[wire.CommitAck](pkt.Origin, s.ID)
				ack.Trace, body.CommitID = sp.Ctx(), cn.CommitID
				p.Send(pkt.Origin, ack)
			}
			return
		}
		// Overflow: the address rewriter sends the packet to the alternative
		// destination — the parent directory's owner — for synchronous
		// fallback (§6.2 "Address rewriter").
		s.Stats.Overflows++
		out := *pkt
		out.Dst = pkt.DS.AltDst
		out.Trace = sp.Ctx()
		p.Send(out.Dst, &out)

	case wire.DSRemove:
		s.Stats.Removes++
		if !ds.Remove(pkt.DS.FP, pkt.Origin, pkt.DS.Seq) {
			s.Stats.StaleRem++ // rejected by the sequence guard
		}
		// Multicast the aggregation fetch to every other metadata server
		// (§5.2.2 step 5). Stale removes still multicast: the owner is
		// waiting for replies, and re-fetching is idempotent.
		for _, srv := range s.cfg.Servers {
			if srv == pkt.Origin {
				continue
			}
			p.Send(srv, &wire.Packet{Dst: srv, Origin: pkt.Origin,
				Trace: sp.Ctx(), Body: pkt.Body})
		}
	}
}

// dsSpanName names the pipeline span for a dirty-set opcode.
func dsSpanName(op wire.DSOp) string {
	switch op {
	case wire.DSQuery:
		return "ds:query"
	case wire.DSInsert:
		return "ds:insert"
	case wire.DSRemove:
		return "ds:remove"
	}
	return "ds:other"
}
