package cluster

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"switchfs/internal/client"
	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/trace"
	"switchfs/internal/wire"
)

// Tests for the coordinator mutex covering lock acquisition only: file
// renames are decided outside renameMu, so decisions overlap later
// transactions' prepares — and every directory update must still be applied
// exactly once, in the order its id was issued.

const renamePairs = 32

// renameFixture builds /hot with renamePairs files and renamePairs disjoint
// directory pairs /s<i> (one file each) and /d<i> (empty).
func renameFixture(t *testing.T, c *Cluster) {
	t.Helper()
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		must := func(err error, what string) {
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		}
		must(cl.Mkdir(p, "/hot", 0), "mkdir /hot")
		for i := 0; i < renamePairs; i++ {
			must(cl.Create(p, fmt.Sprintf("/hot/f%d", i), 0), "create in /hot")
			must(cl.Mkdir(p, fmt.Sprintf("/s%d", i), 0), "mkdir src")
			must(cl.Mkdir(p, fmt.Sprintf("/d%d", i), 0), "mkdir dst")
			must(cl.Create(p, fmt.Sprintf("/s%d/f", i), 0), "create in src")
		}
	})
}

// runRenames issues every (src, dst) rename at once, spread over the
// clients, and returns the virtual time from the first issue to the last
// return.
func runRenames(t *testing.T, s *env.Sim, c *Cluster, pairs [][2]string) env.Duration {
	t.Helper()
	start, end := s.Now(), s.Now()
	for i, pr := range pairs {
		pr, cl := pr, c.Client(i)
		s.Spawn(cl.ID(), func(p *env.Proc) {
			if err := cl.Rename(p, pr[0], pr[1]); err != nil {
				t.Errorf("rename %s -> %s: %v", pr[0], pr[1], err)
			}
			if now := p.Now(); now > end {
				end = now
			}
		})
	}
	s.Run()
	return end - start
}

func hotPairs() (out [][2]string) {
	for i := 0; i < renamePairs; i++ {
		out = append(out, [2]string{fmt.Sprintf("/hot/f%d", i), fmt.Sprintf("/hot/g%d", i)})
	}
	return out
}

func disjointPairs() (out [][2]string) {
	for i := 0; i < renamePairs; i++ {
		out = append(out, [2]string{fmt.Sprintf("/s%d/f", i), fmt.Sprintf("/d%d/f", i)})
	}
	return out
}

// wantDir checks a directory's size attribute and listing.
func wantDir(t *testing.T, p *env.Proc, cl *client.Client, dir string, names ...string) {
	t.Helper()
	attr, err := cl.StatDir(p, dir)
	if err != nil || attr.Size != int64(len(names)) {
		t.Errorf("statdir %s: size %d err %v, want %d", dir, attr.Size, err, len(names))
	}
	es, err := cl.ReadDir(p, dir)
	if err != nil {
		t.Errorf("readdir %s: %v", dir, err)
	}
	var got []string
	for _, e := range es {
		got = append(got, e.Name)
	}
	sort.Strings(got)
	sort.Strings(names)
	if fmt.Sprint(got) != fmt.Sprint(names) {
		t.Errorf("readdir %s: %v, want %v", dir, got, names)
	}
}

// TestConcurrentFileRenamesExactlyOnce runs 32 file renames inside one
// directory and 32 across disjoint directory pairs, all at once, on links
// jittered enough that prepares, votes and decisions overtake each other.
// Afterwards every directory's size and listing is exact, and every
// (Coordinator|txn-source, directory) watermark equals the highest entry id
// issued for that directory: no update was dropped as a duplicate of a
// later-issued one that overtook it. (Without the directory's inode lock held
// from prepare to decision the 5 µs case loses an update of /hot.)
func TestConcurrentFileRenamesExactlyOnce(t *testing.T) {
	for _, jitter := range []env.Duration{2 * env.Microsecond, 5 * env.Microsecond, 20 * env.Microsecond} {
		t.Run(fmt.Sprint("jitter-", jitter), func(t *testing.T) { concurrentFileRenames(t, jitter) })
	}
}

func concurrentFileRenames(t *testing.T, jitter env.Duration) {
	s, c := sim(t, Options{Servers: 8, Clients: 8, Costs: env.DefaultCosts()})
	s.Net().Jitter = jitter
	renameFixture(t, c)

	// Every directory update a transaction carries, read off the wire.
	issued := map[core.DirID]uint64{}
	refs := map[core.DirID]core.DirRef{}
	s.Net().Filter = func(from, to env.NodeID, msg any) env.Verdict {
		if pkt, ok := msg.(*wire.Packet); ok {
			if tp, ok := pkt.Body.(*wire.TxnPrepare); ok {
				for _, op := range tp.Ops {
					if op.Kind == wire.TxnDirUpdate && op.Entry.ID > issued[op.Dir.ID] {
						issued[op.Dir.ID] = op.Entry.ID
						refs[op.Dir.ID] = op.Dir
					}
				}
			}
		}
		return env.Pass
	}
	runRenames(t, s, c, append(hotPairs(), disjointPairs()...))
	s.Net().Filter = nil

	c.Run(0, func(p *env.Proc, cl *client.Client) {
		var hot []string
		for i := 0; i < renamePairs; i++ {
			hot = append(hot, fmt.Sprintf("g%d", i))
			wantDir(t, p, cl, fmt.Sprintf("/s%d", i))
			wantDir(t, p, cl, fmt.Sprintf("/d%d", i), "f")
		}
		wantDir(t, p, cl, "/hot", hot...)
	})

	if len(issued) != 1+2*renamePairs {
		t.Fatalf("transactions updated %d directories, want %d", len(issued), 1+2*renamePairs)
	}
	byID := map[env.NodeID]int{}
	for i, srv := range c.Servers {
		byID[srv.ID()] = i
	}
	for dir, id := range issued {
		owner := c.Servers[byID[c.Ring.OwnerNode(refs[dir].FP)]]
		var mark uint64
		for _, m := range owner.AppliedMarks(dir) {
			if _, isServer := byID[m.Src]; !isServer {
				mark = m.ID // the transaction pseudo-source, not a server's change-log
			}
		}
		if mark != id {
			t.Errorf("directory %s: transaction watermark %d, highest id issued %d", refs[dir].Key.Name, mark, id)
		}
	}
}

// coordRounds is what one traced rename or link did at the coordinator.
type coordRounds struct {
	client  env.NodeID // node of the trace's root span
	prepare env.Time   // prepare round start
	serial  env.Time   // end of the serialized section (wait for and hold of renameMu)
	decided env.Time   // decision round end
}

// coordinatorRounds reads the coordinator-side rounds off the spans, by
// trace: the prepare round is the txn:prepare under txn:serial, the decision
// round the txn:decision under txn:run (participants' handler spans of the
// same names hang under neither). Traces of other operations come back with
// zero rounds.
func coordinatorRounds(spans []trace.Span) map[uint64]*coordRounds {
	name := map[uint64]string{}
	for _, sp := range spans {
		name[sp.ID] = sp.Name
	}
	out := map[uint64]*coordRounds{}
	for _, sp := range spans {
		r := out[sp.Trace]
		if r == nil {
			r = &coordRounds{}
			out[sp.Trace] = r
		}
		switch {
		case sp.Parent == 0:
			r.client = sp.Node
		case sp.Name == "txn:serial":
			r.serial = sp.End
		case sp.Name == "txn:prepare" && name[sp.Parent] == "txn:serial":
			r.prepare = sp.Start
		case sp.Name == "txn:decision" && name[sp.Parent] == "txn:run":
			r.decided = sp.End
		}
	}
	return out
}

// TestDisjointRenamesOverlapDecisions pins what the split buys. The
// makespan of 32 file renames across disjoint directory pairs is
// deterministic under Sim: with the coordinator mutex held through the
// decision round it reads 463.3 µs (measured on the parent commit with this
// test), with the mutex covering the prepare round only 213.2 µs (0.46 ×);
// the budget is that plus 10 %, under 0.6 × the parent's. And the trace shows the
// mechanism: a transaction's prepare round starts while its predecessor's
// decision round is still running.
func TestDisjointRenamesOverlapDecisions(t *testing.T) {
	rec := trace.New(trace.Config{Keep: 4 * renamePairs})
	s, c := sim(t, Options{Servers: 8, Clients: 8, Costs: env.DefaultCosts(), Trace: rec})
	renameFixture(t, c)
	took := runRenames(t, s, c, disjointPairs())
	t.Logf("makespan of %d disjoint file renames: %v", renamePairs, took)
	const budget = 235 * env.Microsecond
	if took > budget {
		t.Errorf("makespan %v, budget %v", took, budget)
	}

	var txns []coordRounds
	for _, r := range coordinatorRounds(assertWellShaped(t, rec)) {
		if r.prepare != 0 && r.decided != 0 {
			txns = append(txns, *r)
		}
	}
	if len(txns) != renamePairs {
		t.Fatalf("%d rename traces carry both rounds, want %d", len(txns), renamePairs)
	}
	sort.Slice(txns, func(i, j int) bool { return txns[i].prepare < txns[j].prepare })
	overlaps := 0
	for i := 1; i < len(txns); i++ {
		if txns[i].prepare < txns[i-1].decided {
			overlaps++
		}
	}
	if overlaps == 0 {
		t.Error("no transaction's prepare round started before its predecessor's decision round ended")
	}
}

// TestStatDirAggregatesOneBatch: eight servers each hold 32 pending entries
// of one directory; the statdir that aggregates them writes them as ONE
// group commit — one wal:entries span, where applying source by source
// recorded eight — inside a pinned virtual-time budget (deterministic under
// Sim: 49.5 µs here, 105.4 µs on the parent commit; the budget is +10 %).
func TestStatDirAggregatesOneBatch(t *testing.T) {
	// No proactive push: the entries stay where they were logged.
	_, c, rec := traceSim(t, Options{Servers: 8, Clients: 1, Costs: env.DefaultCosts(),
		PushEntries: 1 << 20, PushIdle: env.Second}, 1024)
	hot := NewPreload(c).Dir("/hot")
	const perServer = 32
	var took env.Duration
	c.RunNoDrain(0, func(p *env.Proc, cl *client.Client) {
		// Files are logged by their own inode's owner: pick names until every
		// server holds its share.
		held := make([]int, len(c.Servers))
		for i, left := 0, perServer*len(c.Servers); left > 0; i++ {
			name := fmt.Sprintf("f%d", i)
			owner := c.Ring.OwnerOfFile(hot.ID, name)
			if held[owner] == perServer {
				continue
			}
			if err := cl.Create(p, "/hot/"+name, 0); err != nil {
				t.Errorf("create %s: %v", name, err)
				return
			}
			held[owner]++
			left--
		}
		for i, srv := range c.Servers {
			if got := srv.PendingClogEntries(); got != perServer {
				t.Errorf("server %d holds %d pending entries, want %d", i, got, perServer)
			}
		}
		t0 := p.Now()
		attr, err := cl.StatDir(p, "/hot")
		took = p.Now() - t0
		if err != nil || attr.Size != int64(perServer*len(c.Servers)) {
			t.Errorf("statdir: size %d err %v, want %d", attr.Size, err, perServer*len(c.Servers))
		}
	})
	t.Logf("statdir aggregating 8 × %d entries: %v", perServer, took)
	const budget = 55 * env.Microsecond
	if took > budget {
		t.Errorf("statdir took %v, budget %v", took, budget)
	}
	var statdir uint64
	spans := rec.Spans()
	for _, sp := range spans {
		if sp.Parent == 0 && sp.Name == "op:statdir" {
			statdir = sp.Trace
		}
	}
	if statdir == 0 {
		t.Fatal("no kept trace rooted at op:statdir")
	}
	groupCommits := 0
	for _, sp := range spans {
		if sp.Trace == statdir && sp.Name == "wal:entries" {
			groupCommits++
		}
	}
	if groupCommits != 1 {
		t.Errorf("the aggregation recorded %d wal:entries spans, want 1", groupCommits)
	}
}

// TestConcurrentLinksCountEveryReference links one file four times at once.
// The first link splits the file into a reference and a shared attribute
// object; the coordinator builds each link's operations from a copy of the
// source inode it read earlier, and a link that has released the coordinator
// mutex is still undecided, so the next one may have read the file as not yet
// split. The source's check at prepare — the inode is still what the
// coordinator read — turns that into a retry instead of a lost count.
func TestConcurrentLinksCountEveryReference(t *testing.T) {
	const links = 4
	s, c := sim(t, Options{Servers: 8, Clients: links, Costs: env.DefaultCosts()})
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		if err := cl.Create(p, "/orig", 0); err != nil {
			t.Fatalf("create: %v", err)
		}
	})
	for i := 0; i < links; i++ {
		cl, dst := c.Client(i), fmt.Sprintf("/link%d", i)
		s.Spawn(cl.ID(), func(p *env.Proc) {
			if err := cl.Link(p, "/orig", dst); err != nil {
				t.Errorf("link %s: %v", dst, err)
			}
		})
	}
	s.Run()
	var nlinks []uint32
	for _, srv := range c.Servers {
		srv.KV().Scan(nil, func(k, v []byte) bool {
			if key, err := core.DecodeKey(k); err == nil && key.Name == "#attr" {
				if in, err := core.DecodeInode(v); err == nil {
					nlinks = append(nlinks, in.Nlink)
				}
			}
			return true
		})
	}
	if len(nlinks) != 1 || nlinks[0] != links+1 {
		t.Fatalf("attribute objects carry link counts %v, want one object counting %d", nlinks, links+1)
	}
}

// TestDirectoryRenameSeesEarlierFileRenames renames files inside /hot while
// /hot itself is renamed. A directory rename reads the directory's inode and
// entry list in its serialized section and moves what it read, so it must
// not start reading while an earlier file rename — out of the coordinator
// mutex but undecided — still has its update of that entry list to apply:
// whichever file renames succeeded, the moved directory lists their new
// names, and every listed name is a file.
func TestDirectoryRenameSeesEarlierFileRenames(t *testing.T) {
	for _, delay := range []env.Duration{20 * env.Microsecond, 40 * env.Microsecond, 80 * env.Microsecond} {
		t.Run(fmt.Sprint("after-", delay), func(t *testing.T) {
			s, c := sim(t, Options{Servers: 8, Clients: 8, Costs: env.DefaultCosts(),
				RetryTimeout: 200 * env.Microsecond})
			renameFixture(t, c)
			// Every decision loses its first transmission: a transaction stays
			// undecided at its participants for a retry timeout after it left
			// the coordinator mutex.
			decided := map[uint64]bool{}
			s.Net().Filter = func(from, to env.NodeID, msg any) env.Verdict {
				if pkt, ok := msg.(*wire.Packet); ok {
					if td, ok := pkt.Body.(*wire.TxnDecision); ok && !decided[td.Txn] {
						decided[td.Txn] = true
						return env.Drop
					}
				}
				return env.Pass
			}
			dirClient := c.Client(7)
			s.Spawn(dirClient.ID(), func(p *env.Proc) {
				p.Sleep(delay) // land among the file renames
				if err := dirClient.Rename(p, "/hot", "/moved"); err != nil {
					t.Errorf("rename /hot -> /moved: %v", err)
				}
			})
			var want []string
			renamed := 0
			for i, pr := range hotPairs() {
				i, pr, cl := i, pr, c.Client(i%7)
				s.Spawn(cl.ID(), func(p *env.Proc) {
					// A rename that finds /hot gone fails; one that was served
					// moved its file.
					switch err := cl.Rename(p, pr[0], pr[1]); {
					case err == nil:
						want = append(want, fmt.Sprintf("g%d", i))
						renamed++
					case errors.Is(err, core.ErrNotExist):
						want = append(want, fmt.Sprintf("f%d", i))
					default:
						t.Errorf("rename %s -> %s: %v", pr[0], pr[1], err)
					}
				})
			}
			s.Run()
			if renamed == 0 {
				t.Fatal("no file rename was served")
			}
			c.Run(0, func(p *env.Proc, cl *client.Client) {
				wantDir(t, p, cl, "/moved", want...)
				for _, name := range want {
					if _, err := cl.Stat(p, "/moved/"+name); err != nil {
						t.Errorf("stat /moved/%s: %v", name, err)
					}
				}
			})
		})
	}
}
