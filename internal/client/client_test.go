package client

import (
	"errors"
	"maps"
	"slices"
	"testing"

	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/ring"
	"switchfs/internal/wire"
)

// mkClient builds a bare client with a seeded cache (no environment needed:
// invalidation is pure map surgery).
func mkClient(paths ...string) *Client {
	c := &Client{cache: make(map[string]cachedDir)}
	for i, p := range paths {
		c.cache[p] = cachedDir{ref: core.DirRef{ID: core.DirID{0, 0, 0, uint64(i + 1)}}}
	}
	return c
}

// cachedPaths lists the client's cached paths, sorted.
func cachedPaths(c *Client) []string {
	return slices.Sorted(maps.Keys(c.cache))
}

// TestInvalidatePrefixComponentWise: invalidating /a must drop /a and its
// descendants but NOT the sibling /ab — the old raw string-prefix match
// erased unrelated entries sharing a name prefix.
func TestInvalidatePrefixComponentWise(t *testing.T) {
	c := mkClient("/a", "/a/x", "/a/x/y", "/ab", "/ab/z", "/b")
	c.invalidatePrefix("/a")
	for _, gone := range []string{"/a", "/a/x", "/a/x/y"} {
		if _, ok := c.cache[gone]; ok {
			t.Errorf("%s survived invalidatePrefix(/a)", gone)
		}
	}
	for _, kept := range []string{"/ab", "/ab/z", "/b"} {
		if _, ok := c.cache[kept]; !ok {
			t.Errorf("%s was dropped by invalidatePrefix(/a) — raw prefix match", kept)
		}
	}
}

// TestInvalidatePrefixRoot: "/" (the stale-cache full flush) clears
// everything.
func TestInvalidatePrefixRoot(t *testing.T) {
	c := mkClient("/a", "/ab", "/b/c")
	c.invalidatePrefix("/")
	if len(c.cache) != 0 {
		t.Errorf("%d cache entries survived a root invalidation", len(c.cache))
	}
}

// TestInvalidateByIDDropsEveryAlias: an invalidation record drops every path
// cached for its directory — a directory cached under two paths, as after a
// rename another client made, loses both — and nothing else, whichever
// paths an earlier prefix invalidation left.
func TestInvalidateByIDDropsEveryAlias(t *testing.T) {
	c := mkClient("/a/x", "/b", "/c")
	ref := c.cache["/a/x"].ref
	c.cache["/keep/x"] = cachedDir{ref: ref}
	c.cache["/moved/x"] = cachedDir{ref: ref}

	c.invalidatePrefix("/a")
	if got, want := cachedPaths(c), []string{"/b", "/c", "/keep/x", "/moved/x"}; !slices.Equal(got, want) {
		t.Fatalf("after invalidatePrefix(/a): cached %v, want %v", got, want)
	}
	c.applyInval(fakeServerID, &wire.RespCommon{})
	if got := len(c.cache); got != 4 {
		t.Fatalf("a response without records dropped %d entries", 4-got)
	}
	bID := c.cache["/b"].ref.ID
	c.applyInval(fakeServerID, &wire.RespCommon{Inval: []wire.InvalEntry{{Seq: 1, Dir: ref.ID}, {Seq: 2, Dir: bID}}, InvalSeqHigh: 2})
	if got, want := cachedPaths(c), []string{"/c"}; !slices.Equal(got, want) {
		t.Fatalf("after invalidating /keep/x's and /b's ids: cached %v, want %v", got, want)
	}
}

// TestInvalidateByIDAfterRename: a directory renamed by another client stays
// cached here under its old path and, once resolved again, under its new one.
// Its invalidation record drops both paths, keeps the parent, and the next
// walk of either path looks the directory up again.
func TestInvalidateByIDAfterRename(t *testing.T) {
	idA, idB := core.DirID{0, 0, 0, 10}, core.DirID{0, 0, 0, 20}
	f := &fakeServer{ids: map[core.Key]core.DirID{
		{PID: core.RootDirID, Name: "a"}: idA,
		{PID: idA, Name: "b"}:            idB,
	}}
	withFakeServer(t, f, func(p *env.Proc, c *Client) {
		if _, err := c.Stat(p, "/a/b/x"); err != nil {
			t.Fatalf("stat: %v", err)
		}
		// Another client renames /a/b to /a/c.
		delete(f.ids, core.Key{PID: idA, Name: "b"})
		f.ids[core.Key{PID: idA, Name: "c"}] = idB
		if _, err := c.Stat(p, "/a/c/x"); err != nil {
			t.Fatalf("stat: %v", err)
		}
		if got, want := cachedPaths(c), []string{"/a", "/a/b", "/a/c"}; !slices.Equal(got, want) {
			t.Fatalf("cached %v, want %v", got, want)
		}
		c.applyInval(fakeServerID, &wire.RespCommon{Inval: []wire.InvalEntry{{Seq: 1, Dir: idB}}, InvalSeqHigh: 1})
		if got, want := cachedPaths(c), []string{"/a"}; !slices.Equal(got, want) {
			t.Fatalf("after invalidating the renamed directory: cached %v, want %v", got, want)
		}
		lookups := f.lookups
		if _, err := c.Stat(p, "/a/b/x"); !errors.Is(err, core.ErrNotExist) {
			t.Fatalf("stat of the old path: %v, want ENOENT", err)
		}
		if _, err := c.Stat(p, "/a/c/x"); err != nil {
			t.Fatalf("stat of the new path: %v", err)
		}
		if n := f.lookups - lookups; n != 2 {
			t.Fatalf("%d lookups for the old and new paths, want 2 (one each)", n)
		}
	})
}

// TestUnderPath pins the component-matching rule.
func TestUnderPath(t *testing.T) {
	cases := []struct {
		path, prefix string
		want         bool
	}{
		{"/a", "/a", true},
		{"/a/b", "/a", true},
		{"/ab", "/a", false},
		{"/ab/c", "/a", false},
		{"/a", "/a/", true},
		{"/a/b", "/", true},
		{"/a", "/a/b", false},
	}
	for _, cse := range cases {
		if got := underPath(cse.path, cse.prefix); got != cse.want {
			t.Errorf("underPath(%q, %q)=%v, want %v", cse.path, cse.prefix, got, cse.want)
		}
	}
}

// fakeServer answers lookups from a table and file/rename requests with
// success, recording every request's Ancestors: enough of a metadata server
// to drive resolve end to end on a Sim without importing one. The first
// staleRenames RenameReqs are refused with ErrnoStaleCache, as a coordinator
// refuses a request resolved through a directory renamed since. A FileReq
// for the name silent goes unanswered.
type fakeServer struct {
	ids          map[core.Key]core.DirID
	ancestors    [][]core.DirID // of each FileReq, in arrival order
	files        []wire.FileReq // in arrival order
	silent       string
	lookups      int
	staleRenames int
	renames      []wire.RenameReq // in arrival order
}

const (
	fakeServerID env.NodeID = 100
	testClientID env.NodeID = 200
)

func (f *fakeServer) handle(p *env.Proc, from env.NodeID, msg any) {
	pkt := msg.(*wire.Packet)
	var out *wire.Packet
	switch b := pkt.Body.(type) {
	case *wire.LookupReq:
		f.lookups++
		o, resp := wire.NewPacket[wire.LookupResp](from, fakeServerID)
		resp.RPC = b.RPC
		if id, ok := f.ids[core.Key{PID: b.Parent, Name: b.Name}]; ok {
			resp.Dir = id
		} else {
			resp.Err = core.ErrnoNotExist
		}
		out = o
	case *wire.FileReq:
		f.ancestors = append(f.ancestors, b.Ancestors)
		f.files = append(f.files, *b)
		if b.Name == f.silent {
			return
		}
		o, resp := wire.NewPacket[wire.FileResp](from, fakeServerID)
		resp.RPC = b.RPC
		out = o
	case *wire.RenameReq:
		f.renames = append(f.renames, *b)
		o, resp := wire.NewPacket[wire.RenameResp](from, fakeServerID)
		resp.RPC = b.RPC
		if f.staleRenames > 0 {
			f.staleRenames--
			resp.Err = core.ErrnoStaleCache
		}
		out = o
	}
	p.Send(from, out)
}

// withFakeServer runs fn on a client process of a two-node Sim.
func withFakeServer(t *testing.T, f *fakeServer, fn func(p *env.Proc, c *Client)) {
	t.Helper()
	sim := env.NewSim(1)
	defer sim.Shutdown()
	sim.AddNode(fakeServerID, env.NodeConfig{Handler: f.handle})
	c := New(sim, Config{
		ID:          testClientID,
		Ring:        ring.New([]uint32{0}, 0, func(uint32) env.NodeID { return fakeServerID }),
		Coordinator: fakeServerID,
		Costs:       env.DefaultCosts(),
	})
	ran := false
	sim.Spawn(testClientID, func(p *env.Proc) { fn(p, c); ran = true })
	sim.Run()
	if !ran {
		t.Fatal("client process did not finish")
	}
}

// TestAckedTrailsTheOldestCallInFlight: every request carries the client's
// acknowledgement, the lowest RPC id still in flight on any of its processes.
// Two processes share the client and the server stays silent to one call:
// the other process's requests acknowledge nothing from that call's id on,
// and once the call times out the acknowledgement moves past it.
func TestAckedTrailsTheOldestCallInFlight(t *testing.T) {
	f := &fakeServer{silent: "stuck"}
	withFakeServer(t, f, func(p *env.Proc, c *Client) {
		gaveUp := false
		p.Spawn(func(q *env.Proc) {
			if _, err := c.Stat(q, "/stuck"); !errors.Is(err, core.ErrTimeout) {
				t.Errorf("the unanswered stat returned %v, want a timeout", err)
			}
			gaveUp = true
		})
		p.Sleep(env.Microsecond) // the silent call goes first
		for i := 0; i < 3; i++ {
			if _, err := c.Stat(p, "/f"); err != nil {
				t.Fatalf("stat: %v", err)
			}
		}
		for !gaveUp {
			p.Sleep(c.cfg.RetryTimeout)
		}
		if _, err := c.Stat(p, "/f"); err != nil {
			t.Fatalf("stat: %v", err)
		}
	})
	var stuck uint64
	var acks []uint64 // of the answered stats, in order
	for _, r := range f.files {
		if r.Name == "stuck" {
			stuck = r.RPC
		} else {
			acks = append(acks, r.Acked)
		}
	}
	if want := []uint64{stuck, stuck, stuck}; len(acks) != 4 || !slices.Equal(acks[:3], want) {
		t.Fatalf("the stats while call %d was in flight acknowledged %v, want %v", stuck, acks, want)
	}
	if acks[3] <= stuck {
		t.Errorf("the stat after call %d gave up acknowledged %d, want past it", stuck, acks[3])
	}
}

// TestResentIsPerCall: two processes share one client, and only one of them
// loses a try. The other's chmod, in flight while the first one's try times
// out, was answered on its first try, so it reports resent=false: a caller
// that takes EEXIST or ENOENT for its own earlier effect only when resent is
// set must not take it on another process's loss.
func TestResentIsPerCall(t *testing.T) {
	sim := env.NewSim(1)
	defer sim.Shutdown()
	var lost uint64 // the lost try's request id
	sim.AddNode(fakeServerID, env.NodeConfig{Handler: func(p *env.Proc, from env.NodeID, msg any) {
		switch b := msg.(*wire.Packet).Body.(type) {
		case *wire.LookupReq:
			o, r := wire.NewPacket[wire.LookupResp](from, fakeServerID)
			r.RPC, r.Dir = b.RPC, core.DirID{0, 0, 1, 1}
			p.Send(from, o)
		case *wire.FileReq:
			switch {
			case b.Name == "lost" && lost == 0:
				lost = b.RPC
				return
			case b.Name == "slow": // answered after the lost try timed out
				p.Sleep(3 * env.Millisecond / 2)
			}
			o, r := wire.NewPacket[wire.FileResp](from, fakeServerID)
			r.RPC = b.RPC
			p.Send(from, o)
		}
	}})
	c := stubClient(sim)
	resent := map[string]bool{}
	for _, name := range []string{"lost", "slow"} {
		sim.Spawn(testClientID, func(p *env.Proc) {
			if name == "slow" {
				p.Sleep(c.cfg.RetryTimeout / 2)
			}
			re, err := c.ChmodR(p, "/d/"+name, 0o600)
			if err != nil {
				t.Errorf("chmod %s: %v", name, err)
			}
			resent[name] = re
		})
	}
	sim.Run()
	if c.Retries != 1 || !resent["lost"] || resent["slow"] {
		t.Errorf("%d retries, resent %v; want 1, the lost call's only", c.Retries, resent)
	}
}

// sameArray reports whether two chains share a backing array.
func sameArray(a, b []core.DirID) bool { return &a[0] == &b[0] }

// TestAncestorChainsAreImmutable: a request's Ancestors is the cached chain
// itself, shared by every request resolved through the same entry, so no
// invalidation may touch it — a chain captured from a sent request stays
// what it was through applyInval, a full flush and a rename, and every
// re-resolution publishes a chain in a new backing array.
func TestAncestorChainsAreImmutable(t *testing.T) {
	idA, idA2 := core.DirID{0, 0, 0, 10}, core.DirID{0, 0, 0, 11}
	idB, idB2 := core.DirID{0, 0, 0, 20}, core.DirID{0, 0, 0, 21}
	f := &fakeServer{ids: map[core.Key]core.DirID{
		{PID: core.RootDirID, Name: "a"}: idA,
		{PID: idA, Name: "b"}:            idB,
		{PID: idA2, Name: "b"}:           idB2,
	}}
	withFakeServer(t, f, func(p *env.Proc, c *Client) {
		type held struct{ chain, want []core.DirID }
		var captured []held
		stat := func(want ...core.DirID) []core.DirID {
			t.Helper()
			if _, err := c.Stat(p, "/a/b/f"); err != nil {
				t.Fatalf("stat: %v", err)
			}
			got := f.ancestors[len(f.ancestors)-1]
			if !slices.Equal(got, want) {
				t.Fatalf("request carries ancestors %v, want %v", got, want)
			}
			if cap(got) != len(got) {
				t.Fatalf("published chain has spare capacity (%d > %d): a later append would write into it", cap(got), len(got))
			}
			for _, h := range captured {
				if !slices.Equal(h.chain, h.want) {
					t.Fatalf("a captured chain changed: %v, was %v", h.chain, h.want)
				}
			}
			captured = append(captured, held{got, slices.Clone(got)})
			return got
		}
		first := stat(core.RootDirID, idA, idB)
		if again := stat(core.RootDirID, idA, idB); !sameArray(again, first) {
			t.Fatal("a fully cached resolve did not reuse the published chain")
		}
		if f.lookups != 2 {
			t.Fatalf("%d lookups for two stats of one path, want 2", f.lookups)
		}

		// Lazy invalidation by id drops /a/b only; /a stays cached.
		c.applyInval(fakeServerID, &wire.RespCommon{Inval: []wire.InvalEntry{{Seq: 1, Dir: idB}}, InvalSeqHigh: 1})
		second := stat(core.RootDirID, idA, idB)
		if sameArray(second, first) {
			t.Fatal("re-resolution after applyInval reused the invalidated chain's array")
		}
		if f.lookups != 3 {
			t.Fatalf("%d lookups, want 3 (only /a/b was dropped)", f.lookups)
		}

		// The stale-cache full flush.
		c.invalidatePrefix("/")
		third := stat(core.RootDirID, idA, idB)
		if sameArray(third, first) || sameArray(third, second) {
			t.Fatal("re-resolution after a full flush reused an old chain's array")
		}

		// A rename of /a/b away, and a different directory created in its place.
		if err := c.Rename(p, "/a/b", "/a/c"); err != nil {
			t.Fatalf("rename: %v", err)
		}
		f.ids[core.Key{PID: idA, Name: "b"}] = idB2
		fourth := stat(core.RootDirID, idA, idB2)
		if sameArray(fourth, third) {
			t.Fatal("re-resolution after a rename reused the old chain's array")
		}

		// An ancestor invalidated by id and re-resolved to another directory:
		// /a/b is still cached, but its chain names the old /a. The request
		// must carry what this walk resolved, in a new array.
		f.ids[core.Key{PID: core.RootDirID, Name: "a"}] = idA2
		c.applyInval(fakeServerID, &wire.RespCommon{Inval: []wire.InvalEntry{{Seq: 2, Dir: idA}}, InvalSeqHigh: 2})
		hits := c.CacheHits
		fifth := stat(core.RootDirID, idA2, idB2)
		if sameArray(fifth, fourth) {
			t.Fatal("a hit under a re-resolved ancestor reused the stale chain's array")
		}
		if c.CacheHits != hits+1 {
			t.Fatalf("CacheHits moved by %d, want 1 (/a missed, /a/b hit)", c.CacheHits-hits)
		}
		if again := stat(core.RootDirID, idA2, idB2); !sameArray(again, fifth) {
			t.Fatal("the republished chain was not reused by the next resolve")
		}
	})
}

// TestStaleRenameReResolvesSource: a rename refused as stale must be resent
// with both paths resolved anew. The source's parent /b is cached under its
// old id when the rename is sent; the coordinator refuses it, and the retry
// must carry the id /b has now — resending the source resolution captured
// before the refusal lets the rename act on whatever the old id still names.
func TestStaleRenameReResolvesSource(t *testing.T) {
	idA, idB, idB2 := core.DirID{0, 0, 0, 10}, core.DirID{0, 0, 0, 20}, core.DirID{0, 0, 0, 21}
	f := &fakeServer{ids: map[core.Key]core.DirID{
		{PID: core.RootDirID, Name: "a"}: idA,
		{PID: core.RootDirID, Name: "b"}: idB,
	}}
	withFakeServer(t, f, func(p *env.Proc, c *Client) {
		if _, err := c.Stat(p, "/b/x"); err != nil {
			t.Fatalf("stat: %v", err)
		}
		// /b is now another directory; the client's cache still says idB.
		f.ids[core.Key{PID: core.RootDirID, Name: "b"}] = idB2
		f.staleRenames = 1
		if err := c.Rename(p, "/b/x", "/a/y"); err != nil {
			t.Fatalf("rename: %v", err)
		}
		if len(f.renames) != 2 {
			t.Fatalf("%d rename requests, want 2 (one refused, one retried)", len(f.renames))
		}
		if got := f.renames[0].SrcParent.ID; got != idB {
			t.Fatalf("first request's source parent %v, want the cached %v", got, idB)
		}
		retry := f.renames[1]
		if retry.SrcParent.ID != idB2 || retry.DstParent.ID != idA {
			t.Errorf("retried request's parents src %v dst %v, want %v and %v (both re-resolved)",
				retry.SrcParent.ID, retry.DstParent.ID, idB2, idA)
		}
	})
}

// TestResolveCachedAllocatesNothing is the tier-1 budget behind
// BenchmarkResolveCached: a fully cached resolve — canonical check, index
// walk, one CacheLookup compute and map probe per directory — returns the
// parent's published chain without allocating, at depth 1 and depth 4.
func TestResolveCachedAllocatesNothing(t *testing.T) {
	f := &fakeServer{ids: map[core.Key]core.DirID{}}
	parent := core.RootDirID
	for i, name := range []string{"d1", "d2", "d3", "d4"} {
		id := core.DirID{0, 0, 1, uint64(i + 1)}
		f.ids[core.Key{PID: parent, Name: name}] = id
		parent = id
	}
	withFakeServer(t, f, func(p *env.Proc, c *Client) {
		for _, path := range []string{"/d1/file-000123", "/d1/d2/d3/d4/file-000123"} {
			if _, err := c.resolve(p, path); err != nil { // warm the cache
				t.Fatal(err)
			}
			hits, lookups := c.CacheHits, c.Lookups
			allocs := testing.AllocsPerRun(200, func() {
				if r, err := c.resolve(p, path); err != nil || r.name != "file-000123" {
					t.Fatalf("resolve(%q) = %+v, %v", path, r, err)
				}
			})
			if allocs != 0 {
				t.Errorf("cached resolve of %q: %v allocs/op, want 0", path, allocs)
			}
			if c.Lookups != lookups || c.CacheHits == hits {
				t.Errorf("cached resolve of %q: %d lookups, %d hits", path, c.Lookups-lookups, c.CacheHits-hits)
			}
		}
	})
}

// stubServer registers a metadata node that answers lookups with dir, each
// from a fresh packet, and file requests from one packet it rewrites. With
// loseFirst it drops the first try of every file request.
func stubServer(sim *env.Sim, dir core.DirID, loseFirst bool) {
	out, resp := wire.NewPacket[wire.FileResp](testClientID, fakeServerID)
	var seen uint64 // the last file request's id
	sim.AddNode(fakeServerID, env.NodeConfig{Handler: func(p *env.Proc, from env.NodeID, msg any) {
		switch b := msg.(*wire.Packet).Body.(type) {
		case *wire.LookupReq:
			o, r := wire.NewPacket[wire.LookupResp](from, fakeServerID)
			r.RPC, r.Dir = b.RPC, dir
			p.Send(from, o)
		case *wire.FileReq:
			if loseFirst && b.RPC != seen {
				seen = b.RPC
				return
			}
			resp.RPC = b.RPC
			p.Send(from, out)
		}
	}})
}

// stubClient is a client of the stub server.
func stubClient(sim *env.Sim) *Client {
	return New(sim, Config{
		ID:    testClientID,
		Ring:  ring.New([]uint32{0}, 0, func(uint32) env.NodeID { return fakeServerID }),
		Costs: env.DefaultCosts(),
	})
}

// TestCachedStatAllocatesItsPacket: a stat through a warm cache allocates
// exactly its request packet, carved with its body, whether its first try is
// answered or lost: it waits on the process's reply slot, registered in the
// client's calls, and a retransmission resends the same packet.
func TestCachedStatAllocatesItsPacket(t *testing.T) {
	for _, loseFirst := range []bool{false, true} {
		sim := env.NewSim(1)
		stubServer(sim, core.DirID{0, 0, 1, 1}, loseFirst)
		c := stubClient(sim)
		allocs, stats := -1.0, uint64(0)
		sim.Spawn(testClientID, func(p *env.Proc) {
			allocs = testing.AllocsPerRun(100, func() {
				stats++
				if _, err := c.Stat(p, "/d/file-000123"); err != nil {
					t.Fatal(err)
				}
			})
		})
		sim.Run()
		sim.Shutdown()
		retries := uint64(0)
		if loseFirst {
			retries = stats
		}
		if allocs != 1 || c.Lookups != 1 || c.Retries != retries || c.rpc.Pending() != 0 {
			t.Errorf("cached stat, first try lost %v: %v allocs/op, %d lookups, %d retries, %d calls left; want 1, 1, %d, 0",
				loseFirst, allocs, c.Lookups, c.Retries, c.rpc.Pending(), retries)
		}
	}
}

// TestOpSpanNames: the span-name table holds exactly what the per-op
// concatenation used to build, for every op value including unknown ones.
func TestOpSpanNames(t *testing.T) {
	for i := 0; i < 256; i++ {
		if want := "op:" + core.Op(i).String(); opSpans[i] != want {
			t.Fatalf("opSpans[%d] = %q, want %q", i, opSpans[i], want)
		}
	}
}

// BenchmarkResolveCached is the client's layer microbenchmark (`make
// bench-layers`): one fully cached resolution of a depth-2 path.
func BenchmarkResolveCached(b *testing.B) {
	idD := core.DirID{0, 0, 0, 7}
	f := &fakeServer{ids: map[core.Key]core.DirID{{PID: core.RootDirID, Name: "dir-0042"}: idD}}
	sim := env.NewSim(1)
	defer sim.Shutdown()
	sim.AddNode(fakeServerID, env.NodeConfig{Handler: f.handle})
	c := stubClient(sim)
	sim.Spawn(testClientID, func(p *env.Proc) {
		const path = "/dir-0042/file-000123"
		if _, err := c.resolve(p, path); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.resolve(p, path); err != nil {
				b.Fatal(err)
			}
		}
	})
	sim.Run()
}

// BenchmarkClientCall is the client's call layer benchmark (`make
// bench-layers`): one metadata round trip per op — a file request stamped
// with its id and acknowledgement, sent as a retried call and answered by a
// stub node — whose only allocation is its packet.
func BenchmarkClientCall(b *testing.B) {
	sim := env.NewSim(1)
	defer sim.Shutdown()
	stubServer(sim, core.DirID{0, 0, 1, 1}, false)
	c := stubClient(sim)
	sim.Spawn(testClientID, func(p *env.Proc) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pkt, req := wire.NewPacket[wire.FileReq](fakeServerID, testClientID)
			*req = wire.FileReq{ReqCommon: c.reqCommon(fakeServerID, nil), Op: core.OpStat, Name: "f"}
			if _, _, err := c.call(p, fakeServerID, pkt, req.RPC, c.cfg.MaxRetries, c.cfg.RetryTimeout, "rpc-timeout"); err != nil {
				b.Fatal(err)
			}
		}
	})
	sim.Run()
	if c.Retries != 0 {
		b.Fatalf("%d retransmissions", c.Retries)
	}
}
