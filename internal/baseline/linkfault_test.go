package baseline

import (
	"fmt"
	"testing"

	"switchfs/internal/env"
	"switchfs/internal/fsapi"
	"switchfs/internal/wire"
)

// TestLinkRuleDupReorderPreservesDedup mirrors the SwitchFS-side test in
// internal/cluster: per-link duplication and reorder on every client↔server,
// server↔server and client↔data-node link must not re-execute mutations on
// the baseline servers (every request, a client's or a peer's sub-operation,
// passes the served memo's Admit, which provides exactly-once effects) nor
// chunk writes on the data nodes (a duplicated DataReq replays from theirs).
func TestLinkRuleDupReorderPreservesDedup(t *testing.T) {
	for _, mode := range []Mode{InfiniFS, CFS} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			const writes = 30
			sim, c := deployData(t, mode, 2)
			rule := env.LinkRule{Dup: 0.3, Jitter: 4 * env.Microsecond}
			for _, d := range c.data {
				sim.Net().SetLink(c.ClientNode(0), d.ID(), rule)
				sim.Net().SetLink(d.ID(), c.ClientNode(0), rule)
			}
			for i := 0; i < c.Opts.Servers; i++ {
				sim.Net().SetLink(c.ClientNode(0), c.ServerNode(i), rule)
				sim.Net().SetLink(c.ServerNode(i), c.ClientNode(0), rule)
				for j := 0; j < c.Opts.Servers; j++ {
					if j != i {
						sim.Net().SetLink(c.ServerNode(i), c.ServerNode(j), rule)
					}
				}
			}
			run(sim, c, func(p *env.Proc, fs fsapi.FS) {
				if err := fs.Mkdir(p, "/d"); err != nil {
					t.Errorf("mkdir: %v", err)
					return
				}
				for i := 0; i < 30; i++ {
					if err := fs.Create(p, fmt.Sprintf("/d/f%d", i)); err != nil {
						t.Errorf("create %d: %v", i, err)
						return
					}
					if i%3 == 0 {
						if err := fs.Delete(p, fmt.Sprintf("/d/f%d", i)); err != nil {
							t.Errorf("delete %d: %v", i, err)
							return
						}
					}
				}
				want := int64(30 - 10)
				attr, err := fs.StatDir(p, "/d")
				if err != nil || attr.Size != want {
					t.Errorf("size=%d err=%v, want %d (duplication re-executed a mutation)",
						attr.Size, err, want)
				}
				es, err := fs.ReadDir(p, "/d")
				if err != nil || int64(len(es)) != want {
					t.Errorf("readdir %d entries err=%v, want %d", len(es), err, want)
				}
				for i := 0; i < writes; i++ {
					if err := fs.Data(p, 0, true, 512); err != nil {
						t.Errorf("data write %d: %v", i, err)
						return
					}
				}
			})
			// Chunk 0's primary is data node 0 and its backup data node 1.
			for i, d := range c.data {
				if v := d.ChunkVer(wire.ChunkKey{}); v != writes {
					t.Errorf("data node %d holds chunk version %d after %d writes (duplication re-executed a write)",
						i, v, writes)
				}
			}
		})
	}
}
