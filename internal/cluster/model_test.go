package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"switchfs/internal/client"
	"switchfs/internal/core"
	"switchfs/internal/env"
)

// modelAbort aborts a model-check closure from inside a simulated process.
type modelAbort string

func failf(format string, args ...any) {
	panic(modelAbort(fmt.Sprintf(format, args...)))
}

// TestRandomOpsAgainstModel drives long random operation sequences from a
// single client against the full asynchronous protocol and cross-checks
// every response — and the final aggregated state — against an in-memory
// model filesystem. Sequential operations make the expected state exact, so
// this catches lost updates, double-applies, compaction accounting errors,
// and stale reads across creates, deletes, mkdir, rmdir, statdir, readdir
// and renames. Several seeds, one with packet loss and duplication.
func TestRandomOpsAgainstModel(t *testing.T) {
	seeds := []struct {
		seed  int64
		drop  float64
		dup   float64
		steps int
	}{
		{seed: 101, steps: 400},
		{seed: 202, steps: 400},
		// The lossy+duplicating adversary runs full length: the divergence
		// this seed used to surface past ~200 steps (an aggregation
		// retransmitting its dirty-set remove under a fresh sequence number,
		// silently erasing fingerprints inserted after the aggregation
		// began) was found by the chaos checker and fixed — removes now
		// carry one sequence number for the aggregation's lifetime, so the
		// switch's §5.4.1 staleness guard rejects the retransmissions.
		{seed: 303, drop: 0.03, dup: 0.03, steps: 400},
	}
	for _, cse := range seeds {
		cse := cse
		t.Run(fmt.Sprintf("seed=%d drop=%v", cse.seed, cse.drop), func(t *testing.T) {
			s := env.NewSim(cse.seed)
			defer s.Shutdown()
			opts := Options{Servers: 5, Clients: 1, SwitchIndexBits: 8}
			c := New(s, opts)
			s.Net().DropProb = cse.drop
			s.Net().DupProb = cse.dup

			// Model: dirs maps directory path → set of child names (with a
			// marker for subdirectories).
			type entry struct{ isDir bool }
			model := map[string]map[string]entry{"/": {}}
			rnd := rand.New(rand.NewSource(cse.seed))

			pathOf := func(dir, name string) string {
				if dir == "/" {
					return "/" + name
				}
				return dir + "/" + name
			}
			dirs := func() []string {
				out := make([]string, 0, len(model))
				for d := range model {
					out = append(out, d)
				}
				// Deterministic order for reproducibility.
				for i := 1; i < len(out); i++ {
					for j := i; j > 0 && out[j] < out[j-1]; j-- {
						out[j], out[j-1] = out[j-1], out[j]
					}
				}
				return out
			}

			c.Run(0, func(p *env.Proc, cl *client.Client) {
				// t.Fatalf would Goexit the sim worker and wedge the
				// scheduler; abort via panic/recover instead.
				defer func() {
					if r := recover(); r != nil {
						if msg, ok := r.(modelAbort); ok {
							t.Error(string(msg))
							return
						}
						panic(r)
					}
				}()
				for step := 0; step < cse.steps; step++ {
					ds := dirs()
					dir := ds[rnd.Intn(len(ds))]
					name := fmt.Sprintf("n%d", rnd.Intn(12))
					path := pathOf(dir, name)
					ent, exists := model[dir][name]
					switch rnd.Intn(10) {
					case 0, 1, 2: // create
						err := cl.Create(p, path, 0)
						if exists && !errors.Is(err, core.ErrExist) {
							failf("step %d: create %s over existing: %v", step, path, err)
						}
						if !exists {
							if err != nil {
								failf("step %d: create %s: %v", step, path, err)
							}
							model[dir][name] = entry{}
						}
					case 3, 4: // delete
						err := cl.Delete(p, path)
						switch {
						case !exists:
							if !errors.Is(err, core.ErrNotExist) {
								failf("step %d: delete missing %s: %v", step, path, err)
							}
						case ent.isDir:
							if err == nil {
								failf("step %d: delete of directory %s succeeded", step, path)
							}
						default:
							if err != nil {
								failf("step %d: delete %s: %v", step, path, err)
							}
							delete(model[dir], name)
						}
					case 5: // mkdir
						err := cl.Mkdir(p, path, 0)
						if exists && !errors.Is(err, core.ErrExist) {
							failf("step %d: mkdir %s over existing: %v", step, path, err)
						}
						if !exists {
							if err != nil {
								failf("step %d: mkdir %s: %v", step, path, err)
							}
							model[dir][name] = entry{isDir: true}
							model[path] = map[string]entry{}
						}
					case 6: // rmdir
						err := cl.Rmdir(p, path)
						switch {
						case !exists || !ent.isDir:
							if err == nil {
								failf("step %d: rmdir of %s (not a dir) succeeded", step, path)
							}
						case len(model[path]) > 0:
							if !errors.Is(err, core.ErrNotEmpty) {
								failf("step %d: rmdir non-empty %s: %v", step, path, err)
							}
						default:
							if err != nil {
								failf("step %d: rmdir %s: %v", step, path, err)
							}
							delete(model[dir], name)
							delete(model, path)
						}
					case 7: // statdir cross-check
						attr, err := cl.StatDir(p, dir)
						if err != nil {
							failf("step %d: statdir %s: %v", step, dir, err)
						}
						if attr.Size != int64(len(model[dir])) {
							failf("step %d: statdir %s size=%d, model=%d",
								step, dir, attr.Size, len(model[dir]))
						}
					case 8: // readdir cross-check
						es, err := cl.ReadDir(p, dir)
						if err != nil {
							failf("step %d: readdir %s: %v", step, dir, err)
						}
						if len(es) != len(model[dir]) {
							failf("step %d: readdir %s %d entries, model=%d",
								step, dir, len(es), len(model[dir]))
						}
						for _, e := range es {
							if _, ok := model[dir][e.Name]; !ok {
								failf("step %d: readdir %s ghost entry %q", step, dir, e.Name)
							}
						}
					case 9: // rename a file within or across directories
						if !exists || ent.isDir {
							continue
						}
						dst := ds[rnd.Intn(len(ds))]
						dstName := fmt.Sprintf("r%d", rnd.Intn(12))
						dstPath := pathOf(dst, dstName)
						_, dstExists := model[dst][dstName]
						err := cl.Rename(p, path, dstPath)
						if dstExists {
							if err == nil {
								failf("step %d: rename onto existing %s succeeded", step, dstPath)
							}
							continue
						}
						if err != nil {
							failf("step %d: rename %s→%s: %v", step, path, dstPath, err)
						}
						delete(model[dir], name)
						model[dst][dstName] = entry{}
					}
				}

				// Final audit: every directory's aggregated attributes and
				// entry list match the model exactly.
				for _, d := range dirs() {
					attr, err := cl.StatDir(p, d)
					if err != nil {
						failf("final statdir %s: %v", d, err)
					}
					if attr.Size != int64(len(model[d])) {
						failf("final %s: size=%d, model=%d", d, attr.Size, len(model[d]))
					}
					es, err := cl.ReadDir(p, d)
					if err != nil || len(es) != len(model[d]) {
						failf("final readdir %s: %d entries err=%v, model=%d",
							d, len(es), err, len(model[d]))
					}
					for name, e := range model[d] {
						if e.isDir {
							if _, err := cl.StatDir(p, pathOf(d, name)); err != nil {
								failf("final statdir %s: %v", pathOf(d, name), err)
							}
						} else {
							if _, err := cl.Stat(p, pathOf(d, name)); err != nil {
								failf("final stat %s: %v", pathOf(d, name), err)
							}
						}
					}
				}
			})
			// The run drained: every operation, rename and aggregation
			// ended, so no server keeps an inode lock in its table.
			for _, srv := range c.Servers {
				if n := srv.LockedKeys(); n != 0 {
					t.Errorf("server %d: %d keys in the lock table at quiescence, want 0", srv.ID(), n)
				}
			}
		})
	}
}

// TestRandomOpsWithCrashes interleaves random mutations with server crashes
// and recoveries, auditing the final state against the model — §A.1's
// durability claim under repeated fail-stop.
func TestRandomOpsWithCrashes(t *testing.T) {
	s := env.NewSim(777)
	defer s.Shutdown()
	c := New(s, Options{Servers: 5, Clients: 1, SwitchIndexBits: 8})
	rnd := rand.New(rand.NewSource(777))
	model := map[string]bool{} // file path → exists

	c.Run(0, func(p *env.Proc, cl *client.Client) {
		if err := cl.Mkdir(p, "/m", 0); err != nil {
			t.Errorf("mkdir: %v", err)
		}
	})
	for round := 0; round < 6; round++ {
		c.Run(0, func(p *env.Proc, cl *client.Client) {
			for i := 0; i < 20; i++ {
				name := fmt.Sprintf("/m/f%d", rnd.Intn(30))
				if rnd.Intn(2) == 0 {
					if err := cl.Create(p, name, 0); err == nil {
						model[name] = true
					} else if !errors.Is(err, core.ErrExist) {
						t.Errorf("round %d create %s: %v", round, name, err)
					}
				} else {
					if err := cl.Delete(p, name); err == nil {
						delete(model, name)
					} else if !errors.Is(err, core.ErrNotExist) {
						t.Errorf("round %d delete %s: %v", round, name, err)
					}
				}
			}
		})
		// Crash and recover a rotating victim while updates are pending.
		victim := round % 5
		c.CrashServer(victim)
		c.RecoverServer(victim)
		s.Run()
	}
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		attr, err := cl.StatDir(p, "/m")
		if err != nil {
			t.Errorf("final statdir: %v", err)
			return
		}
		if attr.Size != int64(len(model)) {
			t.Errorf("final size=%d, model=%d", attr.Size, len(model))
		}
		for f := range model {
			if _, err := cl.Stat(p, f); err != nil {
				t.Errorf("file %s lost across crashes: %v", f, err)
			}
		}
	})
}
