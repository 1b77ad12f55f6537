package main

import (
	"fmt"
	"runtime"

	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/kv"
	"switchfs/internal/pswitch"
	"switchfs/internal/ring"
	"switchfs/internal/wal"
)

// Leaf probes loop the leaf packages' public functions at fixed iteration
// counts and report the fastest of probeBatches batches. They are host-clock
// numbers with no bound: they say which leaf moved, the end-to-end metrics
// say whether it mattered.
const probeBatches = 5

// probeResult is one probe's outcome.
type probeResult struct {
	ns     float64 // per operation, fastest batch
	allocs float64 // per operation, same batch
}

// sink keeps the compiler from discarding the probed calls.
var sink int

type prober struct {
	results map[string]probeResult
	spans   []hostSpan
}

// run times body, which performs iters operations, probeBatches times; setup
// runs untimed before each batch and returns the body.
func (pr *prober) run(name string, iters int, setup func() func()) {
	start := hostNow()
	best := probeResult{ns: -1}
	var before, after runtime.MemStats
	for b := 0; b < probeBatches; b++ {
		body := setup()
		runtime.ReadMemStats(&before)
		t0 := hostNow()
		body()
		dt := hostNow() - t0
		runtime.ReadMemStats(&after)
		if ns := float64(dt) / float64(iters); best.ns < 0 || ns < best.ns {
			best = probeResult{ns: ns, allocs: float64(after.Mallocs-before.Mallocs) / float64(iters)}
		}
	}
	pr.results[name] = best
	pr.spans = append(pr.spans, hostSpan{name: "probe:" + name, parent: "probes", start: start, end: hostNow()})
}

// probeKeys builds n directory-shaped keys: dirs directories of n/dirs names.
func probeKeys(n, dirs int) (ids []core.DirID, keys [][]byte) {
	gen := core.NewIDGen(7)
	for d := 0; d < dirs; d++ {
		ids = append(ids, gen.Next())
	}
	for i := 0; i < n; i++ {
		k := core.Key{PID: ids[i%dirs], Name: fmt.Sprintf("f%d", i/dirs)}
		keys = append(keys, k.Encode())
	}
	return ids, keys
}

// runProbes runs every leaf probe. div divides the iteration counts: 1 for
// measuring, larger for the smoke test.
func runProbes(div int) (values, []hostSpan) {
	pr := &prober{results: make(map[string]probeResult)}
	start := hostNow()
	n := func(iters int) int {
		if iters /= div; iters < 64 {
			return 64
		}
		return iters
	}

	// pswitch: the dirty set at the benchmark's geometry, 10 × 2^14.
	nFP := n(50_000)
	fps := make([]core.Fingerprint, nFP)
	root := core.RootRef().ID
	for i := range fps {
		fps[i] = core.FingerprintOf(root, fmt.Sprintf("dir%d", i))
	}
	var ds *pswitch.DirtySet
	pr.run("pswitch.insert_ns", nFP, func() func() {
		ds = pswitch.NewDirtySet(10, switchIdxBits)
		return func() {
			for _, fp := range fps {
				if ds.Insert(fp) {
					sink++
				}
			}
		}
	})
	pr.run("pswitch.query_ns", nFP, func() func() {
		return func() {
			for _, fp := range fps {
				if ds.Query(fp) {
					sink++
				}
			}
		}
	})
	pr.run("pswitch.remove_ns", nFP, func() func() {
		for _, fp := range fps {
			ds.Insert(fp)
		}
		return func() {
			for _, fp := range fps {
				if ds.Remove(fp, 0, 0) {
					sink++
				}
			}
		}
	})

	// wal: the in-memory log the simulated servers use.
	nRec := n(100_000)
	payload := make([]byte, 64)
	var log *wal.Mem
	pr.run("wal.append_ns", nRec, func() func() {
		log = wal.NewMem()
		return func() {
			for i := 0; i < nRec; i++ {
				lsn, _ := log.Append(1, payload) // Mem.Append cannot fail
				sink += int(lsn)
			}
		}
	})
	pr.run("wal.replay_ns_per_rec", nRec, func() func() {
		return func() {
			_ = log.Replay(func(r wal.Record) error { // the callback returns nil
				sink += len(r.Payload)
				return nil
			})
		}
	})

	// kv: directory-shaped keys, 100 directories of 1 000 names.
	nKeys, nDirs := n(100_000), 100
	ids, keys := probeKeys(nKeys, nDirs)
	val := core.EncodeInode(&core.Inode{Attr: core.Attr{Type: core.TypeRegular, Perm: core.DefaultFilePerm, Nlink: 1}})
	var store *kv.Store
	var heapBefore, heapAfter runtime.MemStats
	pr.run("kv.put_ns", nKeys, func() func() {
		store = nil
		runtime.GC()
		runtime.ReadMemStats(&heapBefore)
		store = kv.New()
		return func() {
			for _, k := range keys {
				store.Put(k, val)
			}
		}
	})
	runtime.GC()
	runtime.ReadMemStats(&heapAfter)
	bytesPerEntry := (float64(heapAfter.HeapAlloc) - float64(heapBefore.HeapAlloc)) / float64(nKeys)
	pr.run("kv.get_ns", nKeys, func() func() {
		return func() {
			for _, k := range keys {
				v, _ := store.Get(k)
				sink += len(v)
			}
		}
	})
	prefixes := make([][]byte, len(ids))
	for i, id := range ids {
		prefixes[i] = core.Key{PID: id}.Encode()
	}
	pr.run("kv.scan_ns_per_entry", nKeys, func() func() {
		return func() {
			for _, pre := range prefixes {
				store.Scan(pre, func(k, v []byte) bool {
					sink += len(v)
					return true
				})
			}
		}
	})
	nCount := n(100_000)
	pr.run("kv.countprefix_ns", nCount, func() func() {
		return func() {
			for i := 0; i < nCount; i++ {
				sink += store.CountPrefix(prefixes[i%len(prefixes)])
			}
		}
	})
	runtime.KeepAlive(store)

	// ring: placement lookups over the eight server slots.
	slots := make([]uint32, numServers)
	for i := range slots {
		slots[i] = uint32(i)
	}
	rg := ring.New(slots, 0, func(s uint32) env.NodeID { return env.NodeID(s) })
	pr.run("ring.ownerof_ns", nFP, func() func() {
		return func() {
			for _, fp := range fps {
				sink += int(rg.OwnerOf(fp))
			}
		}
	})

	// core: compaction, fingerprinting, the inode codec, path splitting.
	const nLog, nCompacts = 4096, 8
	entries := make([]core.LogEntry, nLog)
	for i := range entries {
		op, name := core.OpCreate, i
		if i%4 == 3 {
			op, name = core.OpDelete, i-1 // of the name created just before
		}
		entries[i] = core.LogEntry{ID: uint64(i + 1), Time: int64(i), Op: op,
			Name: fmt.Sprintf("w%d", name), Type: core.TypeRegular, Perm: core.DefaultFilePerm}
	}
	pr.run("core.compact_ns_per_entry", nLog*nCompacts, func() func() {
		return func() {
			for i := 0; i < nCompacts; i++ {
				sink += len(core.Compact(entries).Ops)
			}
		}
	})
	names := make([]string, 1024)
	paths := make([]string, 1024)
	for i := range names {
		names[i] = fmt.Sprintf("w%d-%d", i, i*31)
		paths[i] = fmt.Sprintf("/d%04d/w%d-%d", i%256, i, i*31)
	}
	nCore := n(200_000)
	pr.run("core.fingerprint_ns", nCore, func() func() {
		return func() {
			for i := 0; i < nCore; i++ {
				sink += int(core.FingerprintOf(root, names[i%len(names)]))
			}
		}
	})
	inode := &core.Inode{Attr: core.Attr{Type: core.TypeRegular, Perm: core.DefaultFilePerm, Nlink: 1, Size: 4096}}
	pr.run("core.inode_codec_ns", nCore, func() func() {
		return func() {
			for i := 0; i < nCore; i++ {
				in, err := core.DecodeInode(core.EncodeInode(inode))
				if err == nil {
					sink += int(in.Size)
				}
			}
		}
	})
	pr.run("core.splitpath_ns", nCore, func() func() {
		return func() {
			for i := 0; i < nCore; i++ {
				comps, _ := core.SplitPath(paths[i%len(paths)]) // paths are well-formed
				sink += len(comps)
			}
		}
	})

	// env: the bare simulator, no cluster.
	nProcs, nSleeps := 256, n(200*64)/64
	pr.run("env.handoff_ns", nProcs*nSleeps, func() func() {
		sim := env.NewSim(1)
		sim.AddNode(1, env.NodeConfig{})
		for i := 0; i < nProcs; i++ {
			sim.Spawn(1, func(p *env.Proc) {
				for j := 0; j < nSleeps; j++ {
					p.Sleep(env.Microsecond)
				}
			})
		}
		return func() {
			sim.Run()
			sim.Shutdown()
		}
	})
	nTimers := n(200_000)
	pr.run("env.timer_ns", nTimers, func() func() {
		sim := env.NewSim(1)
		return func() {
			for i := 0; i < nTimers; i++ {
				sim.After(env.Duration(i%1000)*env.Microsecond, func() { sink++ })
			}
			sim.Run()
			sim.Shutdown()
		}
	})
	nSends := n(100_000)
	pr.run("env.send_ns", nSends, func() func() {
		sim := env.NewSim(1)
		sim.AddNode(1, env.NodeConfig{})
		sim.AddNode(2, env.NodeConfig{Handler: func(p *env.Proc, from env.NodeID, msg any) { sink++ }})
		msg := &struct{}{}
		sim.Spawn(1, func(p *env.Proc) {
			for i := 0; i < nSends; i++ {
				p.Send(2, msg)
				if i%64 == 63 {
					p.Sleep(env.Microsecond) // let deliveries drain; bounds the queue
				}
			}
		})
		return func() {
			sim.Run()
			sim.Shutdown()
		}
	})

	vs := values{}
	for name, r := range pr.results {
		allocs := r.allocs
		vs[name] = value{V: r.ns, N: probeBatches, Allocs: &allocs}
	}
	vs.set("kv.bytes_per_entry", bytesPerEntry, 1)
	spans := append(pr.spans, hostSpan{name: "probes", start: start, end: hostNow()})
	return vs, spans
}
