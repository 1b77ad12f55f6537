package workload

import (
	"fmt"
	"math/rand"

	"switchfs/internal/core"
	"switchfs/internal/wire"
)

// MixEntry weights one operation class in a trace-derived mix.
type MixEntry struct {
	Op     core.Op
	Weight float64
	// Data sizes a read or write entry's data-node access (§7.6 replays with
	// data access enabled); zero replays the mix's metadata only.
	Data int64
}

// Mix is a weighted operation mix.
type Mix []MixEntry

// PanguMix reproduces the operation ratios of Alibaba's deployed PanguFS
// traces (Tab. 2 / Tab. 5 "Data Center Services"): 52.6% open/close, 12.4%
// stat, 9.58% create, 11.9% delete, 9.3% file rename, 0.1% chmod, 3.9%
// readdir, 0.2% statdir. Data access is omitted, as in the paper.
func PanguMix() Mix {
	return Mix{
		{Op: core.OpOpen, Weight: 26.3},
		{Op: core.OpClose, Weight: 26.3},
		{Op: core.OpStat, Weight: 12.4},
		{Op: core.OpCreate, Weight: 9.58},
		{Op: core.OpDelete, Weight: 11.9},
		{Op: core.OpRename, Weight: 9.3},
		{Op: core.OpChmod, Weight: 0.1},
		{Op: core.OpReadDir, Weight: 3.9},
		{Op: core.OpStatDir, Weight: 0.2},
	}
}

// CNNTrainingMix reproduces the CV-training trace ratios (Tab. 5): the
// lifecycle of an ImageNet-class dataset of ~small files grouped into 1000
// directories — download (create+write), access (open/stat/read), removal.
func CNNTrainingMix(fileBytes int64) Mix {
	return Mix{
		{Op: core.OpOpen, Weight: 21.4},
		{Op: core.OpClose, Weight: 21.4},
		{Op: core.OpStat, Weight: 21.4},
		{Op: core.OpRead, Weight: 14.2, Data: fileBytes},
		{Op: core.OpWrite, Weight: 7.1, Data: fileBytes},
		{Op: core.OpCreate, Weight: 7.1},
		{Op: core.OpDelete, Weight: 7.1},
		{Op: core.OpMkdir, Weight: 0.1},
		{Op: core.OpRmdir, Weight: 0.1},
		{Op: core.OpStatDir, Weight: 0.1},
		{Op: core.OpReadDir, Weight: 0.1},
	}
}

// ThumbnailMix reproduces the thumbnail-generation trace (Tab. 5): reading
// ~1M images and creating thumbnails.
func ThumbnailMix(fileBytes int64) Mix {
	return Mix{
		{Op: core.OpOpen, Weight: 21.95},
		{Op: core.OpClose, Weight: 21.95},
		{Op: core.OpStat, Weight: 21.9},
		{Op: core.OpRead, Weight: 12.2, Data: fileBytes},
		{Op: core.OpWrite, Weight: 10.9, Data: fileBytes},
		{Op: core.OpCreate, Weight: 10.9},
		{Op: core.OpMkdir, Weight: 0.1},
		{Op: core.OpStatDir, Weight: 0.05},
		{Op: core.OpReadDir, Weight: 0.05},
	}
}

// mixWorkerState tracks per-worker created names so deletes and renames
// target files that exist.
type mixWorkerState struct {
	created []string
	seq     int
}

// Gen compiles the mix into a generator over the namespace. With skew, 80%
// of operations target 20% of the directories (§7.6).
func (m Mix) Gen(ns Namespace, skew bool) Gen {
	total := 0.0
	for _, e := range m {
		total += e.Weight
	}
	states := make(map[int]*mixWorkerState)
	stateOf := func(w int) *mixWorkerState {
		st := states[w]
		if st == nil {
			st = &mixWorkerState{}
			states[w] = st
		}
		return st
	}
	return func(rnd *rand.Rand, w, i int) Op {
		st := stateOf(w)
		x := rnd.Float64() * total
		var e MixEntry
		for _, cand := range m {
			if x < cand.Weight {
				e = cand
				break
			}
			x -= cand.Weight
		}
		if e.Op == 0 {
			e = m[0]
		}
		dir := ns.Dirs[rnd.Intn(len(ns.Dirs))]
		if skew {
			dir = ns.zipfDir(rnd)
		}
		switch e.Op {
		case core.OpCreate, core.OpMkdir:
			st.seq++
			path := fmt.Sprintf("%s/w%d-m%d", dir, w, st.seq)
			if e.Op == core.OpCreate {
				st.created = append(st.created, path)
			}
			return Op{Kind: e.Op, Path: path}
		case core.OpDelete:
			if n := len(st.created); n > 0 {
				path := st.created[n-1]
				st.created = st.created[:n-1]
				return Op{Kind: core.OpDelete, Path: path}
			}
			// Nothing of ours to delete yet: create instead (trace replay
			// warms up the same way).
			st.seq++
			path := fmt.Sprintf("%s/w%d-m%d", dir, w, st.seq)
			st.created = append(st.created, path)
			return Op{Kind: core.OpCreate, Path: path}
		case core.OpRmdir:
			st.seq++
			// mkdir+rmdir pairs keep the namespace stable.
			return Op{Kind: core.OpMkdir, Path: fmt.Sprintf("%s/d-w%d-m%d", dir, w, st.seq)}
		case core.OpRename:
			if n := len(st.created); n > 0 {
				src := st.created[n-1]
				st.seq++
				dst := fmt.Sprintf("%s/w%d-r%d", dir, w, st.seq)
				st.created[n-1] = dst
				return Op{Kind: core.OpRename, Path: src, Path2: dst}
			}
			st.seq++
			path := fmt.Sprintf("%s/w%d-m%d", dir, w, st.seq)
			st.created = append(st.created, path)
			return Op{Kind: core.OpCreate, Path: path}
		case core.OpStatDir, core.OpReadDir:
			return Op{Kind: e.Op, Path: dir}
		case core.OpRead, core.OpWrite:
			return Op{Kind: e.Op, Chunk: wire.ChunkKey{File: uint32(rnd.Intn(64))}, Bytes: e.Data}
		default: // stat/open/close/chmod target existing files
			f := rnd.Intn(maxInt(ns.FilesPerDir, 1))
			op := Op{Kind: e.Op, Path: fmt.Sprintf("%s/f%d", dir, f)}
			if e.Op == core.OpChmod {
				op.Perm = 0o644
			}
			return op
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
