package main

import (
	"fmt"
	"strconv"

	"switchfs/internal/env"
)

// opKind is the benchmark's own operation vocabulary: the program under test
// only ever sees (op, path[, path2 | bytes]) tuples.
type opKind uint8

const (
	opCreate opKind = iota
	opDelete
	opStat
	opOpen
	opClose
	opChmod
	opStatDir
	opReadDir
	opRename
	opMkdir
	opRmdir
	opDataRead
	opDataWrite
	numOps
)

var opNames = [numOps]string{
	"create", "delete", "stat", "open", "close", "chmod", "statdir",
	"readdir", "rename", "mkdir", "rmdir", "data_read", "data_write",
}

// call is one generated operation.
type call struct {
	op    opKind
	path  string
	path2 string // rename destination
	bytes int64  // data ops
	shard int    // data ops: which stripe
}

type mixEntry struct {
	op     opKind
	weight float64
}

// dataBytes is the size of one data-node read or write (§7.6: files mostly
// under 256 KB).
const dataBytes = 128 << 10

// panguMix is the PanguFS data-centre metadata mix, copied from Tab. 5:
// open/close 52.6 %, stat 12.4 %, create 9.58 %, delete 11.9 %, rename 9.3 %,
// chmod 0.1 %, readdir 3.9 %, statdir 0.2 %.
var panguMix = []mixEntry{
	{opOpen, 26.3}, {opClose, 26.3}, {opStat, 12.4}, {opCreate, 9.58},
	{opDelete, 11.9}, {opRename, 9.3}, {opChmod, 0.1}, {opReadDir, 3.9},
	{opStatDir, 0.2},
}

// cnnMix is the CNN-training trace of Tab. 5: an ImageNet-class dataset is
// downloaded (create + write), read (open/stat/read) and removed.
var cnnMix = []mixEntry{
	{opOpen, 21.4}, {opClose, 21.4}, {opStat, 21.4}, {opDataRead, 14.2},
	{opDataWrite, 7.1}, {opCreate, 7.1}, {opDelete, 7.1}, {opMkdir, 0.1},
	{opRmdir, 0.1}, {opStatDir, 0.1}, {opReadDir, 0.1},
}

// spec is one workload: a namespace, a closed loop of workers over the eight
// client nodes, and an operation mix. Op counts are fixed, never time-based,
// so two commits under comparison do the same work.
type spec struct {
	name string
	why  string

	dirs        int
	filesPerDir int
	// viaProtocol builds the namespace with mkdir/create calls instead of
	// Preload, so it is in the servers' WALs and survives a crash.
	viaProtocol bool

	workers      int
	opsPerWorker int
	mix          []mixEntry
	// skew sends 80 % of the operations to 20 % of the directories (§7.6).
	skew      bool
	dataNodes int

	// crashAt > 0 fail-stops server 1 that long after the load starts and
	// recovers it at recoverAt.
	crashAt   env.Duration
	recoverAt env.Duration
}

func (s *spec) totalOps() int { return s.workers * s.opsPerWorker }

// mutates reports whether the mix holds anything but reads.
func (s *spec) mutates() bool {
	for _, e := range s.mix {
		if e.op != opStat && e.op != opStatDir && e.op != opReadDir {
			return true
		}
	}
	return false
}

// scaled returns the workload with its per-worker op count divided by div
// (the smoke test runs every workload at 1/16).
func (s spec) scaled(div int) *spec {
	s.opsPerWorker /= div
	if s.opsPerWorker < 1 {
		s.opsPerWorker = 1
	}
	return &s
}

// Sizing. The in-flight levels are the highest at which ten seeds agreed:
// above them the system steps between modes one 2 ms retransmission round
// apart (README, "Limits found while sizing"), and a benchmark that flips
// between modes with the seed cannot resolve a 10 % change. The crash
// workload restarts its server so that recovery ends mid-way between two
// client retransmission ticks, not on one.
var workloads = []spec{
	{
		name: "hotdir-create",
		why:  "64 in-flight creates into one directory: async commit, change-log push, compaction and dirty-set insert/remove do all the work (Fig. 12a/14)",
		dirs: 1, filesPerDir: 1024, workers: 64, opsPerWorker: 400,
		mix: []mixEntry{{opCreate, 1}},
	},
	{
		name: "hotdir-mixed",
		why:  "same hot directory with 20 % stat and 5 % statdir beside 75 % create: directory reads must aggregate what the creates deferred (Fig. 18)",
		dirs: 1, filesPerDir: 1024, workers: 128, opsPerWorker: 400,
		mix: []mixEntry{{opCreate, 75}, {opStat, 20}, {opStatDir, 5}},
	},
	{
		name: "spread-stat",
		why:  "read-only uniform stats over 256 directories: bypasses WAL, change-log, aggregation and dirty-set writes, so simulator cost per event dominates",
		dirs: 256, filesPerDir: 64, workers: 256, opsPerWorker: 400,
		mix: []mixEntry{{opStat, 1}},
	},
	{
		name: "pangu-skew",
		why:  "PanguFS metadata mix (Tab. 5) with 80/20 directory skew: the only workload where 2PC rename, delete, open/close and readdir carry weight (Fig. 19)",
		dirs: 256, filesPerDir: 64, workers: 256, opsPerWorker: 200,
		mix: panguMix, skew: true,
	},
	{
		name: "cnn-data",
		why:  "CNN-training mix with 128 KiB reads/writes on 8 data nodes, r = 2: the data plane owns the virtual time, metadata changes should not move it",
		dirs: 256, filesPerDir: 64, workers: 64, opsPerWorker: 800,
		mix: cnnMix, skew: true, dataNodes: 8,
	},
	{
		name: "crash-recover",
		why:  "75 % create, 25 % stat while server 1 crashes at +2 ms and restarts at +5 ms: WAL replay, change-log re-delivery and client retries (§5.4, §7.7)",
		dirs: 64, filesPerDir: 64, viaProtocol: true, workers: 32, opsPerWorker: 800,
		mix:     []mixEntry{{opCreate, 75}, {opStat, 25}},
		crashAt: 2 * env.Millisecond, recoverAt: 5 * env.Millisecond,
	},
}

func findWorkload(name string) *spec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// rng is splitmix64: cheap to seed, so every worker owns one.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	x := r.s
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func (r *rng) intn(n int) int             { return int(r.next() % uint64(n)) }
func (r *rng) float64() float64           { return float64(r.next()>>11) / (1 << 53) }
func workerSeed(seed int64, w int) uint64 { return uint64(seed + int64(w)*7919) }

// namespace is the directory tree a workload runs over plus the size oracle:
// delta[d] is created − deleted (+ renamed in − renamed out) entries of
// directory d, maintained by the generators as they plan each operation.
type namespace struct {
	dirs        []string
	filesPerDir int
	delta       []int64
}

func newNamespace(s *spec) *namespace {
	ns := &namespace{filesPerDir: s.filesPerDir, delta: make([]int64, s.dirs)}
	for i := 0; i < s.dirs; i++ {
		ns.dirs = append(ns.dirs, fmt.Sprintf("/d%04d", i))
	}
	return ns
}

// join assembles "<dir>/<prefix><a>-<b>" without fmt: it runs once per
// simulated operation and would otherwise lead the allocation profile the
// benchmark is trying to read.
func join(dir, prefix string, a, b int) string {
	buf := make([]byte, 0, len(dir)+len(prefix)+24)
	buf = append(buf, dir...)
	buf = append(buf, '/')
	buf = append(buf, prefix...)
	buf = strconv.AppendInt(buf, int64(a), 10)
	if b >= 0 {
		buf = append(buf, '-')
		buf = strconv.AppendInt(buf, int64(b), 10)
	}
	return string(buf)
}

// made is a name a worker created and may later delete, rename or rmdir.
type made struct {
	path string
	dir  int
}

// generator produces one worker's operation stream. It depends only on
// (seed, worker), never on timing, so the same seed gives the same inputs.
type generator struct {
	s      *spec
	ns     *namespace
	w      int
	rnd    rng
	cum    []float64
	files  []made
	subdir []made
	seq    int
}

func newGenerator(s *spec, ns *namespace, seed int64, w int) *generator {
	g := &generator{s: s, ns: ns, w: w, rnd: rng{s: workerSeed(seed, w)}}
	total := 0.0
	for _, e := range s.mix {
		total += e.weight
		g.cum = append(g.cum, total)
	}
	return g
}

func (g *generator) pickOp() opKind {
	x := g.rnd.float64() * g.cum[len(g.cum)-1]
	for i, c := range g.cum {
		if x < c {
			return g.s.mix[i].op
		}
	}
	return g.s.mix[len(g.s.mix)-1].op
}

func (g *generator) pickDir() int {
	n := len(g.ns.dirs)
	if g.s.skew && g.rnd.float64() < 0.8 {
		hot := n / 5
		if hot == 0 {
			hot = 1
		}
		return g.rnd.intn(hot)
	}
	return g.rnd.intn(n)
}

func (g *generator) create(d int) call {
	g.seq++
	path := join(g.ns.dirs[d], "w", g.w, g.seq)
	g.files = append(g.files, made{path, d})
	g.ns.delta[d]++
	return call{op: opCreate, path: path}
}

func (g *generator) mkdir(d int) call {
	g.seq++
	path := join(g.ns.dirs[d], "sub-w", g.w, g.seq)
	g.subdir = append(g.subdir, made{path, d})
	g.ns.delta[d]++
	return call{op: opMkdir, path: path}
}

// next plans the worker's next operation. Deletes, renames and rmdirs target
// names this worker made earlier (falling back to making one), and reads
// target preloaded files, which nothing removes: no operation is planned to
// fail.
func (g *generator) next() call {
	op := g.pickOp()
	d := g.pickDir()
	switch op {
	case opCreate:
		return g.create(d)
	case opDelete:
		n := len(g.files)
		if n == 0 {
			return g.create(d)
		}
		f := g.files[n-1]
		g.files = g.files[:n-1]
		g.ns.delta[f.dir]--
		return call{op: opDelete, path: f.path}
	case opRename:
		n := len(g.files)
		if n == 0 {
			return g.create(d)
		}
		src := g.files[n-1]
		g.seq++
		dst := made{join(g.ns.dirs[d], "r", g.w, g.seq), d}
		g.files[n-1] = dst
		g.ns.delta[src.dir]--
		g.ns.delta[d]++
		return call{op: opRename, path: src.path, path2: dst.path}
	case opMkdir:
		return g.mkdir(d)
	case opRmdir:
		n := len(g.subdir)
		if n == 0 {
			return g.mkdir(d)
		}
		sd := g.subdir[n-1]
		g.subdir = g.subdir[:n-1]
		g.ns.delta[sd.dir]--
		return call{op: opRmdir, path: sd.path}
	case opStatDir, opReadDir:
		return call{op: op, path: g.ns.dirs[d]}
	case opDataRead, opDataWrite:
		return call{op: op, bytes: dataBytes, shard: g.rnd.intn(64)}
	default: // stat, open, close, chmod: a preloaded file
		return call{op: op, path: join(g.ns.dirs[d], "f", g.rnd.intn(g.ns.filesPerDir), -1)}
	}
}
