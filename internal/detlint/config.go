package detlint

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"strings"
)

//go:embed detlint.json
var configJSON []byte

// Config is the compiled-in analyzer configuration (detlint.json). Each
// analyzer exposes flags that override the relevant fields, so one-off runs
// (and the testdata suites) can retarget the suite without editing the file.
type Config struct {
	// EnvPackage is the import path of the simulator runtime. Methods named
	// Send, Spawn and After on types of this package are the packet-emission
	// and scheduling roots the maprange and walorder analyzers trace.
	EnvPackage string `json:"envPackage"`
	// WalPackage is the import path of the write-ahead log; method Append on
	// its types is the durability root the walorder analyzer traces.
	WalPackage string `json:"walPackage"`
	// WirePackage is the import path of the wire message package; its types
	// are the packet values the sendalias analyzer tracks across Send, and
	// ReqCommon embedded in a request marks it retransmittable (idempotent).
	WirePackage string `json:"wirePackage"`
	// KvPackage is the import path of the key-value store; its Put/Delete
	// methods are state mutations for the idempotent analyzer.
	KvPackage string `json:"kvPackage"`
	// TaintPackages are the packages the dettaint analyzer governs: the sim
	// packages plus the bench/figure pipeline the rows flow through.
	TaintPackages []string `json:"taintPackages"`
	// TaintSources are the nondeterminism source functions ("time.Now",
	// "switchfs/internal/env.Sim.WorkerCount").
	TaintSources []string `json:"taintSources"`
	// TaintSinkTypes are the row/result types nondeterminism must not reach
	// ("switchfs/internal/bench.Figure").
	TaintSinkTypes []string `json:"taintSinkTypes"`
	// SimPackages are the packages whose code is executed under the
	// deterministic simulator, the simulator itself included: no unordered
	// map iteration reaching the wire (maprange), no wall clock or global
	// randomness (wallclock), and env.Proc/env primitives instead of raw
	// goroutines, channels and sync types (rawgo).
	SimPackages []string `json:"simPackages"`
}

func loadConfig() Config {
	var c Config
	if err := json.Unmarshal(configJSON, &c); err != nil {
		panic(fmt.Sprintf("detlint: embedded detlint.json is invalid: %v", err))
	}
	return c
}

// conf is the process-wide configuration; analyzer flags mutate the fields
// they name before the first Run.
var conf = loadConfig()

// listFlag adapts a []string config field to a comma-separated flag value.
type listFlag struct{ p *[]string }

func (f listFlag) String() string {
	if f.p == nil {
		return ""
	}
	return strings.Join(*f.p, ",")
}

func (f listFlag) Set(s string) error {
	if s == "" {
		*f.p = nil
		return nil
	}
	*f.p = strings.Split(s, ",")
	return nil
}

func addListFlag(fs *flag.FlagSet, p *[]string, name, usage string) {
	fs.Var(listFlag{p}, name, usage)
}

// pkgMatch reports whether path is one of the configured package paths.
func pkgMatch(paths []string, path string) bool {
	for _, p := range paths {
		if path == p {
			return true
		}
	}
	return false
}

// isTestFile reports whether filename is a Go test file. The determinism
// invariants govern protocol code; tests legitimately read the host
// (goroutine counts, wall-clock timeouts) and iterate maps unordered.
func isTestFile(filename string) bool {
	return strings.HasSuffix(filename, "_test.go")
}
