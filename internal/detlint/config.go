package detlint

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
)

//go:embed detlint.json
var configJSON []byte

// Config is the compiled-in analyzer configuration (detlint.json): the
// policy is reviewable in one place, and the testdata suites stub packages
// at the same import paths.
type Config struct {
	// EnvPackage is the import path of the simulator runtime. Methods named
	// Send, Spawn and After on types of this package are the packet-emission
	// and scheduling roots the summary traces.
	EnvPackage string `json:"envPackage"`
	// WalPackage is the import path of the write-ahead log; methods Append
	// and AppendTransient on its types make a WAL record, one of dettaint's
	// sinks.
	WalPackage string `json:"walPackage"`
	// WirePackage is the import path of the wire message package; its types
	// are the packet values the sendalias analyzer tracks across Send.
	WirePackage string `json:"wirePackage"`
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
	// map iteration reaching the wire (maprange), and no wall clock, global
	// randomness, raw goroutines, channels or sync types (hostapi).
	SimPackages []string `json:"simPackages"`
}

func loadConfig() Config {
	var c Config
	if err := json.Unmarshal(configJSON, &c); err != nil {
		panic(fmt.Sprintf("detlint: embedded detlint.json is invalid: %v", err))
	}
	return c
}

// conf is the process-wide configuration.
var conf = loadConfig()

// pkgMatch reports whether path is one of the configured package paths.
func pkgMatch(paths []string, path string) bool {
	return slices.Contains(paths, path)
}

// isTestFile reports whether filename is a Go test file. The determinism
// invariants govern protocol code; tests legitimately read the host
// (goroutine counts, wall-clock timeouts) and iterate maps unordered.
func isTestFile(filename string) bool {
	return strings.HasSuffix(filename, "_test.go")
}
