package detlint

import (
	"testing"

	"switchfs/internal/detlint/dtest"
)

// Each suite analyzes a GOPATH-style tree under testdata/<analyzer>/src with
// stub env/wal/stdlib packages whose import paths match the embedded config,
// so the analyzers run exactly as they do over the real tree.

func TestMaprange(t *testing.T) {
	dtest.Run(t, "testdata/maprange", Maprange, "switchfs/internal/server")
}

// hostapi has two fixtures: the wall clock and global randomness, and host
// concurrency.
func TestWallclock(t *testing.T) {
	dtest.Run(t, "testdata/wallclock", Hostapi, "switchfs/internal/server")
}

func TestRawgo(t *testing.T) {
	dtest.Run(t, "testdata/rawgo", Hostapi, "switchfs/internal/server")
}

func TestLockpair(t *testing.T) {
	dtest.Run(t, "testdata/lockpair", Lockpair, "switchfs/internal/server")
}

func TestSendalias(t *testing.T) {
	dtest.Run(t, "testdata/sendalias", Sendalias, "switchfs/internal/pswitch")
}

func TestDettaint(t *testing.T) {
	dtest.Run(t, "testdata/dettaint", Dettaint, "switchfs/internal/server")
}

func TestDetdirective(t *testing.T) {
	dtest.Run(t, "testdata/detdirective", Detdirective, "switchfs/internal/server")
}
