package metrics

import (
	"reflect"
	"testing"
)

func TestNilRegistryIsNoop(t *testing.T) {
	var r *Registry
	r.Add("x", 1)
	if snap := r.Snapshot(); snap != nil {
		t.Fatalf("nil registry snapshot: %v", snap)
	}
}

func TestSnapshotAndDelta(t *testing.T) {
	r := New()
	r.Add("server.0.ops", 10)
	r.Add("server.0.pushes", 3)
	before := r.Snapshot()
	r.Add("server.0.ops", 5)
	r.Add("server.1.ops", 1)
	d := Delta(before, r.Snapshot())
	// The unchanged counter subtracts to zero and is dropped from the delta.
	want := map[string]uint64{"server.0.ops": 5, "server.1.ops": 1}
	if !reflect.DeepEqual(d, want) {
		t.Fatalf("delta %v, want %v", d, want)
	}
	// A counter that fell is taken at its new value.
	if d := Delta(map[string]uint64{"server.0.ops": 9}, map[string]uint64{"server.0.ops": 4}); d["server.0.ops"] != 4 {
		t.Fatalf("fallen counter delta %v, want 4", d)
	}
}
