package chaos

import (
	"testing"

	"switchfs/internal/env"
)

// dataGeometry is the data-plane deployment the data plans run against.
func dataGeometry() Geometry {
	return Geometry{Servers: 4, Clients: 2, Switches: 1, DataNodes: 4, DataReplication: 2}
}

// TestRandomPlanDataFaultsSerialized: generated data-node crash windows
// never overlap, keeping concurrent data failures at r−1 so acked content
// must always survive.
func TestRandomPlanDataFaultsSerialized(t *testing.T) {
	g := dataGeometry()
	sawData := false
	for seed := int64(1); seed <= 64; seed++ {
		p := RandomPlan(seed, g, 8*ms)
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		type win struct{ from, to env.Duration }
		var wins []win
		open := map[int]env.Duration{}
		for _, ev := range p.Sorted() {
			switch ev.Kind {
			case KindCrashDataNode:
				open[ev.Data] = ev.At
			case KindRecoverDataNode:
				wins = append(wins, win{open[ev.Data], ev.At})
				delete(open, ev.Data)
			}
		}
		if len(wins) > 0 {
			sawData = true
		}
		for i := 0; i < len(wins); i++ {
			for j := i + 1; j < len(wins); j++ {
				a, b := wins[i], wins[j]
				if a.from < b.to && b.from < a.to {
					t.Errorf("seed %d: overlapping data-crash windows %+v %+v", seed, a, b)
				}
			}
		}
	}
	if !sawData {
		t.Error("64 seeds generated no data faults at all")
	}
}
