package chaos

import (
	"fmt"
	"math/rand"

	"switchfs/internal/env"
)

// Geometry names the deployed shape a plan is authored against.
type Geometry struct {
	Servers  int
	Clients  int
	Switches int
	// DataNodes sizes the data plane; zero keeps plans metadata-only.
	DataNodes int
	// DataReplication is the data plane's replication factor r (default 2).
	// Data-fault plans keep concurrent data-node failures at r−1 so that an
	// acknowledged content write is always expected to survive.
	DataReplication int
}

// DefaultGeometry is the paper's evaluation setup (§7.1) plus a four-node
// replicated data plane for the end-to-end content path (§7.6).
func DefaultGeometry() Geometry {
	return Geometry{Servers: 8, Clients: 4, Switches: 1, DataNodes: 4, DataReplication: 2}
}

const ms = env.Millisecond

// BuiltinPlans returns the curated scenario catalog for a geometry: the
// §5.4/§7.7 recovery stories plus the failure modes they leave unexplored —
// partitions (symmetric, asymmetric, rack-correlated), flaky links, gray
// failures, and reconfiguration racing a crash or a switch reboot.
func BuiltinPlans(g Geometry) []Plan {
	rack := func(lo, hi int) []int { // server indices [lo, hi)
		var out []int
		for i := lo; i < hi && i < g.Servers; i++ {
			out = append(out, i)
		}
		return out
	}
	half := g.Servers / 2
	if half == 0 {
		half = 1
	}
	plans := []Plan{
		{
			Name:    "server-crash",
			Desc:    "fail-stop one server under load, recover from its WAL (§5.4.2)",
			Horizon: 8 * ms,
			Events: []Event{
				CrashServer(1*ms, 1),
				RecoverServer(4*ms, 1),
			},
		},
		{
			Name:    "switch-reboot",
			Desc:    "lose all dirty-set state, flush change-logs to re-converge (§5.4.2)",
			Horizon: 8 * ms,
			Events: []Event{
				CrashSwitch(2 * ms),
				RecoverSwitch(3 * ms),
			},
		},
		{
			Name:    "switch-reboot-server-down",
			Desc:    "reboot the switch while a server is down: every query answers dirty until it recovers (§5.4.2)",
			Horizon: 8 * ms,
			Events: []Event{
				CrashServer(1*ms, 1),
				CrashSwitch(2 * ms),
				RecoverSwitch(3 * ms),
				RecoverServer(5*ms, 1),
			},
		},
		{
			Name:    "rack-partition",
			Desc:    "cut one server rack off from the rest of the cluster, then heal",
			Horizon: 8 * ms,
			Events: []Event{
				Partition(1*ms, "rack",
					NodeSel{Servers: rack(half, g.Servers)},
					NodeSel{Servers: rack(0, half), AllClients: true, AllSwitches: true},
					false),
				Heal(3500*env.Microsecond, "rack"),
			},
		},
		{
			Name:    "asym-partition",
			Desc:    "asymmetric fault: client 0's requests to server 1 vanish, replies flow",
			Horizon: 8 * ms,
			Events: []Event{
				Partition(1*ms, "asym",
					NodeSel{Clients: []int{0}},
					NodeSel{Servers: []int{1}},
					true),
				Heal(4*ms, "asym"),
			},
		},
		{
			Name:    "flaky-links",
			Desc:    "loss, duplication and reorder on every client-server link (§5.4.1)",
			Horizon: 8 * ms,
			Events: []Event{
				LinkFault(1*ms, "flaky",
					NodeSel{AllClients: true},
					NodeSel{AllServers: true},
					Rule{Drop: 0.1, Dup: 0.1, Jitter: 5 * env.Microsecond}),
				Heal(6*ms, "flaky"),
			},
		},
		{
			Name:    "gray",
			Desc:    "gray failures: one server loses cores, one switch pipe slows",
			Horizon: 8 * ms,
			Events: []Event{
				DegradeServer(1*ms, 0, 1),
				SlowSwitch(1*ms, 0, 4*env.Microsecond),
				RestoreServer(6*ms, 0),
				RestoreSwitch(6*ms, 0),
			},
		},
		{
			Name:    "reconfig-crash",
			Desc:    "grow the cluster while a server fail-stops and recovers mid-flight (§5.5)",
			Horizon: 10 * ms,
			Events: []Event{
				CrashServer(900*env.Microsecond, 2),
				Reconfigure(1*ms, g.Servers+2),
				RecoverServer(2*ms, 2),
			},
		},
		{
			Name:    "reconfig-switch-reboot",
			Desc:    "grow the cluster in the instant a rebooted switch's change-log flush starts (§5.4.2, §5.5)",
			Horizon: 8 * ms,
			Events: []Event{
				CrashSwitch(900 * env.Microsecond),
				RecoverSwitch(1 * ms),
				Reconfigure(1*ms, g.Servers+2),
			},
		},
	}
	if g.DataNodes > 0 {
		// Data-fault catalog: ≤ r−1 concurrent data-node failures, so every
		// acknowledged content write must survive (the data oracle's core
		// guarantee). Rolling crashes are sequenced, never overlapped.
		plans = append(plans,
			Plan{
				Name:    "data-crash",
				Desc:    "fail-stop one data node under striped writes; re-replicate on recovery (§7.6)",
				Horizon: 8 * ms,
				Events: []Event{
					CrashDataNode(1*ms, 1%g.DataNodes),
					RecoverDataNode(4*ms, 1%g.DataNodes),
				},
			},
			Plan{
				Name:    "data-rolling",
				Desc:    "crash and recover two data nodes back to back (replication carries each window)",
				Horizon: 10 * ms,
				Events: []Event{
					CrashDataNode(1*ms, 0),
					RecoverDataNode(3*ms, 0),
					CrashDataNode(5*ms, (g.DataNodes-1)%g.DataNodes),
					RecoverDataNode(7*ms, (g.DataNodes-1)%g.DataNodes),
				},
			},
			Plan{
				Name:    "data-flaky",
				Desc:    "duplication and reorder on every client↔data link (chunk RPC dedup, §5.4.1)",
				Horizon: 8 * ms,
				Events: []Event{
					LinkFault(1*ms, "dflaky",
						NodeSel{AllClients: true},
						NodeSel{AllDataNodes: true},
						Rule{Drop: 0.05, Dup: 0.2, Jitter: 5 * env.Microsecond}),
					Heal(6*ms, "dflaky"),
				},
			},
		)
	}
	return plans
}

// BuiltinPlan returns the named plan, or false.
func BuiltinPlan(g Geometry, name string) (Plan, bool) {
	for _, p := range BuiltinPlans(g) {
		if p.Name == name {
			return p, true
		}
	}
	return Plan{}, false
}

// RandomPlan generates a well-formed plan from a seed: a handful of
// fault/repair pairs with randomized targets, intensities and overlapping
// windows, every fault healed and every crash recovered before the horizon.
// The same seed and geometry always produce the same plan — the search-style
// entry point (`fsbench -fig chaos -seed N`) sweeps seeds to explore the
// scenario space.
func RandomPlan(seed int64, g Geometry, horizon env.Duration) Plan {
	rnd := rand.New(rand.NewSource(seed))
	p := Plan{
		Name:    fmt.Sprintf("random-%d", seed),
		Desc:    fmt.Sprintf("seeded random fault schedule (seed %d)", seed),
		Horizon: horizon,
	}
	// Fault windows live inside [horizon/8, horizon*3/4] so load exists on
	// both sides of every fault.
	window := func() (from, to env.Duration) {
		lo := horizon / 8
		hi := horizon * 3 / 4
		from = lo + env.Duration(rnd.Int63n(int64(hi-lo)))
		minLen := horizon / 16
		maxLen := horizon / 3
		to = from + minLen + env.Duration(rnd.Int63n(int64(maxLen-minLen)))
		if to > hi {
			to = hi
		}
		return from, to
	}
	crashed := map[int]bool{}
	// Data-node crash windows are serialized (dataBusyUntil): overlapping
	// windows could take a chunk's whole replica set down at once, and the
	// generator's contract is ≤ r−1 concurrent data failures so every
	// acknowledged content write must survive the plan.
	dataBusyUntil := env.Duration(0)
	kinds := 6
	if g.DataNodes > 0 {
		kinds = 7
	}
	n := 2 + rnd.Intn(3)
	for i := 0; i < n; i++ {
		from, to := window()
		switch rnd.Intn(kinds) {
		case 0: // crash/recover a server (each server at most once)
			s := rnd.Intn(g.Servers)
			if crashed[s] {
				continue
			}
			crashed[s] = true
			p.Events = append(p.Events, CrashServer(from, s), RecoverServer(to, s))
		case 1: // switch reboot
			p.Events = append(p.Events, CrashSwitch(from), RecoverSwitch(to))
		case 2: // partition a random server group off
			cut := 1 + rnd.Intn(max(1, g.Servers/2))
			var a, rest []int
			perm := rnd.Perm(g.Servers)
			for j, s := range perm {
				if j < cut {
					a = append(a, s)
				} else {
					rest = append(rest, s)
				}
			}
			name := fmt.Sprintf("part%d", i)
			p.Events = append(p.Events,
				Partition(from, name,
					NodeSel{Servers: a},
					NodeSel{Servers: rest, AllClients: true, AllSwitches: true},
					rnd.Intn(4) == 0),
				Heal(to, name))
		case 3: // flaky links
			name := fmt.Sprintf("flaky%d", i)
			p.Events = append(p.Events,
				LinkFault(from, name,
					NodeSel{AllClients: true},
					NodeSel{Servers: []int{rnd.Intn(g.Servers)}},
					Rule{
						Drop:   float64(rnd.Intn(3)) * 0.05,
						Dup:    float64(rnd.Intn(3)) * 0.05,
						Jitter: env.Duration(rnd.Intn(8)) * env.Microsecond,
					}),
				Heal(to, name))
		case 4: // degrade a server's cores
			s := rnd.Intn(g.Servers)
			p.Events = append(p.Events, DegradeServer(from, s, 1), RestoreServer(to, s))
		case 6: // crash/recover a data node (windows never overlap)
			if from <= dataBusyUntil {
				continue
			}
			d := rnd.Intn(g.DataNodes)
			// The node stays down PAST the recover event until its
			// re-replication pull completes; the margin keeps the next
			// window clear of that tail so concurrent data failures stay
			// at r−1 and the wipe taint never fires spuriously.
			dataBusyUntil = to + ms
			p.Events = append(p.Events, CrashDataNode(from, d), RecoverDataNode(to, d))
		default: // slow a switch pipe
			sw := rnd.Intn(max(1, g.Switches))
			p.Events = append(p.Events,
				SlowSwitch(from, sw, env.Duration(1+rnd.Intn(6))*env.Microsecond),
				RestoreSwitch(to, sw))
		}
	}
	if len(p.Events) == 0 {
		// Every draw collided (tiny geometry): fall back to one crash cycle.
		p.Events = append(p.Events,
			CrashServer(horizon/4, 0), RecoverServer(horizon/2, 0))
	}
	return p
}
