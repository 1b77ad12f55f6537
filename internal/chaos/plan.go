// Package chaos is the declarative fault-injection subsystem: typed fault
// events scheduled at virtual times (a Plan) and executed deterministically
// against a cluster (Apply, the Injector). Checked runs across a plan —
// lincheck's concurrent programs and the closed-loop mix the FigChaos and
// FigRebalance figures drive — are lincheck.Run's.
//
// The paper demonstrates recovery for a handful of hand-written scenarios
// (§5.4, §7.7); this package turns those scenarios into data. A plan is a
// value — it can be listed, pretty-printed, generated from a seed, and run
// twice to byte-identical results.
package chaos

import (
	"fmt"
	"sort"
	"strings"

	"switchfs/internal/env"
)

// Kind is the type of one fault event.
type Kind uint8

// Fault-event kinds.
const (
	// KindCrashServer fail-stops a server (volatile state lost, WAL kept).
	KindCrashServer Kind = iota
	// KindRecoverServer restarts a crashed server and runs §5.4.2 recovery.
	KindRecoverServer
	// KindCrashSwitch reboots the switches: all dirty-set state is lost.
	KindCrashSwitch
	// KindRecoverSwitch restores switch consistency by flushing change-logs.
	KindRecoverSwitch
	// KindPartition cuts every link between two node groups (one-way when
	// asymmetric), named so a later Heal can remove exactly these edges.
	KindPartition
	// KindLinkFault installs loss/duplication/delay/reorder rules on every
	// link between two node groups.
	KindLinkFault
	// KindHeal removes the link rules installed under the event's name.
	KindHeal
	// KindDegradeServer caps a server's usable cores (gray failure).
	KindDegradeServer
	// KindRestoreServer restores a degraded server's configured cores.
	KindRestoreServer
	// KindSlowSwitch adds pipeline delay to a switch (gray failure).
	KindSlowSwitch
	// KindRestoreSwitch removes a switch's gray-failure delay.
	KindRestoreSwitch
	// KindReconfigure resizes the metadata cluster (§5.5) — scheduled like
	// any fault so plans can race it against crashes and partitions.
	KindReconfigure
	// KindCrashDataNode fail-stops a data node: its volatile chunk store is
	// lost and surviving replicas carry the durability.
	KindCrashDataNode
	// KindRecoverDataNode restarts a crashed data node and re-replicates
	// its stripes from the peers before it serves again.
	KindRecoverDataNode
	// KindRebalance runs one hot-directory balancer pass (§5.5): if the
	// per-server load spread warrants it, the hottest fingerprint group
	// migrates off the most-loaded server through the live gate-and-drain
	// protocol — scheduled like any fault so plans can race it against
	// crashes and partitions.
	KindRebalance
)

var kindNames = [...]string{
	"crash-server", "recover-server", "crash-switch", "recover-switch",
	"partition", "link-fault", "heal", "degrade-server", "restore-server",
	"slow-switch", "restore-switch", "reconfigure",
	"crash-datanode", "recover-datanode", "rebalance",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Rule is the fault intensity of a link-fault event, mirrored onto
// env.LinkRule for every selected link.
type Rule struct {
	// Drop and Dup are per-message probabilities.
	Drop float64
	Dup  float64
	// Delay adds fixed one-way latency; Jitter adds uniform random latency
	// in [0, Jitter) — nonzero jitter reorders packets sharing the link.
	Delay  env.Duration
	Jitter env.Duration
}

// NodeSel selects cluster nodes declaratively, by role and index. Indices
// out of range for the deployed geometry are skipped, so plans written for
// the paper's eight-server setup degrade gracefully on smaller clusters.
type NodeSel struct {
	Servers   []int
	Clients   []int
	Switches  []int
	DataNodes []int
	// AllServers / AllClients / AllSwitches / AllDataNodes select the
	// whole role.
	AllServers   bool
	AllClients   bool
	AllSwitches  bool
	AllDataNodes bool
}

func (s NodeSel) String() string {
	var parts []string
	role := func(all bool, name string, idx []int) {
		switch {
		case all:
			parts = append(parts, name+"[*]")
		case len(idx) > 0:
			cells := make([]string, len(idx))
			for i, v := range idx {
				cells[i] = fmt.Sprintf("%d", v)
			}
			parts = append(parts, name+"["+strings.Join(cells, ",")+"]")
		}
	}
	role(s.AllServers, "srv", s.Servers)
	role(s.AllClients, "cli", s.Clients)
	role(s.AllSwitches, "sw", s.Switches)
	role(s.AllDataNodes, "dn", s.DataNodes)
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "+")
}

// Event is one scheduled fault (or repair) of a plan.
type Event struct {
	// At is the virtual-time offset from the plan's start.
	At env.Duration
	// Kind selects the action; the remaining fields parameterize it.
	Kind Kind
	// Name labels a link fault or partition so Heal can target it.
	Name string
	// Server / Switch / Data are role indices for the single-node kinds.
	Server int
	Switch int
	Data   int
	// Cores is the degraded core count of KindDegradeServer.
	Cores int
	// Delay is the extra pipeline delay of KindSlowSwitch.
	Delay env.Duration
	// NewServers is the target size of KindReconfigure.
	NewServers int
	// From and To are the endpoint groups of partitions and link faults.
	From, To NodeSel
	// OneWay limits the fault to the From→To direction (asymmetric faults).
	OneWay bool
	// Rule is the link-fault intensity.
	Rule Rule
}

// String renders one event for timelines.
func (e Event) String() string {
	at := fmt.Sprintf("%8.2fms", float64(e.At)/1e6)
	switch e.Kind {
	case KindCrashServer, KindRecoverServer:
		return fmt.Sprintf("%s  %-14s server %d", at, e.Kind, e.Server)
	case KindCrashDataNode, KindRecoverDataNode:
		return fmt.Sprintf("%s  %-16s data node %d", at, e.Kind, e.Data)
	case KindCrashSwitch, KindRecoverSwitch:
		return fmt.Sprintf("%s  %-14s all switches", at, e.Kind)
	case KindPartition:
		dir := "<->"
		if e.OneWay {
			dir = "-->"
		}
		return fmt.Sprintf("%s  %-14s %q %s %s %s", at, e.Kind, e.Name, e.From, dir, e.To)
	case KindLinkFault:
		dir := "<->"
		if e.OneWay {
			dir = "-->"
		}
		return fmt.Sprintf("%s  %-14s %q %s %s %s drop=%.2f dup=%.2f delay=%dµs jitter=%dµs",
			at, e.Kind, e.Name, e.From, dir, e.To,
			e.Rule.Drop, e.Rule.Dup, e.Rule.Delay/env.Microsecond, e.Rule.Jitter/env.Microsecond)
	case KindHeal:
		return fmt.Sprintf("%s  %-14s %q", at, e.Kind, e.Name)
	case KindDegradeServer:
		return fmt.Sprintf("%s  %-14s server %d to %d cores", at, e.Kind, e.Server, e.Cores)
	case KindRestoreServer:
		return fmt.Sprintf("%s  %-14s server %d", at, e.Kind, e.Server)
	case KindSlowSwitch:
		return fmt.Sprintf("%s  %-14s switch %d +%dµs/packet", at, e.Kind, e.Switch, e.Delay/env.Microsecond)
	case KindRestoreSwitch:
		return fmt.Sprintf("%s  %-14s switch %d", at, e.Kind, e.Switch)
	case KindReconfigure:
		return fmt.Sprintf("%s  %-14s to %d servers", at, e.Kind, e.NewServers)
	case KindRebalance:
		return fmt.Sprintf("%s  %-14s balancer pass", at, e.Kind)
	default:
		return fmt.Sprintf("%s  %s", at, e.Kind)
	}
}

// Plan is a named, declarative fault schedule over one run.
type Plan struct {
	Name string
	// Desc is a one-line description for listings.
	Desc string
	// Horizon is the load window: workers issue operations for this long
	// (virtual time); every event fires inside it.
	Horizon env.Duration
	Events  []Event
}

// Sorted returns the events ordered by time (stable, so same-time events
// keep their authoring order).
func (p Plan) Sorted() []Event {
	evs := append([]Event(nil), p.Events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	return evs
}

// Timeline renders the plan's event schedule for fsctl.
func (p Plan) Timeline() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan %s — %s (horizon %.0fms, %d events)\n",
		p.Name, p.Desc, float64(p.Horizon)/1e6, len(p.Events))
	for _, ev := range p.Sorted() {
		b.WriteString("  ")
		b.WriteString(ev.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Validate rejects structurally broken plans: events outside the horizon,
// heals of names never installed, unhealed link faults (which would leave
// the post-run audit running against a broken fabric), and crashes without
// recovery.
func (p Plan) Validate() error {
	if p.Horizon <= 0 {
		return fmt.Errorf("chaos: plan %s has no horizon", p.Name)
	}
	installed := map[string]bool{}
	healed := map[string]bool{}
	crashed := map[int]int{}
	dataCrashed := map[int]int{}
	switchDown := 0
	for _, ev := range p.Sorted() {
		if ev.At < 0 || ev.At > p.Horizon {
			return fmt.Errorf("chaos: plan %s: event %q at %.2fms outside horizon",
				p.Name, ev.Kind.String(), float64(ev.At)/1e6)
		}
		switch ev.Kind {
		case KindPartition, KindLinkFault:
			if ev.Name == "" {
				return fmt.Errorf("chaos: plan %s: unnamed %s cannot be healed", p.Name, ev.Kind)
			}
			installed[ev.Name] = true
		case KindHeal:
			if !installed[ev.Name] {
				return fmt.Errorf("chaos: plan %s: heal of unknown fault %q", p.Name, ev.Name)
			}
			healed[ev.Name] = true
		case KindCrashServer:
			if crashed[ev.Server] > 0 {
				return fmt.Errorf("chaos: plan %s: server %d crashed twice without recovery", p.Name, ev.Server)
			}
			crashed[ev.Server]++
		case KindRecoverServer:
			if crashed[ev.Server] == 0 {
				return fmt.Errorf("chaos: plan %s: recovery of server %d, which is not crashed", p.Name, ev.Server)
			}
			crashed[ev.Server]--
		case KindCrashSwitch:
			switchDown++
		case KindRecoverSwitch:
			if switchDown == 0 {
				return fmt.Errorf("chaos: plan %s: switch recovery without a preceding crash", p.Name)
			}
			switchDown--
		case KindCrashDataNode:
			if dataCrashed[ev.Data] > 0 {
				return fmt.Errorf("chaos: plan %s: data node %d crashed twice without recovery", p.Name, ev.Data)
			}
			dataCrashed[ev.Data]++
		case KindRecoverDataNode:
			if dataCrashed[ev.Data] == 0 {
				return fmt.Errorf("chaos: plan %s: recovery of data node %d, which is not crashed", p.Name, ev.Data)
			}
			dataCrashed[ev.Data]--
		}
	}
	for name := range installed {
		if !healed[name] {
			return fmt.Errorf("chaos: plan %s: fault %q is never healed", p.Name, name)
		}
	}
	for srv, n := range crashed {
		if n > 0 {
			return fmt.Errorf("chaos: plan %s: server %d is crashed and never recovered", p.Name, srv)
		}
	}
	for dn, n := range dataCrashed {
		if n > 0 {
			return fmt.Errorf("chaos: plan %s: data node %d is crashed and never recovered", p.Name, dn)
		}
	}
	if switchDown > 0 {
		return fmt.Errorf("chaos: plan %s: switches crash and never recover", p.Name)
	}
	return nil
}

// --- event constructors -----------------------------------------------------

// CrashServer fail-stops server i at offset at.
func CrashServer(at env.Duration, i int) Event {
	return Event{At: at, Kind: KindCrashServer, Server: i}
}

// RecoverServer restarts server i at offset at.
func RecoverServer(at env.Duration, i int) Event {
	return Event{At: at, Kind: KindRecoverServer, Server: i}
}

// CrashSwitch reboots the switches at offset at.
func CrashSwitch(at env.Duration) Event { return Event{At: at, Kind: KindCrashSwitch} }

// RecoverSwitch restores switch consistency at offset at.
func RecoverSwitch(at env.Duration) Event { return Event{At: at, Kind: KindRecoverSwitch} }

// Partition cuts all links between a and b (one-way when oneWay).
func Partition(at env.Duration, name string, a, b NodeSel, oneWay bool) Event {
	return Event{At: at, Kind: KindPartition, Name: name, From: a, To: b, OneWay: oneWay}
}

// LinkFault degrades all links between a and b with rule r.
func LinkFault(at env.Duration, name string, a, b NodeSel, r Rule) Event {
	return Event{At: at, Kind: KindLinkFault, Name: name, From: a, To: b, Rule: r}
}

// Heal removes the named partition or link fault.
func Heal(at env.Duration, name string) Event {
	return Event{At: at, Kind: KindHeal, Name: name}
}

// DegradeServer caps server i to the given core count.
func DegradeServer(at env.Duration, i, cores int) Event {
	return Event{At: at, Kind: KindDegradeServer, Server: i, Cores: cores}
}

// RestoreServer restores server i's configured cores.
func RestoreServer(at env.Duration, i int) Event {
	return Event{At: at, Kind: KindRestoreServer, Server: i}
}

// SlowSwitch adds d of pipeline delay to switch i.
func SlowSwitch(at env.Duration, i int, d env.Duration) Event {
	return Event{At: at, Kind: KindSlowSwitch, Switch: i, Delay: d}
}

// RestoreSwitch removes switch i's gray-failure delay.
func RestoreSwitch(at env.Duration, i int) Event {
	return Event{At: at, Kind: KindRestoreSwitch, Switch: i}
}

// Reconfigure resizes the cluster to n servers at offset at.
func Reconfigure(at env.Duration, n int) Event {
	return Event{At: at, Kind: KindReconfigure, NewServers: n}
}

// RebalancePass runs one hot-directory balancer pass at offset at.
func RebalancePass(at env.Duration) Event {
	return Event{At: at, Kind: KindRebalance}
}

// CrashDataNode fail-stops data node i at offset at.
func CrashDataNode(at env.Duration, i int) Event {
	return Event{At: at, Kind: KindCrashDataNode, Data: i}
}

// RecoverDataNode restarts data node i at offset at.
func RecoverDataNode(at env.Duration, i int) Event {
	return Event{At: at, Kind: KindRecoverDataNode, Data: i}
}
