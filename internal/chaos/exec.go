package chaos

import (
	"fmt"

	"switchfs/internal/cluster"
	"switchfs/internal/env"
)

// directedLink is one fault-rule installation, remembered for Heal.
type directedLink struct{ from, to env.NodeID }

// Injector executes a plan against a cluster on virtual-time timers. All
// event application is deterministic: timers fire in (time, insertion)
// order and every random decision downstream comes from the simulation's
// seeded generator.
type Injector struct {
	c *cluster.Cluster
	e *env.Sim
	// active maps fault name → installed directed link rules, for Heal.
	active map[string][]directedLink
	// pending collects futures of recoveries and reconfigurations the plan
	// started; awaitClean verifies they completed.
	pending []pendingOp
	// errs records apply-time problems (bad targets, double heal).
	errs []string
}

type pendingOp struct {
	what string
	fut  *env.Future
}

// Apply schedules every event of the plan relative to the current virtual
// time and returns the injector tracking its side effects.
func Apply(e *env.Sim, c *cluster.Cluster, p Plan) *Injector {
	inj := &Injector{c: c, e: e, active: make(map[string][]directedLink)}
	for _, ev := range p.Sorted() {
		ev := ev
		e.After(ev.At, func() { inj.exec(ev) })
	}
	return inj
}

// resolve expands a selector against the deployed geometry. Out-of-range
// indices are dropped.
func (inj *Injector) resolve(s NodeSel) []env.NodeID {
	var out []env.NodeID
	if s.AllServers {
		for i := range inj.c.Servers {
			out = append(out, inj.c.ServerID(i))
		}
	} else {
		for _, i := range s.Servers {
			if i >= 0 && i < len(inj.c.Servers) {
				out = append(out, inj.c.ServerID(i))
			}
		}
	}
	if s.AllClients {
		for i := range inj.c.Clients {
			out = append(out, inj.c.Clients[i].ID())
		}
	} else {
		for _, i := range s.Clients {
			if i >= 0 && i < len(inj.c.Clients) {
				out = append(out, inj.c.Clients[i].ID())
			}
		}
	}
	if s.AllSwitches {
		for i := range inj.c.Switches {
			out = append(out, inj.c.SwitchID(i))
		}
	} else {
		for _, i := range s.Switches {
			if i >= 0 && i < len(inj.c.Switches) {
				out = append(out, inj.c.SwitchID(i))
			}
		}
	}
	if s.AllDataNodes {
		out = append(out, inj.c.DataNodes...)
	} else {
		for _, i := range s.DataNodes {
			if i >= 0 && i < len(inj.c.DataNodes) {
				out = append(out, inj.c.DataNodes[i])
			}
		}
	}
	return out
}

// exec applies one event. It runs in timer context (no blocking); event
// kinds that need a process (recovery, reconfiguration) spawn one via the
// cluster hooks and are tracked as pending.
func (inj *Injector) exec(ev Event) {
	c := inj.c
	switch ev.Kind {
	case KindCrashServer:
		if ev.Server >= 0 && ev.Server < len(c.Servers) {
			c.CrashServer(ev.Server)
		}
	case KindRecoverServer:
		if ev.Server >= 0 && ev.Server < len(c.Servers) && c.Servers[ev.Server].Node().Down() {
			// Recovering a live server would restart a fresh incarnation on
			// top of a still-running one; only crashed nodes recover.
			inj.track(fmt.Sprintf("recover-server %d", ev.Server), c.RecoverServer(ev.Server))
		}
	case KindCrashSwitch:
		c.CrashSwitch()
	case KindRecoverSwitch:
		inj.track("recover-switch", c.RecoverSwitch())
	case KindPartition:
		inj.installLinks(ev, env.LinkRule{Cut: true})
	case KindLinkFault:
		inj.installLinks(ev, env.LinkRule{
			Drop: ev.Rule.Drop, Dup: ev.Rule.Dup,
			Delay: ev.Rule.Delay, Jitter: ev.Rule.Jitter,
		})
	case KindHeal:
		links, ok := inj.active[ev.Name]
		if !ok {
			inj.errs = append(inj.errs, fmt.Sprintf("heal of unknown fault %q", ev.Name))
			return
		}
		for _, l := range links {
			inj.e.Net().SetLink(l.from, l.to, env.LinkRule{})
		}
		delete(inj.active, ev.Name)
	case KindDegradeServer:
		if ev.Server >= 0 && ev.Server < len(c.Servers) && ev.Cores > 0 {
			c.SetServerCores(ev.Server, ev.Cores)
		}
	case KindRestoreServer:
		if ev.Server >= 0 && ev.Server < len(c.Servers) {
			c.SetServerCores(ev.Server, c.Servers[ev.Server].Cores())
		}
	case KindSlowSwitch:
		if ev.Switch >= 0 && ev.Switch < len(c.Switches) {
			c.SlowSwitch(ev.Switch, ev.Delay)
		}
	case KindRestoreSwitch:
		if ev.Switch >= 0 && ev.Switch < len(c.Switches) {
			c.SlowSwitch(ev.Switch, 0)
		}
	case KindReconfigure:
		if ev.NewServers > 0 {
			inj.track(fmt.Sprintf("reconfigure to %d", ev.NewServers), c.Reconfigure(ev.NewServers))
		}
	case KindRebalance:
		inj.track("rebalance", c.Rebalance())
	case KindCrashDataNode:
		if ev.Data >= 0 && ev.Data < len(c.DataServers) && !c.DataServers[ev.Data].Node().Down() {
			c.CrashDataNode(ev.Data)
		}
	case KindRecoverDataNode:
		if ev.Data >= 0 && ev.Data < len(c.DataServers) && c.DataServers[ev.Data].Node().Down() {
			inj.track(fmt.Sprintf("recover-datanode %d", ev.Data), c.RecoverDataNode(ev.Data))
		}
	}
}

// installLinks sets the rule on every From→To link (and To→From unless
// one-way) and remembers the edges under the event's name.
func (inj *Injector) installLinks(ev Event, rule env.LinkRule) {
	if _, dup := inj.active[ev.Name]; dup {
		inj.errs = append(inj.errs, fmt.Sprintf("fault %q installed twice without heal", ev.Name))
		return
	}
	from := inj.resolve(ev.From)
	to := inj.resolve(ev.To)
	var links []directedLink
	add := func(a, b env.NodeID) {
		inj.e.Net().SetLink(a, b, rule)
		links = append(links, directedLink{a, b})
	}
	for _, a := range from {
		for _, b := range to {
			if a == b {
				continue
			}
			add(a, b)
			if !ev.OneWay {
				add(b, a)
			}
		}
	}
	inj.active[ev.Name] = links
}

func (inj *Injector) track(what string, fut *env.Future) {
	inj.pending = append(inj.pending, pendingOp{what: what, fut: fut})
}

// awaitClean verifies (after the simulation drained) that every recovery and
// reconfiguration the plan started ran to completion without error, and that
// no apply-time problems were recorded. It returns the list of issues.
func (inj *Injector) awaitClean() []string {
	issues := append([]string(nil), inj.errs...)
	for _, op := range inj.pending {
		v, ok := op.fut.Peek()
		if !ok {
			issues = append(issues, fmt.Sprintf("%s never completed", op.what))
			continue
		}
		if err, isErr := v.(error); isErr {
			issues = append(issues, fmt.Sprintf("%s failed: %v", op.what, err))
		}
	}
	return issues
}

// HealAndRecover opens the epilogue of every checked run (lincheck.Run):
// collect the plan's completion issues, force-heal whatever it left behind
// (link rules, degraded cores, slowed switches), restart every still-crashed
// server and data node, and drive the simulation until those recoveries
// finish. Validated plans heal and recover themselves — this is defense
// against hand-written plans and the precondition for the final drain and
// audit over a healthy cluster.
func (inj *Injector) HealAndRecover(sim *env.Sim) []string {
	issues := inj.awaitClean()
	inj.e.Net().ClearLinks()
	inj.active = make(map[string][]directedLink)
	for i := range inj.c.Servers {
		inj.c.SetServerCores(i, inj.c.Servers[i].Cores())
	}
	for i := range inj.c.Switches {
		inj.c.SlowSwitch(i, 0)
	}
	recovering := false
	for i := range inj.c.Servers {
		if inj.c.Servers[i].Node().Down() {
			inj.track(fmt.Sprintf("post-run recover-server %d", i), inj.c.RecoverServer(i))
			recovering = true
		}
	}
	for i := range inj.c.DataServers {
		if inj.c.DataServers[i].Node().Down() {
			inj.track(fmt.Sprintf("post-run recover-datanode %d", i), inj.c.RecoverDataNode(i))
			recovering = true
		}
	}
	if recovering {
		sim.Run()
		issues = append(issues, inj.awaitClean()...)
	}
	return issues
}
