package env

// Verdict is a fault-injection decision for one message.
type Verdict int

// Verdicts returned by a Filter.
const (
	// Pass delivers the message normally (still subject to probabilities).
	Pass Verdict = iota
	// Drop discards the message.
	Drop
	// Dup delivers the message twice.
	Dup
)

// LinkRule is a per-(src,dst) fault rule. The global NetConfig knobs model a
// uniformly bad fabric; link rules model localized failures — a flaky cable,
// a partitioned rack, an overloaded uplink. Rules compose with the global
// probabilities (both are consulted), and an asymmetric fault is simply a
// rule installed in one direction only.
type LinkRule struct {
	// Cut drops every message on the link (a partition edge).
	Cut bool
	// Drop and Dup are per-message probabilities on this link.
	Drop float64
	Dup  float64
	// Delay adds a fixed extra one-way delay; Jitter adds a uniform random
	// [0, Jitter) on top, reordering packets that share the link.
	Delay  Duration
	Jitter Duration
}

// IsZero reports a rule with no effect.
func (r LinkRule) IsZero() bool { return r == LinkRule{} }

// linkKey addresses one directed link.
type linkKey struct{ from, to NodeID }

// NetConfig models the datacenter network connecting clients, servers and
// the switch. SwitchFS runs over UDP (§5.4.1), so loss, duplication and
// reordering are first-class behaviours the protocol must tolerate; tests
// exercise them through these knobs.
type NetConfig struct {
	// Latency is the one-way propagation+processing delay per hop.
	Latency Duration
	// Jitter adds a uniform random [0, Jitter) to each delivery; any nonzero
	// jitter yields reordering between independent packets.
	Jitter Duration
	// DropProb and DupProb are per-message probabilities.
	DropProb float64
	DupProb  float64
	// Filter, when set, can override the fate of individual messages —
	// targeted fault injection ("drop the first aggregation ack").
	Filter func(from, to NodeID, msg any) Verdict

	// links holds the per-directed-link fault rules (fault injection).
	links map[linkKey]LinkRule
}

// SetLink installs (or, for a zero rule, removes) the fault rule of the
// directed link from→to.
func (c *NetConfig) SetLink(from, to NodeID, r LinkRule) {
	if r.IsZero() {
		delete(c.links, linkKey{from, to})
		return
	}
	if c.links == nil {
		c.links = make(map[linkKey]LinkRule)
	}
	c.links[linkKey{from, to}] = r
}

// Link returns the directed link's fault rule (zero when none installed).
func (c *NetConfig) Link(from, to NodeID) LinkRule {
	return c.links[linkKey{from, to}]
}

// ClearLinks removes every per-link fault rule (a full heal).
func (c *NetConfig) ClearLinks() { c.links = nil }

// LinkRules reports the number of installed per-link rules (diagnostics).
func (c *NetConfig) LinkRules() int { return len(c.links) }

// DefaultNetConfig reflects the paper's testbed: ~1.5 µs one-way latency on
// 100 GbE with kernel-bypass networking (the paper reports an RTT of ~3 µs
// in §7.3.3), no loss.
func DefaultNetConfig() NetConfig {
	return NetConfig{Latency: 1500 * Nanosecond, Jitter: 200 * Nanosecond}
}

// decide applies the filter, the link rule, and the global probabilities, in
// that order. Random draws happen in a fixed order so identical seeds yield
// identical executions regardless of which knobs are set.
func (c *NetConfig) decide(from, to NodeID, msg any, e *Sim) (drop, dup bool, delay Duration) {
	delay = c.Latency + e.randJitter(c.Jitter)
	if c.Filter != nil {
		switch c.Filter(from, to, msg) {
		case Drop:
			return true, false, 0
		case Dup:
			return false, true, delay
		}
	}
	if len(c.links) > 0 {
		if r, ok := c.links[linkKey{from, to}]; ok {
			if r.Cut {
				return true, false, 0
			}
			if r.Drop > 0 && e.rnd.Float64() < r.Drop {
				return true, false, 0
			}
			if r.Dup > 0 && e.rnd.Float64() < r.Dup {
				dup = true
			}
			delay += r.Delay + e.randJitter(r.Jitter)
		}
	}
	if c.DropProb > 0 && e.rnd.Float64() < c.DropProb {
		return true, false, 0
	}
	if !dup && c.DupProb > 0 && e.rnd.Float64() < c.DupProb {
		dup = true
	}
	return false, dup, delay
}
