//go:build race

package lincheck

// underRace marks a test binary built with the race detector. Its sweeps keep
// their narrower widths (sweepSeeds): the detector's memory grows with every
// simulation a binary runs — past 3.5 GB for those widths on a two-core box —
// and what it checks here is that parallel subtests share no state, which
// the narrow widths exercise as well.
const underRace = true
