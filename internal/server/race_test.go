//go:build race

package server

// underRace marks a test binary built with the race detector:
// TestCheckpointEquivalence then checks every eighth cut and prefix, as the
// detector makes each replay an order of magnitude slower.
const underRace = true
