//go:build !race

package lincheck

// underRace marks a test binary built with the race detector (race_test.go).
const underRace = false
