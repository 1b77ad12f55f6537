//go:build !race

package server

// underRace is false without the race detector (race_test.go).
const underRace = false
