package server

import (
	"math/rand"
	"time"
)

func badNow() time.Time {
	return time.Now() // want `time.Now in a simulator-visible package`
}

func badSleep() {
	time.Sleep(1) // want `time.Sleep in a simulator-visible package`
}

func badSince(t time.Time) int64 {
	return int64(time.Since(t)) // want `time.Since in a simulator-visible package`
}

func badRand() int {
	return rand.Intn(10) // want `math/rand.Intn in a simulator-visible package`
}

// badMention passes the function as a value — mentioning it is enough.
func badMention(deadline func(func() time.Time)) {
	deadline(time.Now) // want `time.Now in a simulator-visible package`
}

// goodSeeded draws from an explicitly seeded generator: methods are legal.
func goodSeeded(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(10)
}

// goodArith uses Time methods on values handed in by the runtime.
func goodArith(a, b time.Time) time.Duration { return a.Sub(b) }

// suppressedNow shows a justified suppression: the reporter must honor it.
func suppressedNow() time.Time {
	//detlint:ignore hostapi -- startup banner only, before the simulation begins
	return time.Now()
}
