// Fixture for the detrand check: global math/rand draws, unserializable
// source construction, and wall-clock reads inside internal/core, next
// to the allowlisted functions that legitimately read the clock.
package core

import (
	"math/rand"
	"time"
)

// pkgClock exercises the package-level declaration path.
var pkgClock = time.Now() // want detrand "time.Now in package-level declaration"

type search struct{ started time.Time }

// run is on the wall-clock allowlist (the real optimizer stamp).
func (s *search) run() { s.started = time.Now() }

func globalDraw() int {
	return rand.Intn(10) // want detrand "rand.Intn in globalDraw"
}

func globalFloat() float64 {
	return rand.Float64() // want detrand "rand.Float64 in globalFloat"
}

func hiddenSource(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed)) // want detrand "rand.NewSource in hiddenSource"
}

func bareClock() time.Time {
	return time.Now() // want detrand "time.Now in bareClock"
}

func bareSince(t0 time.Time) time.Duration {
	return time.Since(t0) // want detrand "time.Since in bareSince"
}

// Drawing from an injected *rand.Rand is the sanctioned pattern.
func injected(rng *rand.Rand, n int) int { return rng.Intn(n) }

// Non-forbidden time API (formatting, durations) is fine.
func format(t time.Time) string { return t.Format(time.RFC3339) }
