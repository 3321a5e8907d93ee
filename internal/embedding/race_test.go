//go:build race

package embedding

// The race detector makes sync.Pool drop a random share of Puts, so
// allocation counts through a pool are not deterministic under it.
func init() { raceEnabled = true }
