// Package faultinject replicates the real crash simulator: it exists
// to produce torn files, so it is exempt from the funnel.
package faultinject

import "os"

// Truncate writes a deliberately torn copy of a file.
//
//lakelint:ignore deadexport -- fault-injection helper for tests by design, as in the real package
func Truncate(path string, data []byte, n int) error {
	if n > len(data) {
		n = len(data)
	}
	return os.WriteFile(path, data[:n], 0o644)
}
