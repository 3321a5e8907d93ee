// Fixture for the deadexport check: exported identifiers under
// internal/ need a reference from some production file.
package store

import "fmt"

// Store is used by cmd/tool's production file: not flagged.
type Store struct{ items []string }

// New is used by cmd/tool: not flagged.
func New() *Store { return &Store{} }

// Add is used by cmd/tool: not flagged.
func (s *Store) Add(item string) { s.items = append(s.items, item) }

// String implements fmt.Stringer, so it is used through the interface
// even though nothing calls it by name: not flagged.
func (s *Store) String() string { return fmt.Sprint(s.items) }

// Len is called only from store_test.go.
func (s *Store) Len() int { return len(s.items) } // want deadexport "internal/store.Store.Len"

// Reset has no reference at all.
func (s *Store) Reset() { s.items = nil } // want deadexport "internal/store.Store.Reset"

// Limit is used by this package's own production code: not flagged.
const Limit = 8

// Full reports whether the store reached Limit; cmd/tool calls it.
func (s *Store) Full() bool { return len(s.items) >= Limit }

// MaxItems is test-only but kept on purpose.
//
//lakelint:ignore deadexport -- kept to exercise the suppression path
var MaxItems = 2 * Limit

// Debug is referenced from production code, so this suppression is stale.
//
//lakelint:ignore deadexport -- stale: cmd/tool calls Debug // want directive "unused suppression"
func Debug() bool { return false }

// Orphan is named only by its own method's receiver, which is not a use.
type Orphan struct{} // want deadexport "internal/store.Orphan"

// Ping has no reference at all.
func (Orphan) Ping() {} // want deadexport "internal/store.Orphan.Ping"

// helper is unexported: out of the check's scope.
func helper() {}
