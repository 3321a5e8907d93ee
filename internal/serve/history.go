package serve

import (
	"sync"
	"time"

	"lakenav"
)

// Generation is one frozen, serveable state of the organization: the
// ingest sequence number it corresponds to, its canonical structure
// hash, and the immutable artifacts queries run against. Generations
// are value snapshots — once added to a History they never change.
//
//lakelint:immutable
type Generation struct {
	// Seq is the ingest sequence: the number of journal batches applied
	// when this generation was frozen. Seq 0 is the base organization.
	Seq int
	// Hash is the canonical structure hash of the organization, the
	// same digest `lakenav ingest -status` reports for the journal.
	Hash string
	// Time records when the generation was frozen.
	Time time.Time

	Org    *lakenav.Organization
	Search *lakenav.SearchEngine
}

// GenerationInfo is the metadata view of a Generation, safe to encode
// into admin responses.
type GenerationInfo struct {
	Seq     int       `json:"seq"`
	Hash    string    `json:"hash"`
	Time    time.Time `json:"time"`
	Current bool      `json:"current"`
}

// History retains the most recent N generations so a bad ingest batch
// can be rolled back without rebuilding: any retained generation can be
// re-wrapped into a fresh snapshot and served again. It is safe for
// concurrent use.
type History struct {
	mu      sync.Mutex
	cap     int
	gens    []*Generation // oldest first
	current int           // Seq of the generation being served
}

// NewHistory retains up to cap generations; cap < 1 keeps one.
func NewHistory(cap int) *History {
	if cap < 1 {
		cap = 1
	}
	return &History{cap: cap, current: -1}
}

// Add retains a generation, evicting the oldest beyond capacity, and
// marks it current.
func (h *History) Add(g *Generation) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.gens = append(h.gens, g)
	if len(h.gens) > h.cap {
		// Shift into a fresh tail so evicted generations are collectable.
		h.gens = append([]*Generation(nil), h.gens[len(h.gens)-h.cap:]...)
	}
	h.current = g.Seq
}

// Get returns the retained generation with the given sequence number.
func (h *History) Get(seq int) (*Generation, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, g := range h.gens {
		if g.Seq == seq {
			return g, true
		}
	}
	return nil, false
}

// SetCurrent records which retained generation is being served (after a
// rollback the current generation is not the newest one).
func (h *History) SetCurrent(seq int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.current = seq
}

// List returns metadata for the retained generations, newest first.
func (h *History) List() []GenerationInfo {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]GenerationInfo, 0, len(h.gens))
	for i := len(h.gens) - 1; i >= 0; i-- {
		g := h.gens[i]
		out = append(out, GenerationInfo{
			Seq:     g.Seq,
			Hash:    g.Hash,
			Time:    g.Time,
			Current: g.Seq == h.current,
		})
	}
	return out
}
