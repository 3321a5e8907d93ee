package navhttp

import (
	"context"
	"log"
	"net/http"
	"strconv"
	"time"

	"lakenav"
	"lakenav/internal/httpx"
	"lakenav/internal/journal"
	"lakenav/internal/serve"
)

// ingester tails a commit journal and republishes serving generations.
//
// The journal is the coordination point between the writer (`lakenav
// ingest`, which validates and appends batches) and this server, which
// only ever reads: each poll decodes the journal — a torn tail from a
// crashed writer is simply not-yet-committed data and is ignored — and
// applies any batches beyond the ones already consumed to a private
// working lake and organization. Request handlers never see that
// working state: every applied batch is frozen into an immutable
// generation (cloned lake, re-imported organization, fresh search
// index) before being swapped in, so ingest and serving share nothing
// mutable.
type ingester struct {
	s    *Server
	p    *lakenav.IngestPipeline
	path string
	// consumed counts journal batches already applied, so a poll only
	// replays the new suffix.
	consumed int
}

// StartIngest freezes and publishes generation 0 (the base
// organization), replays any batches already committed to the journal,
// and starts the polling loop. The organization passed in must have
// been built over l; after this call both belong to the ingester and
// must not be used for serving.
func StartIngest(ctx context.Context, s *Server, l *lakenav.Lake, org *lakenav.Organization, path string, poll time.Duration, cfg lakenav.IngestConfig) error {
	p, err := lakenav.NewIngestPipeline(l, org, cfg)
	if err != nil {
		return err
	}
	ing := &ingester{s: s, p: p, path: path}
	if err := ing.publish(); err != nil {
		return err
	}
	if err := ing.sync(); err != nil {
		log.Printf("navserver: ingest: %v (serving generation %d)", err, p.Batches())
		return nil
	}
	go ing.run(ctx, poll)
	return nil
}

// run polls the journal until the context ends or ingest fails. A
// failure stops ingest but not serving: the last published generation
// keeps answering queries, and the hashes in /admin/generations tell
// the operator where replay and the journal diverged.
func (ing *ingester) run(ctx context.Context, poll time.Duration) {
	tick := time.NewTicker(poll)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		if err := ing.sync(); err != nil {
			log.Printf("navserver: ingest halted: %v (still serving generation %d)", err, ing.p.Batches())
			return
		}
	}
}

// sync applies journal batches beyond the consumed prefix, publishing a
// generation per batch so every commit is individually servable and
// individually rollback-able.
func (ing *ingester) sync() error {
	batches, err := journal.ReadAll(ing.path)
	if err != nil {
		return err
	}
	for _, b := range batches[min(ing.consumed, len(batches)):] {
		if err := ing.p.Apply(b); err != nil {
			return err
		}
		ing.consumed++
		if err := ing.publish(); err != nil {
			return err
		}
		log.Printf("ingest: generation %d published (hash %.12s…)", ing.p.Batches(), ing.p.Hash())
	}
	return nil
}

// publish freezes the working state into a generation, retains it in
// the history, and swaps it into serving.
func (ing *ingester) publish() error {
	org, search, err := ing.p.Freeze()
	if err != nil {
		return err
	}
	ing.s.publishGeneration(&serve.Generation{
		Seq:    ing.p.Batches(),
		Hash:   ing.p.Hash(),
		Time:   time.Now(),
		Org:    org,
		Search: search,
	})
	return nil
}

// publishGeneration retains g and makes it the serving snapshot. The
// genMu ordering guarantee: the history's current marker and the served
// snapshot always move together, whether the move is a publish or a
// rollback.
func (s *Server) publishGeneration(g *serve.Generation) {
	s.genMu.Lock()
	defer s.genMu.Unlock()
	s.hist.Add(g)
	s.storeSnapshot(serve.NewSnapshot(g.Org, g.Search, serve.Config{Cache: s.cache}))
}

// handleGenerations lists the retained generations, newest first, with
// the one currently serving marked.
func (s *Server) handleGenerations(w http.ResponseWriter, r *http.Request) {
	if s.hist == nil {
		http.Error(w, "ingest not enabled (start with -journal)", http.StatusNotFound)
		return
	}
	httpx.WriteJSON(w, struct {
		Generations []serve.GenerationInfo `json:"generations"`
	}{s.hist.List()})
}

// handleRollback swaps serving back to a retained generation. The
// rolled-back-to organization is wrapped in a brand-new snapshot, so
// its generation stamp invalidates every cached answer computed against
// the abandoned one. Rollback pins serving until the next committed
// batch publishes a newer generation.
func (s *Server) handleRollback(w http.ResponseWriter, r *http.Request) {
	if s.hist == nil {
		http.Error(w, "ingest not enabled (start with -journal)", http.StatusNotFound)
		return
	}
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST /admin/rollback?gen=N", http.StatusMethodNotAllowed)
		return
	}
	seq, err := strconv.Atoi(r.URL.Query().Get("gen"))
	if err != nil {
		http.Error(w, "bad gen: want a generation sequence number from /admin/generations", http.StatusBadRequest)
		return
	}
	// The lock covers only the lookup-and-swap; the HTTP response is
	// written after release so a slow client cannot stall publishes
	// (lockhold: no mutex held across network I/O).
	s.genMu.Lock()
	g, ok := s.hist.Get(seq)
	if ok {
		s.hist.SetCurrent(g.Seq)
		s.storeSnapshot(serve.NewSnapshot(g.Org, g.Search, serve.Config{Cache: s.cache}))
	}
	s.genMu.Unlock()
	if !ok {
		http.Error(w, "generation not retained (see /admin/generations)", http.StatusNotFound)
		return
	}
	log.Printf("rolled back to generation %d (hash %.12s…)", g.Seq, g.Hash)
	httpx.WriteJSON(w, struct {
		Seq  int    `json:"seq"`
		Hash string `json:"hash"`
	}{g.Seq, g.Hash})
}
