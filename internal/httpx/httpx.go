// Package httpx is the HTTP skeleton navserver (internal/navhttp) and
// lakecoord (internal/fleet) share: panic recovery, load shedding,
// batch body decoding, the JSON encoder, the batch answer items, and
// the listener lifecycle. It imports neither of them; metric counters
// stay with the caller, so each metric name keeps its owner.
package httpx

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"lakenav"
	"lakenav/internal/obs"
)

const (
	// Overloaded is the body of a shed 503; load generators match it to
	// tell the server's own shedding apart from routed unavailability.
	Overloaded = "overloaded"
	// MaxBatch bounds the queries of one batch request, at navserver
	// and lakecoord alike: a sub-batch the coordinator forwards is a
	// subset of the batch it accepted, so no shard can reject it for
	// size.
	MaxBatch = 256
	// maxBatchBody caps a batch request body, bytes.
	maxBatchBody = 1 << 20
	// drainTimeout bounds how long Serve waits for in-flight requests
	// once its context ends.
	drainTimeout = 15 * time.Second
)

// Recover converts a handler panic into a 500 instead of killing the
// connection (and, for panics on a handler's own goroutine, the
// process).
func Recover(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				log.Printf("panic serving %s %s: %v", r.Method, r.URL.Path, v)
				http.Error(w, "internal server error", http.StatusInternalServerError)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// bypassesLimit reports whether a path skips load shedding: probes, the
// metrics export and the admin plane must answer precisely when the
// server is drowning, and overload is exactly when an operator may need
// to roll a bad batch back or inspect the fleet.
func bypassesLimit(path string) bool {
	switch path {
	case "/healthz", "/readyz", "/metrics":
		return true
	}
	return strings.HasPrefix(path, "/admin/")
}

// Limit sheds load with 503 Overloaded once sem is full; the caller owns
// the semaphore (its capacity is the in-flight bound) and the counters.
// shed counts every shed request; inflight, when non-nil, gauges the
// requests admitted past the limit.
func Limit(sem chan struct{}, shed *obs.Counter, inflight *obs.Gauge, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if bypassesLimit(r.URL.Path) {
			next.ServeHTTP(w, r)
			return
		}
		select {
		case sem <- struct{}{}:
			defer func() { <-sem }()
		default:
			shed.Inc()
			http.Error(w, Overloaded, http.StatusServiceUnavailable)
			return
		}
		if inflight != nil {
			inflight.Add(1)
			defer inflight.Add(-1)
		}
		next.ServeHTTP(w, r)
	})
}

// DecodeBatch reads a batch request body, {"queries": [...]}, and
// bounds it: POST only, a 1 MiB body cap, no unknown fields, nothing
// after the object, and 1..max queries. On rejection it writes the
// error response itself and reports false.
func DecodeBatch[T any](w http.ResponseWriter, r *http.Request, max int) ([]T, bool) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST a JSON body: {\"queries\": [...]}", http.StatusMethodNotAllowed)
		return nil, false
	}
	var req struct {
		Queries []T `json:"queries"`
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBatchBody))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	if err == nil {
		if _, tail := dec.Token(); tail != io.EOF {
			err = errors.New("trailing data after the JSON object")
		}
	}
	if err != nil {
		http.Error(w, "bad batch body: "+err.Error(), http.StatusBadRequest)
		return nil, false
	}
	if len(req.Queries) == 0 {
		http.Error(w, "empty batch: want {\"queries\": [...]}", http.StatusBadRequest)
		return nil, false
	}
	if len(req.Queries) > max {
		http.Error(w, fmt.Sprintf("batch of %d queries exceeds the limit of %d", len(req.Queries), max), http.StatusBadRequest)
		return nil, false
	}
	return req.Queries, true
}

// SuggestItem is one answer of a /batch/suggest response; Error is
// per-item so one malformed query never fails its siblings. navserver
// encodes it and the coordinator marshals its degraded answers from
// it, so a merged batch is byte-identical to one navserver's by
// construction.
type SuggestItem struct {
	Suggestions []lakenav.ScoredNode `json:"suggestions"`
	Error       string               `json:"error,omitempty"`
}

// SearchItem is one answer of a /batch/search response.
type SearchItem struct {
	Tables []string `json:"tables"`
	Error  string   `json:"error,omitempty"`
}

// WriteJSON encodes v as the response body. An encode error past the
// write deadline is the client's slowness, not a bug, and is not
// logged.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil && !errors.Is(err, os.ErrDeadlineExceeded) {
		log.Printf("encode response: %v", err)
	}
}

// Serve listens on addr and serves handler until ctx ends, then drains
// in-flight requests for up to 15 s and force-closes whatever is left.
// It returns nil after a drain, or the listener's error if serving
// fails first.
func Serve(ctx context.Context, addr string, handler http.Handler) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return serve(ctx, ln, handler)
}

// serve is Serve on an open listener, which it owns and closes.
func serve(ctx context.Context, ln net.Listener, handler http.Handler) error {
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	log.Printf("listening on %s", ln.Addr())
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Print("shutting down: draining in-flight requests…")
	dctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		log.Printf("shutdown: %v", err)
		_ = srv.Close() // drain timed out; force-close, nothing left to report
	}
	<-errc // http.ErrServerClosed once Shutdown or Close has run
	return nil
}
