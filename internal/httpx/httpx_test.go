package httpx

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// A panicking handler yields a 500, not a dead connection or process.
func TestRecoverConvertsPanicTo500(t *testing.T) {
	h := Recover(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/node", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("panic produced status %d", rec.Code)
	}
}

// Graceful shutdown, as the binaries run it: cancelling Serve's context
// while a request is mid-handler lets that request complete, Serve
// returns nil once drained, and new connections are refused afterwards.
func TestServeDrainsInflight(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		io.WriteString(w, "done")
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- serve(ctx, ln, mux) }()

	type result struct {
		body string
		err  error
	}
	slow := make(chan result, 1)
	go func() {
		resp, err := http.Get(base + "/slow")
		if err != nil {
			slow <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		slow <- result{body: string(b), err: err}
	}()
	<-entered
	cancel()

	// Serve must not return while the slow request is in flight.
	select {
	case err := <-served:
		close(release)
		t.Fatalf("Serve returned (%v) with a request in flight", err)
	case <-time.After(100 * time.Millisecond):
	}

	close(release)
	got := <-slow
	if got.err != nil || got.body != "done" {
		t.Errorf("in-flight request during shutdown: body %q, err %v", got.body, got.err)
	}
	if err := <-served; err != nil {
		t.Errorf("Serve after drain: %v", err)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("connection accepted after shutdown")
	}
}

// Serve reports a listen failure instead of serving.
func TestServeListenError(t *testing.T) {
	if err := Serve(context.Background(), "127.0.0.1:-1", http.NotFoundHandler()); err == nil {
		t.Error("Serve on an invalid address returned nil")
	}
}

// FuzzDecodeBatch: batch bodies are untrusted input to navserver and
// lakecoord alike. The decoder must never panic, and any body it
// accepts holds 1..max queries with nothing after the JSON object.
func FuzzDecodeBatch(f *testing.F) {
	for _, seed := range []string{
		`{"queries":[{"q":"salmon","k":1}]}`,
		`{"queries":[{"q":"a"},{"q":"b"},{"q":"c"}]}`,
		`{"queries":[{"q":"salmon","k":1}]} garbage`,
		`{"queries":[{"q":"a"}]}{"queries":[]}`,
		`{"queries":[]}`,
		`{"queries":[{"q":"a","zebra":1}]}`,
		`{"queries":`,
		" \n{\"queries\":[{\"k\":-3}]}\n\t",
	} {
		f.Add([]byte(seed), uint8(2))
	}
	type item struct {
		Q string `json:"q"`
		K int    `json:"k"`
	}
	f.Fuzz(func(t *testing.T, body []byte, max uint8) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/batch/search", bytes.NewReader(body))
		queries, ok := DecodeBatch[item](rec, req, int(max))
		if !ok {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("rejected with status %d, want 400", rec.Code)
			}
			return
		}
		if len(queries) < 1 || len(queries) > int(max) {
			t.Fatalf("accepted %d queries with max %d", len(queries), max)
		}
		dec := json.NewDecoder(bytes.NewReader(body))
		var v any
		if err := dec.Decode(&v); err != nil {
			t.Fatalf("accepted a body that does not decode: %v", err)
		}
		if rest := bytes.TrimSpace(body[dec.InputOffset():]); len(rest) != 0 {
			t.Fatalf("accepted a body with %d trailing bytes", len(rest))
		}
	})
}
