package navhttp

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"lakenav"
	"lakenav/internal/httpx"
	"lakenav/internal/serve"
)

func post(t *testing.T, h http.HandlerFunc, url, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, url, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h(rec, req)
	return rec
}

func TestHandleDiscover(t *testing.T) {
	s := testServer(t)
	rec := get(t, s.handleDiscover, "/api/discover?q=salmon&k=2")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var disc []lakenav.TableDiscovery
	if err := json.Unmarshal(rec.Body.Bytes(), &disc); err != nil {
		t.Fatal(err)
	}
	if len(disc) != 2 {
		t.Fatalf("got %d discoveries, want 2", len(disc))
	}
	if disc[0].Probability < disc[1].Probability {
		t.Error("discoveries not ranked best-first")
	}
	for _, url := range []string{
		"/api/discover",              // missing q
		"/api/discover?q=a&dim=9",    // bad dim
		"/api/discover?q=a&k=0",      // bad k
		"/api/discover?q=a&k=999999", // k over bound
	} {
		if rec := get(t, s.handleDiscover, url); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", url, rec.Code)
		}
	}
}

func TestHandleSuggestKTruncates(t *testing.T) {
	s := testServer(t)
	rec := get(t, s.handleSuggest, "/api/suggest?q=salmon&k=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var sugg []lakenav.ScoredNode
	if err := json.Unmarshal(rec.Body.Bytes(), &sugg); err != nil {
		t.Fatal(err)
	}
	if len(sugg) != 1 {
		t.Errorf("k=1 returned %d suggestions", len(sugg))
	}
	if rec := get(t, s.handleSuggest, "/api/suggest?q=salmon&k=bad"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad k accepted: %d", rec.Code)
	}
}

func TestHandleBatchSuggest(t *testing.T) {
	s := testServer(t)
	body := `{"queries":[
		{"q":"salmon"},
		{"q":"wheat","path":"0","k":1},
		{"q":"salmon","dim":42}
	]}`
	rec := post(t, s.handleBatchSuggest, "/batch/suggest", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp struct {
		Results []struct {
			Suggestions []lakenav.ScoredNode `json:"suggestions"`
			Error       string               `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(resp.Results))
	}
	if len(resp.Results[0].Suggestions) == 0 || resp.Results[0].Error != "" {
		t.Errorf("result 0 = %+v", resp.Results[0])
	}
	if len(resp.Results[1].Suggestions) != 1 {
		t.Errorf("result 1 k=1 returned %d suggestions", len(resp.Results[1].Suggestions))
	}
	// The out-of-range dim fails its own slot only.
	if resp.Results[2].Error == "" {
		t.Error("bad-dim item did not report an error")
	}

	// Batch answers must match the single-query endpoint exactly.
	single := get(t, s.handleSuggest, "/api/suggest?q=salmon")
	var want []lakenav.ScoredNode
	if err := json.Unmarshal(single.Body.Bytes(), &want); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(resp.Results[0].Suggestions) != fmt.Sprint(want) {
		t.Errorf("batch answer differs from /api/suggest:\n %v\n %v", resp.Results[0].Suggestions, want)
	}
}

func TestHandleBatchSuggestRejections(t *testing.T) {
	s := testServer(t)

	// GET is not allowed.
	if rec := get(t, s.handleBatchSuggest, "/batch/suggest"); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", rec.Code)
	}
	cases := []struct {
		name, body string
	}{
		{"malformed JSON", `{"queries":`},
		{"unknown field", `{"nope":[]}`},
		{"empty batch", `{"queries":[]}`},
		{"over budget", `{"queries":[` + strings.Repeat(`{"q":"a"},`, httpx.MaxBatch) + `{"q":"a"}]}`},
		{"trailing data", `{"queries":[{"q":"salmon","k":1}]} garbage`},
	}
	for _, c := range cases {
		if rec := post(t, s.handleBatchSuggest, "/batch/suggest", c.body); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, rec.Code)
		}
	}
}

func TestHandleBatchSearch(t *testing.T) {
	s := testServer(t)
	body := `{"queries":[
		{"q":"salmon"},
		{"q":"wheat","k":1},
		{"q":""},
		{"q":"salmon","k":-4}
	]}`
	rec := post(t, s.handleBatchSearch, "/batch/search", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp struct {
		Results []struct {
			Tables []string `json:"tables"`
			Error  string   `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 4 {
		t.Fatalf("got %d results, want 4", len(resp.Results))
	}
	if len(resp.Results[0].Tables) == 0 || resp.Results[0].Error != "" {
		t.Errorf("result 0 = %+v", resp.Results[0])
	}
	if len(resp.Results[1].Tables) != 1 {
		t.Errorf("k=1 returned %d tables", len(resp.Results[1].Tables))
	}
	if resp.Results[2].Error == "" || resp.Results[3].Error == "" {
		t.Error("invalid items did not report errors")
	}
}

func TestBatchAndDiscoverNotReady(t *testing.T) {
	l, _ := testLakeAndOrg(t)
	s := newServer(lakenav.NewSearchEngine(l), 0) // org never set
	if rec := get(t, s.handleDiscover, "/api/discover?q=salmon"); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("discover: status %d, want 503", rec.Code)
	}
	if rec := post(t, s.handleBatchSuggest, "/batch/suggest", `{"queries":[{"q":"a"}]}`); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("batch suggest: status %d, want 503", rec.Code)
	}
	// Batch search works straight off the lake, like /api/search.
	if rec := post(t, s.handleBatchSearch, "/batch/search", `{"queries":[{"q":"salmon"}]}`); rec.Code != http.StatusOK {
		t.Errorf("batch search: status %d, want 200", rec.Code)
	}
}

// TestServedSuggestionsAreCached pins the serving fast path end to end:
// two identical requests against one server must hit the shared cache
// and return byte-identical bodies.
func TestServedSuggestionsAreCached(t *testing.T) {
	s := testServer(t)
	if s.cache == nil {
		t.Fatal("default server has no cache")
	}
	first := get(t, s.handleSuggest, "/api/suggest?q=salmon")
	before := serveCounterValue(t, s, "serve.cache.hits_total")
	second := get(t, s.handleSuggest, "/api/suggest?q=salmon")
	if got := serveCounterValue(t, s, "serve.cache.hits_total"); got <= before {
		t.Errorf("repeat query missed the cache (hits %d -> %d)", before, got)
	}
	if first.Body.String() != second.Body.String() {
		t.Error("cached response differs from the original")
	}
}

// TestCacheDisabled covers the -cache-size<0 escape hatch.
func TestCacheDisabled(t *testing.T) {
	l, org := testLakeAndOrg(t)
	s := New(lakenav.NewSearchEngine(l), Options{CacheSize: -1})
	s.SetOrganization(org)
	if s.cache != nil {
		t.Fatal("cache allocated despite negative size")
	}
	if rec := get(t, s.handleSuggest, "/api/suggest?q=salmon"); rec.Code != http.StatusOK {
		t.Fatalf("uncached suggest: status %d", rec.Code)
	}
}

// TestOrgSwapInvalidatesServedCache drives the full swap story through
// the HTTP layer: answers cached under one organization must not leak
// into responses after a swap.
func TestOrgSwapInvalidatesServedCache(t *testing.T) {
	l, org := testLakeAndOrg(t)
	s := newServer(lakenav.NewSearchEngine(l), 0)
	s.SetOrganization(org)
	genBefore := s.snapshot().Generation()
	if rec := get(t, s.handleSuggest, "/api/suggest?q=salmon"); rec.Code != http.StatusOK {
		t.Fatalf("prime: status %d", rec.Code)
	}
	s.SetOrganization(org) // rebuild lands: same structure, new snapshot
	if gen := s.snapshot().Generation(); gen <= genBefore {
		t.Fatalf("generation did not advance: %d -> %d", genBefore, gen)
	}
	hits := serveCounterValue(t, s, "serve.cache.hits_total")
	if rec := get(t, s.handleSuggest, "/api/suggest?q=salmon"); rec.Code != http.StatusOK {
		t.Fatalf("post-swap: status %d", rec.Code)
	}
	if got := serveCounterValue(t, s, "serve.cache.hits_total"); got != hits {
		t.Errorf("post-swap request hit a stale entry (hits %d -> %d)", hits, got)
	}
}

// serveCounterValue reads one serve.* counter out of the /metrics
// export, which doubles as coverage that the serving metrics are
// actually published.
func serveCounterValue(t *testing.T, s *Server, name string) uint64 {
	t.Helper()
	rec := get(t, s.handleMetrics, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	var resp struct {
		Core struct {
			Counters map[string]uint64 `json:"counters"`
		} `json:"core"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	v, ok := resp.Core.Counters[name]
	if !ok {
		t.Fatalf("counter %q not exported; have %v", name, resp.Core.Counters)
	}
	return v
}

// TestBatchSuggestBitIdenticalUnderSwaps replays one batch while the
// organization is swapped between requests; every response must equal
// the uncached reference answer.
func TestBatchSuggestBitIdenticalUnderSwaps(t *testing.T) {
	l, org := testLakeAndOrg(t)
	s := newServer(lakenav.NewSearchEngine(l), 0)
	s.SetOrganization(org)
	ref := serve.NewSnapshot(org, lakenav.NewSearchEngine(l), serve.Config{})
	want, err := ref.Suggest(0, "", "salmon", 0)
	if err != nil {
		t.Fatal(err)
	}
	body := `{"queries":[{"q":"salmon"}]}`
	for i := 0; i < 5; i++ {
		rec := post(t, s.handleBatchSuggest, "/batch/suggest", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("swap %d: status %d", i, rec.Code)
		}
		var resp struct {
			Results []struct {
				Suggestions []lakenav.ScoredNode `json:"suggestions"`
			} `json:"results"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(resp.Results[0].Suggestions) != fmt.Sprint(want) {
			t.Fatalf("swap %d: batch answer diverged from reference", i)
		}
		s.SetOrganization(org)
	}
}
