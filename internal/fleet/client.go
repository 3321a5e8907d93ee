package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"
)

// ClientOptions tunes the coordinator's per-shard HTTP clients.
type ClientOptions struct {
	// Timeout bounds each individual attempt; non-positive selects
	// defaultAttemptTimeout.
	Timeout time.Duration
	// Retries is how many extra sequential attempts follow a transport
	// error (connection refused, reset, attempt timeout). HTTP error
	// statuses are answers, not failures, and are never retried.
	// Negative means zero.
	Retries int
	// RetryBase is the first backoff delay; it doubles per retry.
	// Non-positive selects defaultRetryBase.
	RetryBase time.Duration
}

const (
	defaultAttemptTimeout = 5 * time.Second
	defaultRetryBase      = 50 * time.Millisecond
	// maxShardBody caps how much of a shard response the coordinator
	// buffers; navserver batch responses are bounded by the batch
	// budget, so this is a defense against a confused backend.
	maxShardBody = 8 << 20
)

func (o ClientOptions) withDefaults() ClientOptions {
	if o.Timeout <= 0 {
		o.Timeout = defaultAttemptTimeout
	}
	if o.Retries < 0 {
		o.Retries = 0
	}
	if o.RetryBase <= 0 {
		o.RetryBase = defaultRetryBase
	}
	return o
}

// shardClient is the coordinator's handle on one navserver shard: an
// HTTP client with retry/timeout, plus the passively and
// actively maintained health state the routing layer consults.
type shardClient struct {
	id   string
	addr string // base URL, no trailing slash
	hc   *http.Client
	opts ClientOptions
	m    *coordMetrics

	// down flips on transport failure (passive) or a failed health
	// probe (active) and back on any success. Transitions are counted
	// once per edge via the metrics below.
	down atomic.Bool
	// gen is the shard's last reported serving generation; a bump means
	// the shard swapped organizations and its serve cache invalidated
	// itself wholesale.
	gen atomic.Uint64
	// lastErr remembers the most recent failure for /admin/fleet.
	lastErr atomic.Pointer[string]
}

func newShardClient(info ShardInfo, opts ClientOptions, m *coordMetrics) *shardClient {
	return &shardClient{
		id:   info.ID,
		addr: strings.TrimSuffix(info.Addr, "/"),
		hc:   &http.Client{},
		opts: opts.withDefaults(),
		m:    m,
	}
}

// shardResult is one resolved shard call: either err is set (transport
// failure after retries) or the HTTP answer is, verbatim.
type shardResult struct {
	status      int
	contentType string
	body        []byte
	err         error
}

// do performs one logical request against the shard and maintains
// the health state on the way out, except for a failure once the
// caller's ctx is done: a caller giving up says nothing about the
// shard.
func (c *shardClient) do(ctx context.Context, method, pathAndQuery string, body []byte) shardResult {
	res := c.attemptLoop(ctx, method, pathAndQuery, body)
	if res.err == nil || ctx.Err() == nil {
		c.noteResult(res)
	}
	return res
}

// attemptLoop makes up to 1+Retries attempts with doubling
// backoff between them. Only transport errors retry.
func (c *shardClient) attemptLoop(ctx context.Context, method, pathAndQuery string, body []byte) shardResult {
	var last shardResult
	for try := 0; try <= c.opts.Retries; try++ {
		if try > 0 {
			c.m.retries.Inc()
			if !sleepCtx(ctx, c.opts.RetryBase<<(try-1)) {
				return shardResult{err: ctx.Err()}
			}
		}
		last = c.attempt(ctx, method, pathAndQuery, body)
		if last.err == nil {
			return last
		}
	}
	return last
}

func (c *shardClient) attempt(ctx context.Context, method, pathAndQuery string, body []byte) shardResult {
	actx, cancel := context.WithTimeout(ctx, c.opts.Timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = strings.NewReader(string(body))
	}
	req, err := http.NewRequestWithContext(actx, method, c.addr+pathAndQuery, rd)
	if err != nil {
		return shardResult{err: err}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return shardResult{err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxShardBody))
	if err != nil {
		return shardResult{err: err}
	}
	return shardResult{
		status:      resp.StatusCode,
		contentType: resp.Header.Get("Content-Type"),
		body:        b,
	}
}

// noteResult maintains the passive health state: any transport failure
// marks the shard down, any HTTP answer (even a 4xx/5xx — the shard is
// alive enough to say so) marks it up.
func (c *shardClient) noteResult(res shardResult) {
	if res.err != nil {
		msg := res.err.Error()
		c.lastErr.Store(&msg)
		c.markDown()
		return
	}
	c.markUp()
}

// markDown / markUp flip the health flag; the shardDown counter fires
// once per up→down edge. The healthy gauge is deliberately not touched
// here — it is recomputed from the live state by the health loop and
// /admin/fleet, so a straggling call against a client from an already
// replaced shard map cannot skew it.
func (c *shardClient) markDown() {
	if c.down.CompareAndSwap(false, true) {
		c.m.shardDown.Inc()
	}
}

func (c *shardClient) markUp() {
	c.down.Store(false)
}

// checkHealth runs one active probe against /admin/shard, updating the
// health flag and the observed serving generation.
func (c *shardClient) checkHealth(ctx context.Context) {
	res := c.do(ctx, http.MethodGet, "/admin/shard", nil)
	if res.err != nil || res.status != http.StatusOK {
		if res.err == nil {
			msg := fmt.Sprintf("health probe: status %d", res.status)
			c.lastErr.Store(&msg)
			c.markDown()
		}
		return
	}
	var st struct {
		ShardID    string `json:"shard_id"`
		Generation uint64 `json:"generation"`
		Ready      bool   `json:"ready"`
	}
	if err := json.Unmarshal(res.body, &st); err != nil {
		msg := "health probe: " + err.Error()
		c.lastErr.Store(&msg)
		c.markDown()
		return
	}
	if old := c.gen.Swap(st.Generation); old != 0 && st.Generation > old {
		// The shard swapped organizations: its serve-layer cache
		// invalidated itself (generation-stamped entries), other
		// shards' caches are untouched. The counter is the audit trail
		// that invalidation stayed shard-local.
		c.m.genBumps.Inc()
	}
}

// lastError returns the most recent failure message, or "".
func (c *shardClient) lastError() string {
	if p := c.lastErr.Load(); p != nil {
		return *p
	}
	return ""
}

// sleepCtx sleeps for d unless ctx ends first; it reports whether the
// full sleep elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
