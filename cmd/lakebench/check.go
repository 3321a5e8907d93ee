package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"lakenav"
	"lakenav/internal/serve"
)

// checker recomputes answers with an uncached in-process snapshot over
// the same lake and org.bin the servers load, and compares them with
// what the servers returned. Both sides are decoded and re-encoded, so
// only the values are compared, never the formatting.
type checker struct {
	snap *serve.Snapshot
}

// Batch response items, in navserver's wire shape.
type suggestAnswer struct {
	Suggestions []lakenav.ScoredNode `json:"suggestions"`
	Error       string               `json:"error,omitempty"`
}

type searchAnswer struct {
	Tables []string `json:"tables"`
	Error  string   `json:"error,omitempty"`
}

// verify returns an error describing how body differs from the answer
// the reference snapshot gives for o.
func (c *checker) verify(o *op, body []byte) error {
	var want, got any
	switch o.kind {
	case opSuggest:
		w, err := c.snap.Suggest(o.dim, o.path, o.q, 0)
		if err != nil {
			return fmt.Errorf("reference suggest: %w", err)
		}
		want, got = w, new([]lakenav.ScoredNode)
	case opDiscover:
		w, err := c.snap.Discover(o.dim, o.q, resultK)
		if err != nil {
			return fmt.Errorf("reference discover: %w", err)
		}
		want, got = w, new([]lakenav.TableDiscovery)
	case opSearch:
		want, got = c.snap.Search(o.q, resultK), new([]string)
	case opBatchSuggest:
		items := make([]suggestAnswer, len(o.suggest))
		for i, it := range o.suggest {
			s, err := c.snap.Suggest(it.Dim, it.Path, it.Q, it.K)
			items[i].Suggestions = s
			if err != nil {
				items[i].Error = err.Error()
			}
		}
		want, got = struct {
			Results []suggestAnswer `json:"results"`
		}{items}, new(struct {
			Results []suggestAnswer `json:"results"`
		})
	case opBatchSearch:
		items := make([]searchAnswer, len(o.search))
		for i, it := range o.search {
			items[i].Tables = c.snap.Search(it.Q, it.K)
		}
		want, got = struct {
			Results []searchAnswer `json:"results"`
		}{items}, new(struct {
			Results []searchAnswer `json:"results"`
		})
	}
	if err := json.Unmarshal(body, got); err != nil {
		return fmt.Errorf("%s: undecodable answer: %w", o.kind, err)
	}
	wb, gb := mustJSON(want), mustJSON(got)
	if !bytes.Equal(wb, gb) {
		return fmt.Errorf("%s %q: answer differs from the reference:\n got %.300s\nwant %.300s", o.kind, o.q, gb, wb)
	}
	return nil
}

// verifySamples checks every kept response, turning a wrong answer into
// a failed request. It returns the first mismatch for the log.
func (c *checker) verifySamples(samples []sample) (checked, wrong int, first error) {
	for i := range samples {
		s := &samples[i]
		if s.verifyOp == nil {
			continue
		}
		checked++
		if err := c.verify(s.verifyOp, s.verifyBody); err != nil {
			s.out = outWrong
			wrong++
			if first == nil {
				first = err
			}
		}
		s.verifyOp, s.verifyBody = nil, nil
	}
	return checked, wrong, first
}
