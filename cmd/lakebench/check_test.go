package main

import (
	"bytes"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lakenav"
	"lakenav/internal/navhttp"
)

// tinyReference builds a small two-dimensional organization and returns
// it with its value vocabulary.
func tinyReference(t *testing.T) (*reference, []string) {
	t.Helper()
	dir := t.TempDir()
	lakePath := filepath.Join(dir, "lake.bin")
	l := lakenav.NewLake()
	topics := [][]string{
		{"river", "salmon", "harvest", "dam"},
		{"budget", "revenue", "wages", "tax"},
		{"transit", "bus", "traffic", "bridge"},
	}
	var vocab []string
	for i := 0; i < 24; i++ {
		words := topics[i%len(topics)]
		vocab = append(vocab, words...)
		l.AddTable("t"+strings.Repeat("x", i), []string{"tag" + words[0], "tag" + words[i%4]},
			lakenav.Column{Name: "c", Values: words},
			lakenav.Column{Name: "d", Values: topics[(i+1)%len(topics)]})
	}
	if err := l.Save(lakePath, lakenav.FormatBin); err != nil {
		t.Fatal(err)
	}
	l, err := lakenav.LoadJSON(lakePath)
	if err != nil {
		t.Fatal(err)
	}
	cfg := lakenav.DefaultConfig()
	cfg.Dimensions = 2
	cfg.Optimize = false
	org, err := lakenav.Organize(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	orgPath := filepath.Join(dir, "org.bin")
	if err := org.Save(orgPath, lakenav.FormatBin); err != nil {
		t.Fatal(err)
	}
	ref, err := loadReference(lakePath, orgPath)
	if err != nil {
		t.Fatal(err)
	}
	return ref, vocab
}

// tamper rewrites every 200 response of one route.
type tamper struct {
	next  http.Handler
	route string
	edit  func([]byte) []byte
}

func (h tamper) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != h.route {
		h.next.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	h.next.ServeHTTP(rec, r)
	w.WriteHeader(rec.Code)
	_, _ = w.Write(h.edit(rec.Body.Bytes())) // a test server; the client sees any failure
}

func TestAnswerChecksCatchWrongAnswers(t *testing.T) {
	ref, vocab := tinyReference(t)
	log.SetOutput(io.Discard) // navhttp logs every request
	defer log.SetOutput(os.Stderr)
	srv := navhttp.New(ref.search, navhttp.Options{})
	srv.SetOrganization(ref.org)
	c := &checker{snap: ref.snap}
	pop, err := newQueryPop(vocab, 32, hotZipf, 5)
	if err != nil {
		t.Fatal(err)
	}
	gen := &opGen{pop: pop, roots: rootChildren(ref.org)}

	honest := httptest.NewServer(srv.Handler())
	defer honest.Close()
	target := &httpTarget{client: honest.Client(), base: honest.URL}
	st := gen.stream(5, 0)
	kinds := map[opKind]bool{}
	for i := 0; i < 200; i++ {
		o := st.next()
		out, body := target.send(&o, true)
		if out != outOK {
			t.Fatalf("%s: outcome %d from an honest server", o.kind, out)
		}
		if err := c.verify(&o, body); err != nil {
			t.Fatalf("an honest answer failed its check: %v", err)
		}
		kinds[o.kind] = true
	}
	if len(kinds) != 5 {
		t.Fatalf("only %d op kinds exercised", len(kinds))
	}

	lies := map[string]func([]byte) []byte{
		"/api/suggest": func(b []byte) []byte {
			return bytes.Replace(b, []byte(`"Probability":0.`), []byte(`"Probability":0.0`), 1)
		},
		"/api/discover":  func(b []byte) []byte { return bytes.Replace(b, []byte(`"table":"t`), []byte(`"table":"u`), 1) },
		"/api/search":    func([]byte) []byte { return []byte(`["no such table"]` + "\n") },
		"/batch/suggest": func(b []byte) []byte { return bytes.Replace(b, []byte(`"Index":0`), []byte(`"Index":9`), 1) },
		"/batch/search":  func([]byte) []byte { return []byte(`{"results":[]}`) },
	}
	for route, edit := range lies {
		liar := httptest.NewServer(tamper{next: srv.Handler(), route: route, edit: edit})
		target := &httpTarget{client: liar.Client(), base: liar.URL}
		st := gen.stream(5, 1)
		var samples []sample
		for len(samples) < 40 {
			o := st.next()
			if _, path, _ := o.request(false); !strings.HasPrefix(path, route) {
				continue
			}
			out, body := target.send(&o, true)
			samples = append(samples, sample{out: out, verifyOp: &o, verifyBody: body})
		}
		liar.Close()
		checked, wrong, first := c.verifySamples(samples)
		if checked != len(samples) || wrong == 0 || first == nil {
			t.Errorf("%s: a lying server passed: %d checked, %d wrong", route, checked, wrong)
			continue
		}
		tl := count(samples)
		if tl.failed != wrong || tl.good != len(samples)-wrong {
			t.Errorf("%s: wrong answers not counted failed: %+v", route, tl)
		}
	}
}
