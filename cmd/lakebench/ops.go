package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"strconv"

	"lakenav/internal/serve"
	"lakenav/internal/stats"
)

// The serving op mix, identical in every serving workload: 40% suggest
// at the root or one step down, 30% discover, 20% search and 10%
// batches of batchSize, half suggest and half search.
const (
	resultK    = 10 // result bound of discover, search and batch items
	batchSize  = 16
	fleetLakes = 8 // lake ids the coordinator routes over
)

type opKind uint8

const (
	opSuggest opKind = iota
	opDiscover
	opSearch
	opBatchSuggest
	opBatchSearch
)

var opNames = [...]string{"suggest", "discover", "search", "batch_suggest", "batch_search"}

func (k opKind) String() string { return opNames[k] }

// suggestItem and searchItem are batch items on the wire. Lake is the
// coordinator's routing input; it is left out when requests go straight
// to a navserver, which rejects fields it does not know.
type suggestItem struct {
	Lake string `json:"lake,omitempty"`
	serve.SuggestRequest
}

type searchItem struct {
	Lake string `json:"lake,omitempty"`
	serve.SearchRequest
}

// op is one scheduled request.
type op struct {
	kind opKind
	lake string
	dim  int
	path string
	q    string

	suggest []suggestItem // opBatchSuggest
	search  []searchItem  // opBatchSearch
}

// request renders the op's wire form. withLake=false strips the routing
// lake id, for requests sent straight to a shard.
func (o *op) request(withLake bool) (method, target string, body []byte) {
	lake := ""
	if withLake {
		lake = o.lake
	}
	v := url.Values{}
	if lake != "" {
		v.Set("lake", lake)
	}
	switch o.kind {
	case opSuggest:
		v.Set("dim", strconv.Itoa(o.dim))
		v.Set("q", o.q)
		if o.path != "" {
			v.Set("path", o.path)
		}
		return "GET", "/api/suggest?" + v.Encode(), nil
	case opDiscover:
		v.Set("dim", strconv.Itoa(o.dim))
		v.Set("q", o.q)
		v.Set("k", strconv.Itoa(resultK))
		return "GET", "/api/discover?" + v.Encode(), nil
	case opSearch:
		v.Set("q", o.q)
		v.Set("k", strconv.Itoa(resultK))
		return "GET", "/api/search?" + v.Encode(), nil
	case opBatchSuggest:
		items := o.suggest
		if !withLake {
			items = make([]suggestItem, len(o.suggest))
			for i, it := range o.suggest {
				items[i] = suggestItem{SuggestRequest: it.SuggestRequest}
			}
		}
		return "POST", "/batch/suggest", mustJSON(struct {
			Queries []suggestItem `json:"queries"`
		}{items})
	default:
		items := o.search
		if !withLake {
			items = make([]searchItem, len(o.search))
			for i, it := range o.search {
				items[i] = searchItem{SearchRequest: it.SearchRequest}
			}
		}
		return "POST", "/batch/search", mustJSON(struct {
			Queries []searchItem `json:"queries"`
		}{items})
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// Only plain strings and ints are encoded here.
		panic(fmt.Sprintf("lakebench: encode request: %v", err))
	}
	return b
}

// queryPop is a seeded query population: query i is a pair of words
// drawn from the lake's own value vocabulary, fully determined by the
// seed and i, so a population of any size costs no memory.
type queryPop struct {
	vocab []string
	n     int
	seed  uint64
	zipf  *stats.Zipf // nil draws uniformly
}

// newQueryPop returns n queries over vocab, drawn Zipf(s) when s > 0
// and uniformly otherwise.
func newQueryPop(vocab []string, n int, s float64, seed int64) (*queryPop, error) {
	if len(vocab) == 0 || n <= 0 {
		return nil, fmt.Errorf("lakebench: query population needs words and a size, got %d words, n=%d", len(vocab), n)
	}
	p := &queryPop{vocab: vocab, n: n, seed: splitmix(uint64(seed) ^ 0x51ed2701)}
	if s > 0 {
		z, err := stats.NewZipf(n, s)
		if err != nil {
			return nil, err
		}
		p.zipf = z
	}
	return p, nil
}

func (p *queryPop) query(i int) string {
	h := splitmix(p.seed + uint64(i)*0x9e3779b97f4a7c15)
	a := p.vocab[h%uint64(len(p.vocab))]
	b := p.vocab[splitmix(h)%uint64(len(p.vocab))]
	return a + " " + b
}

// home is query i's position hash: it fixes the dimension the query
// navigates and the root child it descends to.
func (p *queryPop) home(i int) uint64 { return splitmix(p.seed ^ (uint64(i)<<1 | 1)) }

func (p *queryPop) pick(rng *rand.Rand) int {
	if p.zipf != nil {
		return p.zipf.Sample(rng) - 1
	}
	return rng.Intn(p.n)
}

// opGen derives deterministic op streams over an organization whose
// dimension d has roots[d] children at its root.
type opGen struct {
	pop   *queryPop
	roots []int
	lakes int // 0 sends no lake id
}

// opStream is one seeded stream of ops; streams with different ids are
// independent.
type opStream struct {
	g   *opGen
	rng *rand.Rand
}

func (g *opGen) stream(seed int64, id int) *opStream {
	s := splitmix(uint64(seed)*0x9e3779b97f4a7c15 + uint64(id) + 1)
	return &opStream{g: g, rng: rand.New(rand.NewSource(int64(s >> 1)))}
}

func (s *opStream) next() op {
	switch r := s.rng.Intn(10); {
	case r < 4:
		o := op{kind: opSuggest, lake: s.lake()}
		o.q, o.dim, o.path = s.draw()
		return o
	case r < 7:
		o := op{kind: opDiscover, lake: s.lake()}
		o.q, o.dim, _ = s.draw()
		return o
	case r < 9:
		o := op{kind: opSearch, lake: s.lake()}
		o.q, _, _ = s.draw()
		return o
	}
	if s.rng.Intn(2) == 0 {
		o := op{kind: opBatchSuggest, suggest: make([]suggestItem, batchSize)}
		for i := range o.suggest {
			it := suggestItem{Lake: s.lake()}
			it.Q, it.Dim, it.Path = s.draw()
			it.K = resultK
			o.suggest[i] = it
		}
		return o
	}
	o := op{kind: opBatchSearch, search: make([]searchItem, batchSize)}
	for i := range o.search {
		q, _, _ := s.draw()
		o.search[i] = searchItem{Lake: s.lake(), SearchRequest: serve.SearchRequest{Q: q, K: resultK}}
	}
	return o
}

// draw picks a query with its position. Every query has a home
// dimension and one root child there, and a suggest starts at the root
// or one step down at that child, so a popular query keeps asking for
// the same few answers, as one user repeating a question would: the
// hot mix's working set is about four answers per query.
func (s *opStream) draw() (q string, dim int, path string) {
	i := s.g.pop.pick(s.rng)
	h := s.g.pop.home(i)
	dim = int(h % uint64(len(s.g.roots)))
	if n := s.g.roots[dim]; n > 0 && s.rng.Intn(2) == 1 {
		path = strconv.Itoa(int((h >> 32) % uint64(n)))
	}
	return s.g.pop.query(i), dim, path
}

func (s *opStream) lake() string {
	if s.g.lakes <= 0 {
		return ""
	}
	return "lake-" + strconv.Itoa(s.rng.Intn(s.g.lakes))
}

// splitmix is the splitmix64 finalizer, used to derive independent
// seeds from one.
func splitmix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
