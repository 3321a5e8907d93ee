package embedding

import (
	"sync"
	"unicode"
	"unicode/utf8"

	"lakenav/vector"
)

// CoverageStats records how much of a value population had embedding
// vectors when computing a topic vector. The paper reports that fastText
// covers ~70% of text-attribute values in its datasets; downstream code
// can inspect coverage to decide whether a topic vector is trustworthy.
type CoverageStats struct {
	// Values is the total number of values considered.
	Values int
	// Embedded is the number of values with at least one embedded token.
	Embedded int
	// Tokens is the total number of tokens considered.
	Tokens int
	// EmbeddedTokens is the number of tokens found in the vocabulary.
	EmbeddedTokens int
}

// TokenCoverage returns the fraction of tokens found in the vocabulary,
// or 0 when no tokens were seen.
func (c CoverageStats) TokenCoverage() float64 {
	if c.Tokens == 0 {
		return 0
	}
	return float64(c.EmbeddedTokens) / float64(c.Tokens)
}

// Tokens holds the word tokens of one raw data value in a buffer the
// caller owns and reuses: Split fills it, At reads it. The zero value
// is ready to use. A token is a maximal run of letters, digits and '_'
// (invalid UTF-8 and U+FFFD separate tokens, as punctuation does),
// lower-cased; a token of digits alone is dropped. The embedding model
// operates on single words, as fastText does in the paper, and open
// data values are short strings, so nothing subtler is needed.
type Tokens struct {
	value  string // the value last split
	buf    []byte
	spans  []tokenSpan
	folded bool // lower-casing changed some token's bytes
}

// tokenSpan locates one token by its end offset in buf and its start
// offset in the split value. An unfolded token's bytes in buf equal its
// bytes in the value (a valid, already lower-case rune re-encodes to
// itself).
type tokenSpan struct{ end, from int }

// Split replaces the held tokens with those of value. Once the buffer
// has grown to fit a value, splitting it again allocates nothing.
func (t *Tokens) Split(value string) {
	if t.buf == nil {
		t.buf = make([]byte, 0, len(value)) // lower-casing keeps most lengths
		t.spans = make([]tokenSpan, 0, 8)   // values and queries are a few words
	}
	t.value, t.buf, t.spans, t.folded = value, t.buf[:0], t.spans[:0], false
	start, from, digits := 0, 0, true // the open token is buf[start:], from value[from:]
	for i := 0; i < len(value); {
		c := value[i]
		if c < utf8.RuneSelf {
			i++
			switch {
			case 'a' <= c && c <= 'z', c == '_':
				digits = false
			case 'A' <= c && c <= 'Z':
				c += 'a' - 'A'
				digits, t.folded = false, true
			case '0' <= c && c <= '9':
			default:
				start, from, digits = t.end(start, from, digits), i, true
				continue
			}
			t.buf = append(t.buf, c)
			continue
		}
		r, n := utf8.DecodeRuneInString(value[i:])
		i += n
		switch {
		case unicode.IsDigit(r):
		case unicode.IsLetter(r):
			digits = false
		default:
			start, from, digits = t.end(start, from, digits), i, true
			continue
		}
		if lr := unicode.ToLower(r); lr != r {
			r, t.folded = lr, true
		}
		t.buf = utf8.AppendRune(t.buf, r)
	}
	t.end(start, from, digits)
}

// end closes the token open at buf[start:], dropping it if it is all
// digits (or empty), and returns where the next token starts.
func (t *Tokens) end(start, from int, digits bool) int {
	if digits {
		t.buf = t.buf[:start]
		return start
	}
	t.spans = append(t.spans, tokenSpan{end: len(t.buf), from: from})
	return len(t.buf)
}

// Len returns the number of tokens held.
func (t *Tokens) Len() int { return len(t.spans) }

// At returns token i. The bytes alias the buffer: they are valid until
// the next Split, and string(t.At(i)) copies them.
func (t *Tokens) At(i int) []byte {
	return t.buf[t.start(i):t.spans[i].end]
}

func (t *Tokens) start(i int) int {
	if i == 0 {
		return 0
	}
	return t.spans[i-1].end
}

// Strings returns the held tokens as strings that outlive the next
// Split. When lower-casing changed nothing they are substrings of the
// split value and only the slice is allocated; otherwise they share one
// copy of the buffer.
func (t *Tokens) Strings() []string {
	out := make([]string, len(t.spans))
	if !t.folded {
		for i, sp := range t.spans {
			out[i] = t.value[sp.from : sp.from+sp.end-t.start(i)]
		}
		return out
	}
	all := string(t.buf)
	for i, sp := range t.spans {
		out[i] = all[t.start(i):sp.end]
	}
	return out
}

// tokenPool recycles the Tokens of Words, so splitting a query reuses
// buffers instead of growing fresh ones.
var tokenPool = sync.Pool{New: func() any { return new(Tokens) }}

// Words returns the tokens of one value as strings, split as Tokens
// splits it: the query-side tokenizer of MeanVector and keyword search.
// It allocates only the returned slice when the value is already
// lower-case.
func Words(value string) []string {
	t := tokenPool.Get().(*Tokens)
	t.Split(value)
	out := t.Strings()
	t.value = "" // the pool keeps no caller string alive
	tokenPool.Put(t)
	return out
}

// MeanVector computes the topic vector of a value population: the sample
// mean of the embeddings of all embedded tokens of all values (Sec 3.1,
// Definition 4). It also returns coverage statistics. ok is false when no
// token was embedded, in which case the returned vector is zero.
func MeanVector(m Model, values []string) (vector.Vector, CoverageStats, bool) {
	run := vector.NewRunning(m.Dim())
	var stats CoverageStats
	for _, val := range values {
		AddValue(run, &stats, Words(val), m.Lookup)
	}
	mean, ok := run.Mean()
	return mean, stats, ok
}

// AddValue is the per-value step of Definition 4, shared by MeanVector
// and the lake's topic kernel: it adds the embedding of every embedded
// token of one value to run, in token order, and counts the value and
// its tokens into stats. lookup resolves one token — a word, or an index
// into a table of words already looked up — to its embedding, or false
// when the token has none.
func AddValue[T any](run *vector.Running, stats *CoverageStats, tokens []T, lookup func(T) (vector.Vector, bool)) {
	stats.Values++
	embedded := false
	for _, tok := range tokens {
		stats.Tokens++
		if v, ok := lookup(tok); ok {
			stats.EmbeddedTokens++
			run.Add(v)
			embedded = true
		}
	}
	if embedded {
		stats.Embedded++
	}
}
