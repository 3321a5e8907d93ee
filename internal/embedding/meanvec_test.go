package embedding

import (
	"reflect"
	"strings"
	"testing"
	"unicode"

	"lakenav/vector"
)

func TestTokenize(t *testing.T) {
	tests := []struct {
		in   string
		want []string
	}{
		{"Fisheries and Oceans Canada", []string{"fisheries", "and", "oceans", "canada"}},
		{"food-inspection (2019)", []string{"food", "inspection"}},
		{"12345", nil},
		{"", nil},
		{"  multiple   spaces ", []string{"multiple", "spaces"}},
		{"CO2_levels", []string{"co2_levels"}},
		{"a,b;c", []string{"a", "b", "c"}},
		{"İSTANBUL １２３ ａＢ", []string{"istanbul", "ａｂ"}},
	}
	var toks Tokens
	for _, tt := range tests {
		got := split(&toks, tt.in)
		if len(got) == 0 && len(tt.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, tt.want) {
			t.Errorf("Split(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

// referenceTokenize is the tokenizer Tokens replaced, kept as the
// reference Tokens must reproduce token for token.
func referenceTokenize(value string) []string {
	fields := strings.FieldsFunc(value, func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_'
	})
	out := fields[:0]
	for _, f := range fields {
		allDigits := true
		for _, r := range f {
			if !unicode.IsDigit(r) {
				allDigits = false
				break
			}
		}
		if allDigits {
			continue
		}
		out = append(out, strings.ToLower(f))
	}
	return out
}

// split returns the tokens of value as strings.
func split(toks *Tokens, value string) []string {
	toks.Split(value)
	return toks.Strings()
}

// tokenCases seed FuzzTokens: ASCII punctuation and case,
// digits-only fields, '_', non-ASCII letters and digits, a lower-case
// mapping that changes the byte length (İ → i), invalid UTF-8 and
// U+FFFD.
var tokenCases = []string{
	"Fisheries and Oceans Canada",
	"food-inspection (2019)",
	"12345",
	"",
	"  multiple   spaces ",
	"CO2_levels",
	"a,b;c",
	"_",
	"__9__",
	"2019 x2019 2019x",
	"Ärzte in MÜNCHEN straße",
	"İSTANBUL İi",
	"ǅemal ǈ Σίσυφος ΣΑΣ",
	"１２３ ４５６ａ ＡＢＣ", // full-width digits and letters
	"٣٤٥ ٣x",       // Arabic-Indic digits
	"東京 タワー 2020年",
	"bad\xffbyte \xc3 \xe2\x82 end",
	"rep\ufffdlace \ufffd",
	"tab\tnew\nline\x00nul",
	"µ ª º ÿ",
	"a\u0301e\u0301",
}

// FuzzTokens checks Tokens against the tokenizer it replaced, token for
// token.
func FuzzTokens(f *testing.F) {
	for _, in := range tokenCases {
		f.Add(in)
	}
	var toks Tokens
	f.Fuzz(func(t *testing.T, in string) {
		got, want := split(&toks, in), referenceTokenize(in)
		for i, tok := range got {
			if string(toks.At(i)) != tok {
				t.Fatalf("Split(%q): At(%d) = %q, Strings()[%d] = %q", in, i, toks.At(i), i, tok)
			}
		}
		if len(got) == 0 && len(want) == 0 {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Split(%q) = %q, want %q", in, got, want)
		}
	})
}

// TestTokensInternNoAlloc pins the interning pattern of the topic
// kernel and the search index: once the buffer has grown and every
// word of a value is in the map, tokenizing the value and finding its
// words allocates nothing.
func TestTokensInternNoAlloc(t *testing.T) {
	const value = "Pacific SALMON, pacific-salmon_2019 (Ärzte) 42"
	index := make(map[string]int)
	var toks Tokens
	toks.Split(value)
	for i := 0; i < toks.Len(); i++ {
		index[string(toks.At(i))] = i
	}
	sum := 0
	allocs := testing.AllocsPerRun(100, func() {
		toks.Split(value)
		for i := 0; i < toks.Len(); i++ {
			sum += index[string(toks.At(i))]
		}
	})
	if allocs != 0 {
		t.Errorf("tokenizing an interned value allocated %.1f times per run, want 0", allocs)
	}
	if toks.Len() != 5 {
		t.Errorf("got %d tokens, want 5", toks.Len())
	}
}

func TestMeanVector(t *testing.T) {
	s := NewStore(2)
	s.Add("fish", vector.Vector{1, 0})
	s.Add("ocean", vector.Vector{0, 1})

	v, stats, ok := MeanVector(s, []string{"Fish", "ocean", "unknownword"})
	if !ok {
		t.Fatal("MeanVector reported no embeddings")
	}
	if !vector.Equal(v, vector.Vector{0.5, 0.5}, 1e-12) {
		t.Errorf("mean = %v, want {0.5, 0.5}", v)
	}
	if stats.Values != 3 || stats.Embedded != 2 {
		t.Errorf("stats = %+v", stats)
	}
	if got := stats.TokenCoverage(); got < 0.66 || got > 0.67 {
		t.Errorf("TokenCoverage = %v, want 2/3", got)
	}
}

func TestMeanVectorNoCoverage(t *testing.T) {
	s := NewStore(2)
	v, stats, ok := MeanVector(s, []string{"anything", "at all"})
	if ok {
		t.Error("empty-vocabulary MeanVector reported ok")
	}
	if !vector.Equal(v, vector.Vector{0, 0}, 0) {
		t.Errorf("mean = %v, want zero", v)
	}
	if stats.Embedded != 0 {
		t.Errorf("Embedded = %d, want 0", stats.Embedded)
	}
	if stats.Embedded != 0 || stats.TokenCoverage() != 0 {
		t.Error("coverage should be 0")
	}
}

func TestMeanVectorMultiTokenValue(t *testing.T) {
	s := NewStore(2)
	s.Add("pacific", vector.Vector{1, 0})
	s.Add("salmon", vector.Vector{0, 1})
	v, stats, ok := MeanVector(s, []string{"Pacific Salmon"})
	if !ok || !vector.Equal(v, vector.Vector{0.5, 0.5}, 1e-12) {
		t.Errorf("mean = %v, ok=%v", v, ok)
	}
	if stats.Values != 1 || stats.Embedded != 1 || stats.Tokens != 2 || stats.EmbeddedTokens != 2 {
		t.Errorf("stats = %+v", stats)
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestMeanVectorQueryAllocs pins the query path's allocations: a
// two-word lower-case query costs the accumulator, the mean, and the
// token slice — the tokens are substrings of the query and the split
// buffers come from tokenPool.
func TestMeanVectorQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	s := NewStore(2)
	s.Add("pacific", vector.Vector{1, 0})
	s.Add("salmon", vector.Vector{0, 1})
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, ok := MeanVector(s, []string{"pacific salmon"}); !ok {
			t.Fatal("query not embedded")
		}
	})
	if allocs > 3 {
		t.Errorf("2-word MeanVector allocated %.1f times per run, want <= 3", allocs)
	}
}

func TestCoverageStatsZero(t *testing.T) {
	var c CoverageStats
	if c.TokenCoverage() != 0 {
		t.Error("zero stats should report zero coverage")
	}
}
