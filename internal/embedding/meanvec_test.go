package embedding

import (
	"reflect"
	"testing"

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
	}
	for _, tt := range tests {
		got := Tokenize(tt.in)
		if len(got) == 0 && len(tt.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, tt.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", tt.in, got, tt.want)
		}
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

func TestCoverageStatsZero(t *testing.T) {
	var c CoverageStats
	if c.TokenCoverage() != 0 {
		t.Error("zero stats should report zero coverage")
	}
}
