package core

import (
	"fmt"
	"os"

	"lakenav/internal/binfmt"
	"lakenav/internal/lake"
)

// checkpointVersion guards the on-disk format; bump on incompatible
// changes.
const checkpointVersion = 1

// CheckpointConfig enables periodic crash-safe snapshots of the local
// search. Checkpoints are written at traversal boundaries — never in
// the middle of a traversal, whose schedule is derived state — once
// EveryAccepted newly accepted operations have accumulated, and each
// write is atomic (temp file + fsync + rename), so a crash at any
// moment leaves either the previous checkpoint or the new one.
//
// Writing a checkpoint also reconstructs the live search from the
// checkpoint's own bytes (organization re-imported, evaluator rebuilt,
// RNG state restored). That makes the trajectory after a checkpoint a
// pure function of the file's content: a process killed and resumed
// from the checkpoint follows exactly the search an uninterrupted
// process would have, and reaches an identical final organization.
type CheckpointConfig struct {
	// Path is the checkpoint file. Empty disables the file write but
	// keeps the boundary reconstruction (used by tests).
	Path string
	// EveryAccepted is how many newly accepted operations accumulate
	// before the next traversal boundary checkpoints. Zero means 100.
	EveryAccepted int
	// Dim and TagGroup stamp the checkpoint with its dimension identity
	// in multi-dimensional builds, so a resume can refuse a file that
	// belongs to a different dimension or grouping.
	Dim      int
	TagGroup []string
}

func (c *CheckpointConfig) defaults() {
	if c.EveryAccepted <= 0 {
		c.EveryAccepted = 100
	}
}

// SearchConfig is the serialized subset of OptimizeConfig that shapes
// the search trajectory; a resumed search runs under the checkpointed
// config, not the caller's.
type SearchConfig struct {
	RepFraction       float64
	MaxIterations     int
	Window            int
	MinRelImprovement float64
	LeafProposals     int
	AcceptExponent    float64
	Seed              int64
	CheckpointEvery   int
}

// Checkpoint is a resumable snapshot of an in-progress local search:
// the current organization, the best one seen so far, every counter
// the termination and plateau rules depend on, and the RNG state.
type Checkpoint struct {
	Version int
	// Dim and TagGroup identify the dimension of a multi-dimensional
	// build, so a restart never resumes dimension 2 from dimension 0's
	// file or from a checkpoint of a differently grouped lake.
	Dim      int
	TagGroup []string

	Config SearchConfig

	Iterations   int
	Accepted     int
	Rejected     int
	SinceImprove int
	PlateauRef   float64
	InitialEff   float64
	BestEff      float64
	RNGState     uint64

	// Current is the organization the search continues from.
	Current *ExportedOrg
	// Best is the best organization seen, when it differs from Current
	// (accepted-but-not-improving operations move the walk off the
	// best state); nil means Current is the best.
	Best *ExportedOrg

	// path remembers where the checkpoint was loaded from so a resumed
	// search keeps checkpointing to the same file.
	path string
}

// searchConfig rebuilds the OptimizeConfig a resumed search runs under.
func (ck *Checkpoint) searchConfig() OptimizeConfig {
	c := ck.Config
	return OptimizeConfig{
		RepFraction:       c.RepFraction,
		MaxIterations:     c.MaxIterations,
		Window:            c.Window,
		MinRelImprovement: c.MinRelImprovement,
		LeafProposals:     c.LeafProposals,
		AcceptExponent:    c.AcceptExponent,
		Seed:              c.Seed,
		Checkpoint: &CheckpointConfig{
			Path:          ck.path,
			EveryAccepted: c.CheckpointEvery,
		},
	}
}

// MatchesDimension reports whether the checkpoint belongs to dimension
// dim built over exactly the given tag group — the compatibility gate a
// multi-dimensional resume applies before trusting a file on disk.
func (ck *Checkpoint) MatchesDimension(dim int, tags []string) bool {
	if ck.Dim != dim || len(ck.TagGroup) != len(tags) {
		return false
	}
	for i, t := range ck.TagGroup {
		if tags[i] != t {
			return false
		}
	}
	return true
}

// validate applies the structural checks a file from disk must pass
// before a resume may trust it.
func (ck *Checkpoint) validate() error {
	if ck.Version != checkpointVersion {
		return fmt.Errorf("core: checkpoint version %d, want %d", ck.Version, checkpointVersion)
	}
	if ck.Current == nil {
		return fmt.Errorf("core: checkpoint has no current organization")
	}
	if ck.Iterations < 0 || ck.Accepted < 0 || ck.Rejected < 0 || ck.SinceImprove < 0 {
		return fmt.Errorf("core: checkpoint has negative counters")
	}
	if ck.Accepted+ck.Rejected != ck.Iterations {
		return fmt.Errorf("core: checkpoint counters inconsistent: %d accepted + %d rejected != %d iterations",
			ck.Accepted, ck.Rejected, ck.Iterations)
	}
	return nil
}

// SaveCheckpoint atomically writes ck to path in the binfmt container
// format (bincheckpoint.go).
func SaveCheckpoint(path string, ck *Checkpoint) error {
	w, err := encodeBinCheckpoint(ck)
	if err != nil {
		return fmt.Errorf("core: save checkpoint: %w", err)
	}
	if err := binfmt.WriteFile(path, w); err != nil {
		return fmt.Errorf("core: save checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint reads and validates a checkpoint written by
// SaveCheckpoint. A torn, truncated, foreign (including the retired
// JSON encoding) or otherwise invalid file returns an error; callers
// are expected to fall back to a fresh build.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: load checkpoint: %w", err)
	}
	ck, err := DecodeBinCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("core: load checkpoint %s: %w", path, err)
	}
	ck.path = path
	return ck, nil
}

// rebuildSearchState reconstructs the live search state a checkpoint
// describes: the current organization re-imported over the lake, an
// evaluator whose representatives replay the original seed's selection
// draws, and the RNG restored to the checkpointed position. Both the
// in-process boundary reconstruction and a cross-process resume go
// through this one function, which is what guarantees they cannot
// diverge.
func rebuildSearchState(l *lake.Lake, cfg OptimizeConfig, ck *Checkpoint) (*Org, *Evaluator, *searchSource, error) {
	org, err := Import(l, ck.Current)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core: checkpoint current org: %w", err)
	}
	src := newSearchSource(cfg.Seed)
	rng := newSearchRand(src)
	// Representative selection consumes the same draws the original
	// evaluator construction did (attribute set and leaf topics are
	// invariant under search operations), reproducing the original
	// query set; the search RNG position is then restored explicitly.
	// GOMAXPROCS is free to differ between the original and resumed
	// process — pool size never changes evaluation results.
	ev, err := NewEvaluator(org, cfg.RepFraction, rng)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core: checkpoint evaluator: %w", err)
	}
	src.SetState(ck.RNGState)
	return org, ev, src, nil
}
