package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"lakenav/internal/lake"
)

// OptimizeConfig controls the local search of Sec 3.3–3.4.
type OptimizeConfig struct {
	// RepFraction in (0, 1) enables the representative approximation at
	// that fraction of attributes (the paper uses 0.10); other values
	// evaluate exactly.
	RepFraction float64
	// MaxIterations caps the number of proposed operations. Zero means
	// 2000.
	MaxIterations int
	// Window is the plateau length: the search stops after this many
	// consecutive proposals without significant improvement (the paper
	// uses 50). Zero means 50.
	Window int
	// MinRelImprovement is the relative effectiveness gain that counts
	// as significant. Zero means 1e-3.
	MinRelImprovement float64
	// LeafProposals bounds how many lowest-reachability leaves get a
	// proposal per traversal; leaf ops mirror metadata enrichment and
	// are the most numerous states, so they are sampled. Zero means 25;
	// negative disables leaf proposals.
	LeafProposals int
	// AcceptExponent controls the downhill-acceptance rule. Negative
	// (the default) is greedy: only non-worsening operations are
	// accepted. Positive values accept a worse organization with
	// probability (P(T|O')/P(T|O))^AcceptExponent, so 1 is the paper's
	// Eq 9 Metropolis rule. We measured Eq 9 to be too hot on every
	// workload we generate: near-neutral downhill moves (ratio ~0.95)
	// vastly outnumber uphill ones and are accepted ~95% of the time, so
	// the walk erodes the organization faster than it improves it and
	// the best-seen state is simply the starting point. The acceptance
	// ablation bench sweeps this knob; greedy wins everywhere we tried.
	AcceptExponent float64
	// Seed drives proposal and acceptance randomness.
	Seed int64
	// Checkpoint, when non-nil, periodically snapshots the search so a
	// killed build can resume where it left off (ResumeOptimizeRuntime).
	// Only OptimizeContext supports it: resuming and boundary
	// reconstruction may return a different *Org than the input.
	Checkpoint *CheckpointConfig
	// Progress, when non-nil, receives one ProgressEvent per completed
	// iteration plus a final event (Final set) when the search stops.
	// It is invoked synchronously on the search goroutine — and, in
	// multi-dimensional builds, concurrently from each dimension's
	// goroutine — so implementations must be goroutine-safe and fast.
	// Progress is observation only: it can never change the search
	// trajectory, so it is not part of the checkpointed config.
	Progress func(ProgressEvent)
}

// ProgressEvent is one observation of a running local search, shaped
// for NDJSON emission (`lakenav organize -progress`) and for gauge
// export (navserver /metrics during background builds).
type ProgressEvent struct {
	// Dim is the dimension index in a multi-dimensional build.
	Dim int `json:"dim"`
	// Iteration counts proposed operations so far (monotone within one
	// search; resumed searches include pre-checkpoint work).
	Iteration int `json:"iteration"`
	// Accepted and Rejected partition Iteration.
	Accepted int `json:"accepted"`
	Rejected int `json:"rejected"`
	// CurrentEff is P(T|O) of the organization the walk is on;
	// BestEff is the best value seen so far.
	CurrentEff float64 `json:"current_eff"`
	BestEff    float64 `json:"best_eff"`
	// ElapsedMS is wall-clock time since this search process started
	// (excluding pre-checkpoint time for resumed searches).
	ElapsedMS float64 `json:"elapsed_ms"`
	// Checkpoints counts snapshot writes so far in this run.
	Checkpoints int `json:"checkpoints"`
	// StatesVisitedFrac is the fraction of live non-leaf states the
	// iteration's chosen operation re-evaluated (pruning effectiveness,
	// Fig 3b); AttrsVisitedFrac is the fraction of organized attributes
	// whose discovery probability it re-evaluated (Fig 3a). Both are 0
	// on the final event.
	StatesVisitedFrac float64 `json:"states_visited_frac"`
	AttrsVisitedFrac  float64 `json:"attrs_visited_frac"`
	// Final marks the one closing event of a search; Truncated on a
	// final event reports a search stopped by cancellation.
	Final     bool `json:"final,omitempty"`
	Truncated bool `json:"truncated,omitempty"`
}

// defaultMaxIterations is the iteration cap a zero MaxIterations
// selects.
const defaultMaxIterations = 2000

func (c *OptimizeConfig) defaults() {
	if c.MaxIterations == 0 {
		c.MaxIterations = defaultMaxIterations
	}
	if c.Window == 0 {
		c.Window = 50
	}
	if c.MinRelImprovement == 0 {
		c.MinRelImprovement = 1e-3
	}
	if c.LeafProposals == 0 {
		c.LeafProposals = 25
	}
	if c.AcceptExponent == 0 {
		c.AcceptExponent = -1 // greedy
	}
	if c.Checkpoint != nil {
		c.Checkpoint.defaults()
	}
}

// savedConfig is the checkpointed form of the trajectory-shaping knobs.
func (c *OptimizeConfig) savedConfig() SearchConfig {
	sc := SearchConfig{
		RepFraction:       c.RepFraction,
		MaxIterations:     c.MaxIterations,
		Window:            c.Window,
		MinRelImprovement: c.MinRelImprovement,
		LeafProposals:     c.LeafProposals,
		AcceptExponent:    c.AcceptExponent,
		Seed:              c.Seed,
	}
	if c.Checkpoint != nil {
		sc.CheckpointEvery = c.Checkpoint.EveryAccepted
	}
	return sc
}

// OptimizeStats reports what the search did. The per-iteration visit
// fractions of Figure 3 are on the ProgressEvent stream.
type OptimizeStats struct {
	Iterations int
	Accepted   int
	Rejected   int
	InitialEff float64
	FinalEff   float64
	Duration   time.Duration
	// Truncated marks a search stopped early by context cancellation or
	// deadline: the returned organization is the best one seen so far,
	// not the converged result.
	Truncated bool
	// Resumed marks a search continued from a checkpoint; Iterations,
	// Accepted, and Rejected include the pre-checkpoint work.
	Resumed bool
	// Checkpoints counts the snapshots written during this run.
	Checkpoints int
}

// Optimize runs the local search on org in place: repeated downward
// traversals propose ADD_PARENT / DELETE_PARENT modifications on states
// ordered from lowest to highest reachability, accepted by the
// Metropolis rule of Eq 9, until the effectiveness plateaus. It is the
// uncancellable in-place form; cfg.Checkpoint must be nil (checkpoint
// reconstruction can replace the organization, which an in-place caller
// would not observe — use OptimizeContext).
func Optimize(org *Org, cfg OptimizeConfig) (*OptimizeStats, error) {
	if cfg.Checkpoint != nil {
		return nil, fmt.Errorf("core: Optimize cannot checkpoint; use OptimizeContext")
	}
	_, stats, err := OptimizeContext(context.Background(), org, cfg)
	return stats, err
}

// OptimizeContext runs the local search with cancellation and optional
// checkpointing. On cancel or deadline the search stops at the next
// iteration boundary and degrades gracefully: it returns the best
// organization seen so far with stats.Truncated set, not an error.
// The returned *Org is the search result; it equals the input org
// unless checkpointing reconstructed or a resume snapshot won, so
// callers must use the return value rather than the argument.
func OptimizeContext(ctx context.Context, org *Org, cfg OptimizeConfig) (*Org, *OptimizeStats, error) {
	cfg.defaults()
	src := newSearchSource(cfg.Seed)
	rng := newSearchRand(src)
	ev, err := NewEvaluator(org, cfg.RepFraction, rng)
	if err != nil {
		return nil, nil, err
	}
	eff := ev.Effectiveness()
	s := &search{
		ctx:        ctx,
		cfg:        cfg,
		org:        org,
		ev:         ev,
		src:        src,
		rng:        rng,
		stats:      &OptimizeStats{InitialEff: eff},
		plateauRef: eff,
		bestEff:    eff,
	}
	if cfg.Checkpoint != nil {
		s.dim = cfg.Checkpoint.Dim
		s.tagGroup = cfg.Checkpoint.TagGroup
	}
	return s.run()
}

// ResumeOptimizeRuntime continues a search from a checkpoint over the
// lake it was built on. The search runs under the checkpointed config
// (including its seed and checkpoint cadence) and keeps checkpointing
// to the file the checkpoint was loaded from. Because checkpoints are
// written at reconstruction boundaries, the resumed trajectory is
// identical to the one an uninterrupted process would have followed:
// only the work since the last checkpoint is redone. progress is the
// Progress callback (see OptimizeConfig), which the checkpoint
// deliberately does not store.
func ResumeOptimizeRuntime(ctx context.Context, l *lake.Lake, ck *Checkpoint, progress func(ProgressEvent)) (*Org, *OptimizeStats, error) {
	cfg := ck.searchConfig()
	cfg.Progress = progress
	cfg.defaults()
	org, ev, src, err := rebuildSearchState(l, cfg, ck)
	if err != nil {
		return nil, nil, err
	}
	s := &search{
		ctx: ctx,
		cfg: cfg,
		org: org,
		ev:  ev,
		src: src,
		rng: newSearchRand(src),
		stats: &OptimizeStats{
			Iterations: ck.Iterations,
			Accepted:   ck.Accepted,
			Rejected:   ck.Rejected,
			InitialEff: ck.InitialEff,
			Resumed:    true,
		},
		plateauRef:       ck.PlateauRef,
		sinceImprove:     ck.SinceImprove,
		bestEff:          ck.BestEff,
		bestSnapshot:     ck.Best,
		lastCkptAccepted: ck.Accepted,
		dim:              ck.Dim,
		tagGroup:         ck.TagGroup,
	}
	return s.run()
}

// search is the live state of one local-search run.
type search struct {
	ctx context.Context
	cfg OptimizeConfig
	org *Org
	ev  *Evaluator
	src *searchSource
	rng *rand.Rand

	stats   *OptimizeStats
	started time.Time

	// plateauRef and sinceImprove drive the Window termination rule.
	plateauRef   float64
	sinceImprove int

	// bestEff is the best effectiveness seen; sinceBest logs accepted-
	// but-not-improving operations so termination can unwind to the best
	// organization. After a checkpoint reconstruction the trail cannot
	// reach the pre-checkpoint best (state IDs were recompacted), so the
	// best lives on as bestSnapshot until the search beats it.
	bestEff      float64
	sinceBest    []*UndoLog
	bestSnapshot *ExportedOrg

	lastCkptAccepted int

	// dim and tagGroup stamp checkpoints with their dimension identity.
	dim      int
	tagGroup []string

	// step is proposeAndDecide's reused scratch.
	step stepScratch
}

func (s *search) canceled() bool { return s.ctx.Err() != nil }

func (s *search) done() bool {
	return s.canceled() ||
		s.stats.Iterations >= s.cfg.MaxIterations ||
		s.sinceImprove >= s.cfg.Window
}

func (s *search) run() (*Org, *OptimizeStats, error) {
	s.started = time.Now()
	for !s.done() {
		proposed, err := s.traverse()
		if err != nil {
			return nil, nil, err
		}
		if err := s.maybeCheckpoint(); err != nil {
			return nil, nil, err
		}
		if proposed == 0 {
			// No applicable operation anywhere: a fixed point.
			break
		}
	}
	return s.finish()
}

// traverse performs one downward traversal: states grouped by level,
// lowest reachability first within each level, each getting at most one
// proposed operation.
func (s *search) traverse() (int, error) {
	org, ev, cfg := s.org, s.ev, s.cfg
	proposed := 0
	meanReach := ev.MeanReach()
	levels := org.Levels()
	byLevel := make(map[int][]StateID)
	maxLevel := 0
	for _, st := range org.States {
		if st.deleted || st.ID == org.Root {
			continue
		}
		l := levels[st.ID]
		if l < 0 {
			continue
		}
		byLevel[l] = append(byLevel[l], st.ID)
		if l > maxLevel {
			maxLevel = l
		}
	}
	for l := 1; l <= maxLevel && !s.done(); l++ {
		states := byLevel[l]
		sort.Slice(states, func(i, j int) bool {
			if meanReach[states[i]] != meanReach[states[j]] {
				return meanReach[states[i]] < meanReach[states[j]]
			}
			return states[i] < states[j]
		})
		leafBudget := cfg.LeafProposals
		for _, sid := range states {
			if s.done() {
				break
			}
			st := org.State(sid)
			if st.deleted {
				continue // eliminated earlier in this traversal
			}
			if st.Kind == KindLeaf {
				if leafBudget <= 0 {
					continue
				}
				if ev.Approximate() && ev.IsRepresentativeLeaf(sid) {
					// A leaf op on a representative's own leaf is
					// booked for all its members — a systematic
					// overestimate; see IsRepresentativeLeaf.
					continue
				}
				leafBudget--
			}
			undo, accepted, wasProposed, v, err := proposeAndDecide(org, ev, &s.step, sid, levels, meanReach, s.rng, cfg.AcceptExponent)
			if err != nil {
				return proposed, err
			}
			if !wasProposed {
				continue
			}
			proposed++
			s.noteIteration(undo, accepted, v)
			// Structure may have changed; stale levels within a
			// traversal are tolerable (they only guide candidate
			// choice), and reachability is refreshed per traversal.
		}
	}
	return proposed, nil
}

// noteIteration books one proposed operation into the stats, the
// best-seen trail, and the plateau rule, and reports it with its visit
// counts v on the progress stream.
func (s *search) noteIteration(undo *UndoLog, accepted bool, v visits) {
	st := s.stats
	st.Iterations++
	if accepted {
		st.Accepted++
	} else {
		st.Rejected++
	}
	eff := s.ev.Effectiveness()
	if accepted {
		if eff > s.bestEff {
			s.bestEff = eff
			s.sinceBest = s.sinceBest[:0]
			s.bestSnapshot = nil
		} else {
			s.sinceBest = append(s.sinceBest, undo)
		}
	}
	if eff > s.plateauRef*(1+s.cfg.MinRelImprovement) {
		s.plateauRef = eff
		s.sinceImprove = 0
	} else {
		s.sinceImprove++
	}
	s.emitProgress(eff, v, false)
}

// emitProgress fires the Progress callback with the search's current
// counters and the visit counts v turned into fractions. The event is a
// stack value and the callback is gated on nil, so an unobserved search
// pays one branch per iteration and never counts the live states.
func (s *search) emitProgress(currentEff float64, v visits, final bool) {
	if s.cfg.Progress == nil {
		return
	}
	st := s.stats
	s.cfg.Progress(ProgressEvent{
		Dim:               s.dim,
		Iteration:         st.Iterations,
		Accepted:          st.Accepted,
		Rejected:          st.Rejected,
		CurrentEff:        currentEff,
		BestEff:           s.bestEff,
		ElapsedMS:         float64(time.Since(s.started)) / float64(time.Millisecond),
		Checkpoints:       st.Checkpoints,
		StatesVisitedFrac: frac(v.states, s.ev.TotalStates()),
		AttrsVisitedFrac:  frac(v.attrs, s.ev.TotalAttrs()),
		Final:             final,
		Truncated:         final && st.Truncated,
	})
}

// maybeCheckpoint snapshots the search at a traversal boundary once
// enough operations have been accepted since the last snapshot. A
// canceled or finished search does not checkpoint: the last boundary
// file already captures everything a resume may rely on.
func (s *search) maybeCheckpoint() error {
	c := s.cfg.Checkpoint
	if c == nil || s.done() {
		return nil
	}
	if s.stats.Accepted-s.lastCkptAccepted < c.EveryAccepted {
		return nil
	}
	return s.checkpoint()
}

// checkpoint writes the snapshot and reconstructs the live search from
// it, so everything downstream of this boundary is a pure function of
// the checkpoint bytes (see CheckpointConfig).
func (s *search) checkpoint() error {
	cur := s.org.Export()
	// Materialize the best organization by unwinding the trail on the
	// live org; the live org is rebuilt from cur below, so the unwind
	// does not need to be redone.
	best := s.bestSnapshot
	if best == nil && len(s.sinceBest) > 0 {
		for i := len(s.sinceBest) - 1; i >= 0; i-- {
			s.org.Undo(s.sinceBest[i])
		}
		best = s.org.Export()
	}
	ck := &Checkpoint{
		Version:      checkpointVersion,
		Dim:          s.dim,
		TagGroup:     s.tagGroup,
		Config:       s.cfg.savedConfig(),
		Iterations:   s.stats.Iterations,
		Accepted:     s.stats.Accepted,
		Rejected:     s.stats.Rejected,
		SinceImprove: s.sinceImprove,
		PlateauRef:   s.plateauRef,
		InitialEff:   s.stats.InitialEff,
		BestEff:      s.bestEff,
		RNGState:     s.src.State(),
		Current:      cur,
		Best:         best,
		path:         s.cfg.Checkpoint.Path,
	}
	if ck.path != "" {
		if err := SaveCheckpoint(ck.path, ck); err != nil {
			return err
		}
	}
	org, ev, src, err := rebuildSearchState(s.org.Lake, s.cfg, ck)
	if err != nil {
		return fmt.Errorf("core: checkpoint reconstruction: %w", err)
	}
	s.org, s.ev, s.src = org, ev, src
	s.rng = newSearchRand(src)
	s.sinceBest = nil
	s.bestSnapshot = ck.Best
	s.lastCkptAccepted = ck.Accepted
	s.stats.Checkpoints++
	return nil
}

// finish unwinds to the best organization seen and seals the stats.
func (s *search) finish() (*Org, *OptimizeStats, error) {
	if s.bestSnapshot != nil {
		// The best predates the last checkpoint reconstruction and is
		// unreachable through the undo trail; rebuild it.
		best, err := Import(s.org.Lake, s.bestSnapshot)
		if err != nil {
			return nil, nil, fmt.Errorf("core: restore best organization: %w", err)
		}
		s.org = best
	} else {
		for i := len(s.sinceBest) - 1; i >= 0; i-- {
			s.org.Undo(s.sinceBest[i])
		}
	}
	s.stats.FinalEff = s.bestEff
	s.stats.Truncated = s.canceled()
	s.stats.Duration = time.Since(s.started)
	s.emitProgress(s.stats.FinalEff, visits{}, true)
	if err := orgSane(s.org); err != nil {
		return s.org, s.stats, err
	}
	return s.org, s.stats, nil
}

func frac(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// orgSane is a cheap post-search invariant check (full Validate is
// O(V·|D|) and reserved for tests).
func orgSane(o *Org) error {
	if o.States[o.Root].deleted {
		return fmt.Errorf("core: optimizer deleted the root")
	}
	o.Topo() // panics on cycle
	return nil
}

// proposeAndDecide proposes candidate operations for state sid,
// evaluates each with the pruned incremental evaluator, keeps the best,
// and accepts or rejects it by Eq 9. Evaluating a small candidate set
// instead of a single argmax-reachability pick is what makes the walk
// find the (numerous but individually small) improving moves; the
// candidate set still consists solely of the paper's two operations.
// It returns the applied operation's undo log when accepted, reports
// (accepted, proposed), and returns the chosen candidate's visit counts:
// the quantity Figure 3 tracks is how much of the organization one
// modification forces the evaluator to touch. Every trial records into
// sc's one change set, which the evaluator reads only inside Reevaluate.
func proposeAndDecide(org *Org, ev *Evaluator, sc *stepScratch, sid StateID, levels []int, meanReach []float64, rng *rand.Rand, acceptExp float64) (*UndoLog, bool, bool, visits, error) {
	candidates := sc.pickOperations(org, sid, levels, meanReach, rng)
	if len(candidates) == 0 {
		return nil, false, false, visits{}, nil
	}
	oldEff := ev.Effectiveness()
	cs := &sc.cs

	// Trial-evaluate every candidate, remembering the best.
	bestIdx, bestEff := -1, -1.0
	var best visits
	for i, op := range candidates {
		org.recordChanges(cs)
		undo := op.apply(org)
		org.EndChanges()
		eff := ev.Reevaluate(cs)
		if eff > bestEff {
			bestEff, bestIdx, best = eff, i, ev.last
		}
		org.Undo(undo)
		if err := ev.Rollback(); err != nil {
			return nil, false, false, visits{}, err
		}
	}

	accept := bestEff >= oldEff
	if !accept && acceptExp > 0 && oldEff > 0 {
		accept = rng.Float64() < math.Pow(bestEff/oldEff, acceptExp)
	}
	if !accept {
		return nil, false, true, best, nil
	}
	// Re-apply the winning candidate for real.
	org.recordChanges(cs)
	undo := candidates[bestIdx].apply(org)
	org.EndChanges()
	ev.Reevaluate(cs)
	if err := ev.Commit(); err != nil {
		return nil, false, false, visits{}, err
	}
	return undo, true, true, best, nil
}

// stepScratch is what proposeAndDecide reuses from one call to the
// next: the change set every trial records into, the candidate
// operations and the candidate parents. A search owns one; the zero
// value is ready to use.
type stepScratch struct {
	cs    ChangeSet
	ops   []candidateOp
	cands []StateID
}

// opKind names one of the search's operations.
type opKind uint8

const (
	opAddParent opKind = iota
	opDeleteParent
	opRemoveLeafParent
)

// candidateOp is one proposed operation: AddParentOp(a, b),
// DeleteParentOp(a, b) or RemoveLeafParentOp(a, b).
type candidateOp struct {
	kind opKind
	a, b StateID
}

// apply performs the operation on org and returns its undo log.
func (c candidateOp) apply(org *Org) *UndoLog {
	switch c.kind {
	case opAddParent:
		return org.AddParentOp(c.a, c.b)
	case opDeleteParent:
		return org.DeleteParentOp(c.a, c.b)
	default:
		return org.RemoveLeafParentOp(c.a, c.b)
	}
}

// pickOperations assembles the candidate operations for sid into sc's
// buffer. Interior and tag states get ADD_PARENT candidates one level
// up — the most reachable legal state (the paper's rule), the most
// topic-similar one, and a random one — plus DELETE_PARENT of their
// least reachable parent; leaves analogously over tag states.
func (sc *stepScratch) pickOperations(org *Org, sid StateID, levels []int, meanReach []float64, rng *rand.Rand) []candidateOp {
	s := org.State(sid)
	ops := sc.ops[:0]
	addParentOp := func(n StateID) {
		if n < 0 {
			return
		}
		for _, op := range ops {
			if op.kind == opAddParent && op.a == n {
				return
			}
		}
		ops = append(ops, candidateOp{opAddParent, n, sid})
	}

	if s.Kind == KindLeaf {
		cands := sc.cands[:0]
		for _, ts := range org.States {
			if ts.Kind == KindTag && !ts.deleted && org.CanAddParent(ts.ID, sid) {
				cands = append(cands, ts.ID)
			}
		}
		sc.cands = cands
		addParentOp(argmaxID(cands, func(id StateID) float64 { return meanReach[id] }))
		addParentOp(argmaxID(cands, func(id StateID) float64 {
			return stateCos(org.States[id], s)
		}))
		if t := worstLeafParent(org, sid, meanReach); t >= 0 {
			ops = append(ops, candidateOp{opRemoveLeafParent, t, sid})
		}
	} else {
		cands := legalNewParents(org, sid, levels, sc.cands[:0])
		sc.cands = cands
		addParentOp(argmaxID(cands, func(id StateID) float64 { return meanReach[id] }))
		addParentOp(argmaxID(cands, func(id StateID) float64 {
			return stateCos(org.States[id], s)
		}))
		if len(cands) > 0 {
			addParentOp(cands[rng.Intn(len(cands))])
		}
		if r := worstParent(org, sid, meanReach); r >= 0 {
			ops = append(ops, candidateOp{opDeleteParent, sid, r})
		}
	}
	sc.ops = ops
	return ops
}

// legalNewParents appends to out the interior states exactly one level
// above sid that can legally become its parent.
func legalNewParents(org *Org, sid StateID, levels []int, out []StateID) []StateID {
	l := levels[sid]
	if l <= 0 {
		return out
	}
	for _, cand := range org.States {
		if cand.deleted || cand.Kind != KindInterior {
			continue
		}
		if levels[cand.ID] != l-1 {
			continue
		}
		if org.CanAddParent(cand.ID, sid) {
			out = append(out, cand.ID)
		}
	}
	return out
}

// argmaxID returns the id maximizing score, or -1 for an empty slice.
func argmaxID(ids []StateID, score func(StateID) float64) StateID {
	best, bm := StateID(-1), 0.0
	for _, id := range ids {
		if s := score(id); best == -1 || s > bm {
			bm, best = s, id
		}
	}
	return best
}

// worstParent returns sid's least reachable eliminable parent, or -1.
func worstParent(org *Org, sid StateID, meanReach []float64) StateID {
	best, bm := StateID(-1), 2.0
	for _, p := range org.State(sid).Parents {
		if !org.CanDeleteParent(sid, p) {
			continue
		}
		if m := meanReach[p]; m < bm {
			bm, best = m, p
		}
	}
	return best
}

// worstLeafParent returns the least reachable droppable tag-state parent
// of leaf sid, or -1.
func worstLeafParent(org *Org, sid StateID, meanReach []float64) StateID {
	best, bm := StateID(-1), 2.0
	for _, p := range org.State(sid).Parents {
		if !org.CanRemoveLeafParent(p, sid) {
			continue
		}
		if m := meanReach[p]; m < bm {
			bm, best = m, p
		}
	}
	return best
}
