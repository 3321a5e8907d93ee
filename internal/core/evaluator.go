package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"lakenav/internal/lake"
	"lakenav/internal/parallel"
	"lakenav/vector"
)

// Query is one evaluation probe: an attribute whose topic vector stands
// in for a user intent. In exact mode every organized attribute is its
// own query; in approximate mode a representative attribute's discovery
// probability stands in for all Members (Sec 3.4).
type Query struct {
	// Attr is the probe attribute (the representative).
	Attr lake.AttrID
	// Topic is μ_Attr.
	Topic vector.Vector
	// Members are the attributes this query's result approximates,
	// including Attr itself.
	Members []lake.AttrID
}

// Evaluator computes and incrementally maintains the organization
// effectiveness P(T|O) (Eq 6) across search operations. It caches, per
// non-leaf state, the reach probability under every query; per query,
// the query leaf's discovery probability, the cosine of every state it
// has scored and the Eq 1 distribution of every parent it has
// expanded. After an operation it re-evaluates only the states
// downstream of the change (the paper's pruning), only the cosines of
// states whose topic moved and only the distributions the operation
// changed, counting how much work that saved for the Figure 3
// experiment.
type Evaluator struct {
	org     *Org
	queries []Query
	// repOf maps each position in org.Attrs() to its query index.
	repOf []int
	// queryLeaf[q] is the leaf state of query q's attribute, or -1.
	// Operations never replace a leaf, so it is fixed.
	queryLeaf []StateID
	// workers bounds the goroutine pool for the per-query loops. Results
	// are identical for every value (each query owns its reach cells and
	// reductions happen in query order); it only trades latency for CPU.
	workers int

	// queryNorm[q] caches ‖Topic_q‖₂ for the similarity kernel.
	queryNorm []float64

	// nStates is len(org.States) when the rows were cached; any growth
	// of the organization after construction makes every row stale, and
	// checkFresh fails loudly instead of silently scoring the new states
	// unreachable.
	nStates int
	// rank[id] is non-leaf state id's row in reachFlat, or -1 for a
	// leaf. Leaves hold no reach and states never change kind, so the
	// ranks are fixed at construction.
	rank []int32
	// reachFlat is the reach memo, state-major: the row of non-leaf
	// state id (see reachRow) holds P(id | Topic_q) for every query q,
	// so the sweep updates one state for a whole query range in one
	// contiguous loop. It holds nq × (non-leaf states) cells.
	reachFlat []float64
	// simFlat and sims are the per-query cosine memo, query-major:
	// row sims[q] is a capped view into simFlat indexed by StateID, and
	// sims[q][stateID] is cos(μ_state, Topic_q), or
	// NaN until the kernel next needs it (see transitionsInto). Only the
	// worker that owns query q touches row q. Reevaluate and Rollback
	// reset the cells of topicChanged, the states whose topic the last
	// operation moved.
	simFlat      []float64
	sims         [][]float64
	topicChanged []StateID
	// trans is the per-query Eq 1 transition memo, one slot per state.
	// With fan = len(States[p].Children), row q of slot trans[p] is
	// trans[p][q*fan:(q+1)*fan]: p's distribution over its children
	// under query q, stale while its first cell is NaN (see transRow).
	// Slots are carved from one block at construction; markStale
	// reallocates a slot whose fan-out outgrew it. Only the worker that
	// owns query q fills row q; marking rows stale is serial.
	trans [][]float64
	// staleOut lists the slots the last Reevaluate marked stale, so
	// Rollback can mark them again.
	staleOut []StateID
	// leafProb[q]: discovery probability of the query's own leaf.
	leafProb []float64
	// leafDirty and leafNew are per-query scratch for the parallel leaf
	// re-evaluation phase of Reevaluate. Reevaluate swaps each dirty
	// query's new value into leafProb, leaving the old one in leafNew
	// for Rollback to swap back.
	leafDirty []bool
	leafNew   []float64
	// eff is the current effectiveness (Eq 6).
	eff float64

	// tableAttrs[i] lists, per live lake table, the positions in
	// org.Attrs() of its organized attributes; tables with none are
	// omitted. tables counts the live tables (the Eq 6 denominator).
	tableAttrs [][]int
	tables     int

	// Rollback state for the last Reevaluate. The plan is affectedTopo
	// followed by eliminated (a copy of cs.Eliminated), and savedReach
	// holds the reach rows the sweep overwrote in its (plan index,
	// query) layout: cells i*nq up to (i+1)*nq are plan state i's old
	// row. An eliminated state is detached, so it is never also
	// affected, and the buffer never outgrows reachFlat; it stays at its
	// high-water mark.
	savedReach []float64
	eliminated []StateID
	savedEff   float64
	pending    bool

	// repLeaves caches the leaf states of query attributes. Precomputed
	// at construction and immutable after, so concurrent probes never
	// race an initialization.
	repLeaves map[StateID]bool

	// Reevaluate's per-call sets and plan, rebuilt serially per call and
	// read-only inside the worker sweep. A state is in a set while its
	// stamp in the set's table equals gen, so no call clears a table or
	// builds a map. changedOut lists the states whose outgoing
	// distribution changed (outGen); affected lists the non-leaf states
	// downstream of them, whose reach is stale (affGen, which the
	// eliminated states join after ordering); staleGen dedupes
	// markStale. stack and indeg are the walk's and the ordering's
	// scratch.
	gen          uint64
	outGen       []uint64
	affGen       []uint64
	staleGen     []uint64
	changedOut   []StateID
	affected     []StateID
	stack        []StateID
	indeg        []int32
	affectedTopo []StateID
	// For affected state affectedTopo[i], pairs planPairStart[i] up to
	// planPairStart[i+1] name its parents in Parents order
	// (planPairParent) and its position among each parent's children
	// (planPairIdx), resolved once per call instead of once per query.
	planPairStart  []int32
	planPairParent []StateID
	planPairIdx    []int32

	// last is the last Reevaluate's visit counts, for Figure 3.
	last visits
}

// visits counts what one Reevaluate touched, the numerators of the
// Figure 3 fractions: the non-leaf states whose reach it recomputed or
// zeroed or whose outgoing distribution changed, and the queries whose
// discovery probability it recomputed.
type visits struct{ states, attrs int }

// checkFresh fails loudly when the organization grew states after this
// evaluator cached its reach rows: the rows cover only the states that
// existed at construction, so evaluating against a grown organization
// would silently score every new state unreachable. Growth (e.g.
// ApplyLakeBatch) requires a fresh evaluator — exactly what
// ReoptimizeLocal builds.
func (ev *Evaluator) checkFresh(op string) {
	if len(ev.org.States) != ev.nStates {
		panic(fmt.Sprintf("core: %s on a stale evaluator: organization has %d states, evaluator cached %d — rebuild the evaluator after adding states", op, len(ev.org.States), ev.nStates))
	}
}

// NewEvaluator builds an evaluator over org. repFraction in (0, 1)
// selects approximate mode with that fraction of attributes as
// representatives (the paper uses 10%); any other value selects exact
// mode. The rng drives representative seeding and must be non-nil in
// approximate mode.
func NewEvaluator(org *Org, repFraction float64, rng *rand.Rand) (*Evaluator, error) {
	return NewEvaluatorWorkers(org, repFraction, rng, 0)
}

// NewEvaluatorWorkers is NewEvaluator with an explicit worker-pool size
// for the per-query loops; workers <= 0 selects GOMAXPROCS. The results
// are bit-identical for every pool size — the knob only trades latency
// for CPU.
func NewEvaluatorWorkers(org *Org, repFraction float64, rng *rand.Rand, workers int) (*Evaluator, error) {
	ev := &Evaluator{org: org, workers: resolveWorkers(workers)}
	if repFraction > 0 && repFraction < 1 {
		if rng == nil {
			return nil, fmt.Errorf("core: approximate evaluator needs an rng")
		}
		ev.queries, ev.repOf = selectRepresentatives(org, repFraction, rng)
	} else {
		attrs := org.Attrs()
		ev.queries = make([]Query, len(attrs))
		ev.repOf = make([]int, len(attrs))
		for i, a := range attrs {
			ev.queries[i] = Query{Attr: a, Topic: org.State(org.Leaf(a)).topic, Members: []lake.AttrID{a}}
			ev.repOf[i] = i
		}
	}

	idx := org.attrIndex()
	for _, t := range org.Lake.Tables {
		if t.Removed {
			continue
		}
		ev.tables++
		var positions []int
		for _, a := range t.Attrs {
			if p, ok := idx[a]; ok {
				positions = append(positions, p)
			}
		}
		if positions != nil {
			ev.tableAttrs = append(ev.tableAttrs, positions)
		}
	}

	ev.queryNorm = make([]float64, len(ev.queries))
	for q := range ev.queries {
		ev.queryNorm[q] = vector.Norm(ev.queries[q].Topic)
	}

	// Precompute the representative-leaf set so concurrent probes
	// (IsRepresentativeLeaf) read an immutable map instead of racing a
	// lazy first-call initialization.
	ev.repLeaves = make(map[StateID]bool, len(ev.queries))
	ev.queryLeaf = make([]StateID, len(ev.queries))
	for q, query := range ev.queries {
		leaf := org.Leaf(query.Attr)
		ev.queryLeaf[q] = leaf
		if leaf >= 0 {
			ev.repLeaves[leaf] = true
		}
	}

	nq := len(ev.queries)
	ev.nStates = len(org.States)
	ev.rank = make([]int32, ev.nStates)
	nonLeaf := 0
	for id, s := range org.States {
		if s.Kind == KindLeaf {
			ev.rank[id] = -1
			continue
		}
		ev.rank[id] = int32(nonLeaf)
		nonLeaf++
	}
	ev.reachFlat = make([]float64, nq*nonLeaf)
	ev.simFlat = make([]float64, nq*ev.nStates)
	ev.sims = make([][]float64, nq)
	for q := range ev.sims {
		ev.sims[q] = ev.simFlat[q*ev.nStates : (q+1)*ev.nStates : (q+1)*ev.nStates]
	}
	ev.initTrans()
	ev.leafProb = make([]float64, nq)
	ev.leafDirty = make([]bool, nq)
	ev.leafNew = make([]float64, nq)
	ev.outGen = make([]uint64, ev.nStates)
	ev.affGen = make([]uint64, ev.nStates)
	ev.staleGen = make([]uint64, ev.nStates)
	ev.indeg = make([]int32, ev.nStates)
	// Warm the topo order the workers share read-only; computing it
	// lazily inside the pool would race.
	org.Topo()
	fan := org.maxFanOut()
	wk := parallel.Workers(nq*ev.nStates, serialWorkFloor, ev.workers)
	parallelForWorkers(nq, wk, func(w, lo, hi int) {
		probs := make([]float64, fan)
		reach := make([]float64, ev.nStates)
		for q := lo; q < hi; q++ {
			fillNaN(ev.sims[q])
			org.reachProbsInto(ev.queries[q].Topic, ev.queryNorm[q], ev.sims[q], reach, probs)
			for id, r := range ev.rank {
				if r >= 0 {
					ev.reachFlat[int(r)*nq+q] = reach[id]
				}
			}
			ev.leafProb[q] = ev.leafProbMemo(q)
		}
	})
	ev.eff = ev.computeEff()
	metricEvaluatorBuilds.Inc()
	return ev, nil
}

// initTrans carves every state's transition-memo slot, nq rows of its
// current fan-out, from one block and marks every row stale.
func (ev *Evaluator) initTrans() {
	nq := len(ev.queries)
	total := 0
	for _, s := range ev.org.States {
		total += nq * len(s.Children)
	}
	block := make([]float64, total)
	ev.trans = make([][]float64, ev.nStates)
	off := 0
	for id, s := range ev.org.States {
		fan := len(s.Children)
		n := nq * fan
		ev.trans[id] = block[off : off+n : off+n]
		off += n
		markRowsStale(ev.trans[id], fan)
	}
}

// markRowsStale puts NaN in the first cell of every fan-cell row of a
// transition-memo slot.
func markRowsStale(slot []float64, fan int) {
	nan := math.NaN()
	for c := 0; c < len(slot); c += fan {
		slot[c] = nan
	}
}

// reachRow returns non-leaf state id's reach row, one cell per query.
// A leaf has no row (its rank is -1, so the slice expression panics).
func (ev *Evaluator) reachRow(id StateID) []float64 {
	nq := len(ev.queries)
	off := int(ev.rank[id]) * nq
	return ev.reachFlat[off : off+nq : off+nq]
}

// Approximate reports whether the evaluator runs in representative mode
// (fewer queries than organized attributes).
func (ev *Evaluator) Approximate() bool { return len(ev.queries) < len(ev.org.Attrs()) }

// IsRepresentativeLeaf reports whether state id is the leaf of a query
// attribute. In approximate mode, a leaf-level operation on a
// representative's own leaf changes only that representative's true
// discovery probability but the evaluator books the change for every
// member it stands for — a systematic overestimate the optimizer must
// not exploit, so such proposals are skipped.
func (ev *Evaluator) IsRepresentativeLeaf(id StateID) bool {
	return ev.repLeaves[id]
}

// Effectiveness returns the current cached P(T|O).
func (ev *Evaluator) Effectiveness() float64 { return ev.eff }

// AttrProb returns the (possibly representative-approximated) discovery
// probability of the attribute at position i of org.Attrs().
//
//lakelint:ignore deadexport -- per-query probe the evaluator parity gates compare bit for bit
func (ev *Evaluator) AttrProb(i int) float64 { return ev.leafProb[ev.repOf[i]] }

// computeEff evaluates Eq 6 from the cached leaf probabilities.
func (ev *Evaluator) computeEff() float64 {
	if ev.tables == 0 {
		return 0
	}
	var sum float64
	for _, positions := range ev.tableAttrs {
		fail := 1.0
		for _, p := range positions {
			fail *= 1 - ev.leafProb[ev.repOf[p]]
		}
		sum += 1 - fail
	}
	return sum / float64(ev.tables)
}

// MeanReach returns, per state, the reachability probability P(s|O)
// (Eq 10): the mean reach over all queries. Deleted states and leaves
// score 0. The reduction is partitioned by state, so each output cell
// is one worker's sum of its state's contiguous row in ascending query
// order — the same order (and therefore the same floating-point result)
// as a serial pass.
func (ev *Evaluator) MeanReach() []float64 {
	metricMeanReaches.Inc()
	// Cached rows cover exactly the construction-time state set; a grown
	// organization must fail here, not silently score new states 0.
	ev.checkFresh("MeanReach")
	out := make([]float64, len(ev.org.States))
	if len(ev.queries) == 0 {
		return out
	}
	inv := 1 / float64(len(ev.queries))
	parallelFor(len(out), parallel.Workers(len(ev.queries)*len(out), serialWorkFloor, ev.workers), func(lo, hi int) {
		for id := lo; id < hi; id++ {
			if ev.rank[id] < 0 || ev.org.States[id].deleted {
				continue
			}
			var sum float64
			for _, r := range ev.reachRow(StateID(id)) {
				sum += r
			}
			out[id] = sum * inv
		}
	})
	return out
}

// Reevaluate recomputes the cached probabilities affected by cs and
// returns the new effectiveness. The previous values are retained until
// Commit or Rollback is called; exactly one of them must follow.
func (ev *Evaluator) Reevaluate(cs *ChangeSet) float64 {
	if ev.pending {
		panic("core: Reevaluate with uncommitted previous evaluation")
	}
	ev.checkFresh("Reevaluate")
	o := ev.org
	states := o.States
	ev.gen++
	gen := ev.gen

	// Mark stale, for every query, the transition rows the operation
	// changed: those of every state whose child list changed — deleted
	// and eliminated states included, since Org.Undo revives them — and
	// of every parent of a state whose topic moved (softmax denominators
	// are shared across siblings).
	ev.staleOut = ev.staleOut[:0]
	for id := range cs.ChildrenChanged {
		if ev.markStale(id) {
			ev.staleOut = append(ev.staleOut, id)
		}
	}
	ev.topicChanged = ev.topicChanged[:0]
	for id := range cs.TopicChanged {
		ev.topicChanged = append(ev.topicChanged, id)
		for _, p := range o.States[id].Parents {
			if ev.markStale(p) {
				ev.staleOut = append(ev.staleOut, p)
			}
		}
	}

	// States whose outgoing transition distributions changed: the live
	// non-leaf members of the stale set.
	ev.changedOut = ev.changedOut[:0]
	for _, id := range ev.staleOut {
		if s := o.States[id]; !s.deleted && s.Kind != KindLeaf {
			ev.outGen[id] = gen
			ev.changedOut = append(ev.changedOut, id)
		}
	}

	// Affected: non-leaf states strictly downstream of any changed-out
	// state — their reach probabilities are stale.
	ev.affected = ev.affected[:0]
	stack := append(ev.stack[:0], ev.changedOut...)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range states[id].Children {
			if states[c].Kind != KindLeaf && ev.affGen[c] != gen {
				ev.affGen[c] = gen
				ev.affected = append(ev.affected, c)
				stack = append(stack, c)
			}
		}
	}
	ev.stack = stack

	// Order the affected states by Kahn's algorithm over the affected
	// subgraph. Reach needs only every affected parent finished first,
	// and each state sums over its parents in Parents order, so any
	// valid order gives the same bits.
	for _, id := range ev.affected {
		n := int32(0)
		for _, p := range states[id].Parents {
			if ev.affGen[p] == gen {
				n++
			}
		}
		ev.indeg[id] = n
	}
	ev.affectedTopo = ev.affectedTopo[:0]
	for _, id := range ev.affected {
		if ev.indeg[id] == 0 {
			ev.affectedTopo = append(ev.affectedTopo, id)
		}
	}
	for head := 0; head < len(ev.affectedTopo); head++ {
		for _, c := range states[ev.affectedTopo[head]].Children {
			if ev.affGen[c] == gen {
				if ev.indeg[c]--; ev.indeg[c] == 0 {
					ev.affectedTopo = append(ev.affectedTopo, c)
				}
			}
		}
	}
	if len(ev.affectedTopo) != len(ev.affected) {
		panic(fmt.Sprintf("core: cycle among affected states (%d of %d ordered)", len(ev.affectedTopo), len(ev.affected)))
	}
	affectedTopo := ev.affectedTopo

	// The (parent, child position) pairs each affected state's reach
	// sums over, resolved serially once instead of rescanned per query.
	ev.planPairStart = append(ev.planPairStart[:0], 0)
	ev.planPairParent = ev.planPairParent[:0]
	ev.planPairIdx = ev.planPairIdx[:0]
	for _, id := range affectedTopo {
		for _, p := range states[id].Parents {
			ci := int32(-1)
			for i, c := range states[p].Children {
				if c == id {
					ci = int32(i)
					break
				}
			}
			ev.planPairParent = append(ev.planPairParent, p)
			ev.planPairIdx = append(ev.planPairIdx, ci)
		}
		ev.planPairStart = append(ev.planPairStart, int32(len(ev.planPairParent)))
	}

	// Eliminated states are not ordered; zero their reach explicitly.
	// Figure 3 counts them as visited.
	visited := len(ev.affected)
	for _, e := range cs.Eliminated {
		if ev.affGen[e] != gen {
			ev.affGen[e] = gen
			visited++
		}
	}
	for _, id := range ev.changedOut {
		if ev.affGen[id] != gen {
			visited++
		}
	}

	ev.eliminated = append(ev.eliminated[:0], cs.Eliminated...)
	ev.savedEff = ev.eff
	ev.pending = true

	// Each query q owns column q of every reach row and of savedReach,
	// its transition-memo rows and its cosine row, so the parallel sweep
	// is race-free and the saved cells are the same for every worker
	// count.
	perQuery := len(affectedTopo) + len(ev.eliminated)
	need := len(ev.queries) * perQuery
	if cap(ev.savedReach) < need {
		ev.savedReach = make([]float64, need)
	}
	ev.savedReach = ev.savedReach[:need]
	workers := parallel.Workers(len(ev.queries)*(perQuery+1), serialWorkFloor, ev.workers)
	parallelForWorkers(len(ev.queries), workers, func(_, lo, hi int) {
		ev.sweep(lo, hi)
	})

	// Re-evaluate leaf probabilities for queries whose leaf hangs under
	// an affected or transition-changed tag state. The workers only fill
	// per-query scratch; the dirty results are swapped into the cache
	// serially below, leaving the old values in leafNew for Rollback.
	parallelForWorkers(len(ev.queries), workers, func(_, lo, hi int) {
		for q := lo; q < hi; q++ {
			ev.leafDirty[q] = false
			leaf := ev.queryLeaf[q]
			if leaf < 0 {
				continue
			}
			for _, t := range states[leaf].Parents {
				if ev.affGen[t] == gen || ev.outGen[t] == gen {
					ev.leafDirty[q] = true
					break
				}
			}
			if ev.leafDirty[q] {
				ev.leafNew[q] = ev.leafProbMemo(q)
			}
		}
	})
	attrsVisited := 0
	for q := range ev.queries {
		if !ev.leafDirty[q] {
			continue
		}
		ev.leafProb[q], ev.leafNew[q] = ev.leafNew[q], ev.leafProb[q]
		// One discovery-probability evaluation per recomputed query.
		// Figure 3 counts evaluations against the total attribute count,
		// which is how the representative approximation reaches the
		// paper's ~6%: only ~60% of the 10% representatives per
		// iteration.
		attrsVisited++
	}

	ev.last = visits{visited, attrsVisited}
	metricReevaluates.Inc()
	metricStatesRevisited.Add(uint64(visited))
	metricLeafEvals.Add(uint64(attrsVisited))
	ev.eff = ev.computeEff()
	return ev.eff
}

// markStale marks every query's transition-memo row of state id stale,
// first resizing the slot to id's current fan-out (reallocating it, with
// growth slack, when the fan-out outgrew it). It reports false, doing
// nothing, when id was already marked under the current generation.
// Serial only: it may replace the slot the workers index.
func (ev *Evaluator) markStale(id StateID) bool {
	if ev.staleGen[id] == ev.gen {
		return false
	}
	ev.staleGen[id] = ev.gen
	fan := len(ev.org.States[id].Children)
	n := len(ev.queries) * fan
	slot := ev.trans[id]
	if cap(slot) < n {
		slot = make([]float64, n, n+n/2)
	}
	ev.trans[id] = slot[:n]
	markRowsStale(ev.trans[id], fan)
	return true
}

// transRow returns query q's transition-memo row of state p — p's Eq 1
// distribution over its children, parallel to States[p].Children —
// filling it through transitionsInto first if it is stale. p must have
// children. Only the worker that owns query q may call it.
//
//lakelint:hotpath
func (ev *Evaluator) transRow(p StateID, q int) []float64 {
	fan := len(ev.org.States[p].Children)
	row := ev.trans[p][q*fan : (q+1)*fan]
	if math.IsNaN(row[0]) {
		ev.org.transitionsInto(p, ev.queries[q].Topic, ev.queryNorm[q], ev.sims[q], row)
	}
	return row
}

// sweep is Reevaluate's reach pass (Eq 2–4) over queries [lo, hi): it
// resets those queries' cosine cells of the moved topics, then, for
// each plan state in order, saves the range of its row into savedReach
// and recomputes it, one plan pair at a time. A pair's parent row,
// transition slot and child position are read once; the query loop
// then adds reach × transition into the state's row, so each query
// still sums its parents in Parents order from zero — the bits of a
// per-query sum. A parent with zero reach adds exactly zero, so it is
// skipped and its transition row is not filled. Eliminated states are
// zeroed. Only the worker that owns [lo, hi) may call it.
//
//lakelint:hotpath
func (ev *Evaluator) sweep(lo, hi int) {
	for q := lo; q < hi; q++ {
		ev.invalidateSims(q)
	}
	nq := len(ev.queries)
	states := ev.org.States
	for i, id := range ev.affectedTopo {
		dst := ev.reachRow(id)[lo:hi]
		copy(ev.savedReach[i*nq+lo:i*nq+hi], dst)
		clear(dst)
		for k := ev.planPairStart[i]; k < ev.planPairStart[i+1]; k++ {
			p := ev.planPairParent[k]
			ci := int(ev.planPairIdx[k])
			src := ev.reachRow(p)[lo:hi]
			slot := ev.trans[p]
			fan := len(states[p].Children)
			for j, r := range src {
				if r == 0 {
					continue
				}
				q := lo + j
				row := slot[q*fan : (q+1)*fan]
				if math.IsNaN(row[0]) {
					ev.org.transitionsInto(p, ev.queries[q].Topic, ev.queryNorm[q], ev.sims[q], row)
				}
				dst[j] += r * row[ci]
			}
		}
	}
	base := len(ev.affectedTopo) * nq
	for i, e := range ev.eliminated {
		row := ev.reachRow(e)[lo:hi]
		copy(ev.savedReach[base+i*nq+lo:base+i*nq+hi], row)
		clear(row)
	}
}

// leafProbMemo is leafProbInto for query q's own leaf, reading its tag
// parents' distributions from the transition memo: the same products of
// the same values in the same order, so the same bits.
//
//lakelint:hotpath
func (ev *Evaluator) leafProbMemo(q int) float64 {
	leaf := ev.queryLeaf[q]
	if leaf < 0 {
		return 0
	}
	nq := len(ev.queries)
	states := ev.org.States
	var p float64
	for _, t := range states[leaf].Parents {
		r := ev.reachFlat[int(ev.rank[t])*nq+q]
		if r == 0 {
			continue
		}
		row := ev.transRow(t, q)
		for i, c := range states[t].Children {
			if c == leaf {
				p += r * row[i]
				break
			}
		}
	}
	return p
}

// Commit accepts the last Reevaluate. Calling it without a pending
// Reevaluate is a sequencing error reported as an error value (not a
// panic): a long-running service embedding the evaluator should log
// and recover, not crash.
func (ev *Evaluator) Commit() error {
	if !ev.pending {
		return fmt.Errorf("core: Commit without a pending Reevaluate")
	}
	ev.pending = false
	return nil
}

// Rollback restores the cached state from before the last Reevaluate.
// The organization itself must be restored separately (Org.Undo), and
// first. Like Commit it reports misuse as an error value.
//
// The cosine and transition memos are invalidated, not restored:
// Org.Undo recomputes the moved topics through the vector.Running
// accumulators, which need not reproduce the pre-operation bits, so a
// saved cosine or distribution could differ from the one the kernel
// computes against the restored arena. The transition rows marked stale
// are the ones Reevaluate marked, now sized by the restored fan-outs.
// They cover every restored parent of a moved topic: a parent whose
// edge the operation removed has its child list changed, and a parent
// kept through the operation was marked as a parent of that topic.
func (ev *Evaluator) Rollback() error {
	if !ev.pending {
		return fmt.Errorf("core: Rollback without a pending Reevaluate")
	}
	for q := range ev.sims {
		ev.invalidateSims(q)
	}
	ev.gen++
	for _, id := range ev.staleOut {
		ev.markStale(id)
	}
	nq := len(ev.queries)
	for i, id := range ev.affectedTopo {
		copy(ev.reachRow(id), ev.savedReach[i*nq:(i+1)*nq])
	}
	base := len(ev.affectedTopo) * nq
	for i, e := range ev.eliminated {
		copy(ev.reachRow(e), ev.savedReach[base+i*nq:base+(i+1)*nq])
	}
	for q, dirty := range ev.leafDirty {
		if dirty {
			ev.leafProb[q], ev.leafNew[q] = ev.leafNew[q], ev.leafProb[q]
		}
	}
	ev.eff = ev.savedEff
	ev.pending = false
	return nil
}

// invalidateSims resets query q's memo cells for the states whose topic
// the last operation moved.
func (ev *Evaluator) invalidateSims(q int) {
	sims := ev.sims[q]
	nan := math.NaN()
	for _, id := range ev.topicChanged {
		sims[id] = nan
	}
}

// TotalStates returns the number of live non-leaf states (the
// denominator of the Figure 3 state-visit fraction).
func (ev *Evaluator) TotalStates() int {
	n := 0
	for _, s := range ev.org.States {
		if !s.deleted && s.Kind != KindLeaf {
			n++
		}
	}
	return n
}

// TotalAttrs returns the number of organized attributes.
func (ev *Evaluator) TotalAttrs() int { return len(ev.org.Attrs()) }

// selectRepresentatives picks ⌈fraction·n⌉ representative attributes by
// farthest-point (k-means++-style) seeding over attribute topic vectors
// and assigns every attribute to its nearest representative, realizing
// the one-to-one representative/partition mapping of Sec 3.4.
func selectRepresentatives(org *Org, fraction float64, rng *rand.Rand) ([]Query, []int) {
	attrs := org.Attrs()
	n := len(attrs)
	k := int(float64(n)*fraction + 0.5)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	topics := make([]vector.Vector, n)
	norms := make([]float64, n)
	for i, a := range attrs {
		leaf := org.State(org.Leaf(a))
		topics[i] = leaf.topic
		norms[i] = leaf.topicNorm
	}

	reps := make([]int, 0, k)
	first := rng.Intn(n)
	reps = append(reps, first)
	minDist := make([]float64, n)
	for i := range minDist {
		minDist[i] = 1 - vector.CosineNorms(topics[i], topics[first], norms[i], norms[first])
	}
	for len(reps) < k {
		var total float64
		for _, d := range minDist {
			total += d
		}
		var next int
		if total <= 0 {
			next = -1
			chosen := make(map[int]bool, len(reps))
			for _, r := range reps {
				chosen[r] = true
			}
			for i := 0; i < n; i++ {
				if !chosen[i] {
					next = i
					break
				}
			}
			if next == -1 {
				break
			}
		} else {
			r := rng.Float64() * total
			next = n - 1
			var acc float64
			for i, d := range minDist {
				acc += d
				if acc >= r {
					next = i
					break
				}
			}
		}
		reps = append(reps, next)
		for i := range minDist {
			if d := 1 - vector.CosineNorms(topics[i], topics[next], norms[i], norms[next]); d < minDist[i] {
				minDist[i] = d
			}
		}
	}
	sort.Ints(reps)

	queries := make([]Query, len(reps))
	repIdx := make(map[int]int, len(reps))
	for qi, ri := range reps {
		queries[qi] = Query{Attr: attrs[ri], Topic: topics[ri]}
		repIdx[ri] = qi
	}
	repOf := make([]int, n)
	for i := 0; i < n; i++ {
		if qi, ok := repIdx[i]; ok {
			repOf[i] = qi
			continue
		}
		best, bd := 0, -2.0
		for qi, ri := range reps {
			if s := vector.CosineNorms(topics[i], topics[ri], norms[i], norms[ri]); s > bd {
				bd, best = s, qi
			}
		}
		repOf[i] = best
	}
	for i, qi := range repOf {
		queries[qi].Members = append(queries[qi].Members, attrs[i])
	}
	return queries, repOf
}
