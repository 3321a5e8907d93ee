package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"time"

	"lakenav/internal/lake"
	"lakenav/vector"
)

// This file is the organization layer of incremental ingest: replaying
// one journal batch into an existing organization instead of rebuilding
// it from scratch. The contract with the lake layer is ChangeSummary
// (lake.ApplyChanges + lake.ComputeTopicsFor must both have run before
// ApplyLakeBatch), and the contract with the optimizer is the returned
// ChangeSet, which ReoptimizeLocal uses to re-search only the part of
// the structure the batch disturbed.
//
// Incremental apply mirrors buildBase's construction order exactly —
// leaves in ascending attribute order, tag-state children in data(t)
// order, new tag states appended under the root in tag-subset order —
// so an add-only batch applied incrementally produces a structure
// canonically identical (StructureHash) to a from-scratch rebuild over
// the post-batch lake, with bit-identical effectiveness. Removal
// batches stay canonically identical in structure; their accumulator
// floats may differ from a rebuild's by ulps because RemoveWeighted is
// not an exact floating-point inverse of AddWeighted.
//
// One accepted divergence: a tag that existed before the batch but was
// unusable (no embedded text attribute) and becomes usable later gets
// its tag state appended at the end of the root's child list, whereas a
// rebuild would place it at its first-seen position. The structures are
// equivalent for navigation; only the canonical ordering differs.

// ApplyLakeBatch replays one applied lake change batch into the
// organization. tags is the organization's tag subset (one dimension of
// a multi-dimensional organization); nil means every lake tag, matching
// BuildConfig.Tags. The lake must already hold the batch
// (lake.ApplyChanges) with topics computed for the added attributes
// (lake.ComputeTopicsFor).
//
// The returned ChangeSet records every state the batch touched and
// seeds ReoptimizeLocal. The change is not undoable: on error the
// organization may be partially mutated and must be discarded (the
// caller keeps serving the previous generation and rebuilds).
func (o *Org) ApplyLakeBatch(sum *lake.ChangeSummary, tags []string) (*ChangeSet, error) {
	l := o.Lake
	if l.Dim() == 0 {
		return nil, fmt.Errorf("core: apply batch: lake topics not computed")
	}
	if tags == nil {
		tags = l.Tags()
	}
	tagSet := make(map[string]bool, len(tags))
	for _, t := range tags {
		tagSet[t] = true
	}

	cs := o.BeginChanges()
	defer o.EndChanges()
	// The undo log is discarded: incremental apply is one-way (the
	// previous generation is the rollback mechanism, not Undo).
	u := &UndoLog{}

	// Removals: eliminate the leaf of every removed organized attribute.
	// A leaf has no children, so eliminate reduces to unlinking it from
	// its tag-state parents with domain maintenance — support for the
	// attribute drains out of every ancestor.
	removed := make(map[lake.AttrID]bool, len(sum.RemovedAttrs))
	for _, a := range sum.RemovedAttrs {
		removed[a] = true
		leaf, ok := o.leafOf[a]
		if !ok {
			continue // not organized in this dimension
		}
		o.eliminate(u, leaf)
		delete(o.leafOf, a)
	}

	// Tag states that lost their last leaf are eliminated; the tag's
	// label is scrubbed from ancestor tag lists. Iterating l.Tags()
	// keeps the order deterministic.
	for _, tag := range l.Tags() {
		ts, ok := o.tagState[tag]
		if !ok {
			continue
		}
		s := o.States[ts]
		if s.deleted || len(s.Children) > 0 {
			continue
		}
		o.eliminate(u, ts)
		delete(o.tagState, tag)
		o.dropTagLabel(tag)
	}

	// Cascade: interior states left childless by the eliminations above
	// (their domains are already empty, so this is pure unlinking).
	for {
		changed := false
		for _, s := range o.States {
			if s.deleted || s.Kind != KindInterior || s.ID == o.Root {
				continue
			}
			if len(s.Children) == 0 {
				o.eliminate(u, s.ID)
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	// Additions: collect the batch's organizable attributes — text,
	// embedded, carrying at least one tag of this organization's subset
	// — in ascending order, the order buildBase creates leaves in.
	var newAttrs []lake.AttrID
	for _, a := range sum.AddedAttrs {
		attr := l.Attr(a)
		if attr.Removed || !attr.Text || attr.EmbCount == 0 {
			continue
		}
		if _, ok := o.leafOf[a]; ok {
			continue
		}
		for _, tg := range l.AttrTags(a) {
			if tagSet[tg] {
				newAttrs = append(newAttrs, a)
				break
			}
		}
	}
	sort.Slice(newAttrs, func(i, j int) bool { return newAttrs[i] < newAttrs[j] })

	for _, a := range newAttrs {
		s := o.newState(KindLeaf)
		s.Attr = a
		s.setTopic(l.Attr(a).Topic)
		o.leafOf[a] = s.ID
		// newState does not record notes; seed the change set so
		// ReoptimizeLocal proposes operations for the new leaf.
		o.noteTopicChanged(s.ID)
	}

	// Link new leaves under their existing tag states. Appending in
	// ascending attribute order reproduces data(t) order: within one
	// batch, attribute IDs are assigned in the same sequence tags index
	// them.
	for _, a := range newAttrs {
		for _, tg := range l.AttrTags(a) {
			ts, ok := o.tagState[tg]
			if !ok || o.States[ts].deleted {
				continue
			}
			if !o.hasEdge(ts, o.leafOf[a]) {
				o.linkChild(ts, o.leafOf[a])
			}
		}
	}

	// Materialize tag states for subset tags that now have organized
	// attributes but no live state — brand-new tags, repopulated tags,
	// and previously-unusable tags that just gained embedded content.
	// Members come from data(t) filtered to organized attributes, the
	// same rule buildBase applies.
	var newTagStates []StateID
	for _, tg := range tags {
		if ts, ok := o.tagState[tg]; ok && !o.States[ts].deleted {
			continue
		}
		var members []StateID
		for _, a := range l.TextTagAttrs(tg) {
			if leaf, ok := o.leafOf[a]; ok {
				members = append(members, leaf)
			}
		}
		if len(members) == 0 {
			continue
		}
		s := o.newState(KindTag)
		s.Tags = []string{tg}
		s.run = vector.NewRunning(l.Dim())
		o.tagState[tg] = s.ID
		o.noteTopicChanged(s.ID)
		for _, leaf := range members {
			o.linkChild(s.ID, leaf)
		}
		newTagStates = append(newTagStates, s.ID)
	}
	for _, ts := range newTagStates {
		o.linkChild(o.Root, ts)
		root := o.States[o.Root]
		root.Tags = append(root.Tags, o.States[ts].Tags...)
	}

	if len(o.States[o.Root].Children) == 0 {
		return nil, fmt.Errorf("core: apply batch: organization has no tag states left")
	}

	// Refresh the organized attribute set and its index. Fresh slices:
	// callers may still hold the previous Attrs() view.
	attrs := make([]lake.AttrID, 0, len(o.attrs)+len(newAttrs))
	for _, a := range o.attrs {
		if !removed[a] {
			attrs = append(attrs, a)
		}
	}
	attrs = append(attrs, newAttrs...)
	sort.Slice(attrs, func(i, j int) bool { return attrs[i] < attrs[j] })
	o.attrs = attrs
	o.buildAttrIndex()
	return cs, nil
}

// dropTagLabel removes every occurrence of tag from the advisory Tags
// lists of live non-leaf states.
func (o *Org) dropTagLabel(tag string) {
	for _, s := range o.States {
		if s.deleted || s.Kind == KindLeaf || len(s.Tags) == 0 {
			continue
		}
		kept := s.Tags[:0]
		for _, t := range s.Tags {
			if t != tag {
				kept = append(kept, t)
			}
		}
		s.Tags = kept
	}
}

// ApplyLakeBatch replays one lake change batch into every dimension.
// Tags not yet assigned to a dimension — new tags, plus tags that only
// now became organizable — are routed to the dimension whose root topic
// is most similar to the tag's topic (ties to the lowest dimension;
// tags with no embedded content go to dimension 0) and recorded in
// TagGroups, so later batches and exports see a stable assignment.
// It returns one ChangeSet per dimension, aligned with Orgs.
func (m *MultiDim) ApplyLakeBatch(sum *lake.ChangeSummary) ([]*ChangeSet, error) {
	l := m.Lake
	if l.Dim() == 0 {
		return nil, fmt.Errorf("core: apply batch: lake topics not computed")
	}

	grouped := make(map[string]bool)
	for _, g := range m.TagGroups {
		for _, tg := range g {
			grouped[tg] = true
		}
	}
	// Candidate tags to route: carried by an added attribute or first
	// seen in this batch, not yet in any group. l.Tags() order keeps
	// routing deterministic.
	carried := make(map[string]bool)
	for _, a := range sum.AddedAttrs {
		for _, tg := range l.AttrTags(a) {
			carried[tg] = true
		}
	}
	for _, tg := range sum.NewTags {
		carried[tg] = true
	}
	for _, tg := range l.Tags() {
		if !carried[tg] || grouped[tg] {
			continue
		}
		d := 0
		if len(m.Orgs) > 1 {
			if tv, ok := l.TagTopic(tg); ok {
				nv := vector.Norm(tv)
				best := -2.0
				for i, org := range m.Orgs {
					rt := org.States[org.Root]
					if c := vector.CosineNorms(tv, rt.topic, nv, rt.topicNorm); c > best {
						best, d = c, i
					}
				}
			}
		}
		m.TagGroups[d] = append(m.TagGroups[d], tg)
	}

	css := make([]*ChangeSet, len(m.Orgs))
	for i, org := range m.Orgs {
		cs, err := org.ApplyLakeBatch(sum, m.TagGroups[i])
		if err != nil {
			return nil, fmt.Errorf("core: dimension %d: %w", i, err)
		}
		css[i] = cs
	}
	return css, nil
}

// ReoptimizeLocal runs the local search over only the states a batch
// disturbed: the change set's members plus the parents of every state
// whose topic moved (softmax denominators are shared across siblings).
// Passes repeat — with reachability refreshed per pass, like Optimize's
// traversals — until a full pass accepts nothing or
// defaultMaxIterations proposals have been made. Evaluation is exact,
// seed drives the proposals, and acceptance is greedy: there is no
// best-trail unwinding here, so a downhill move would be kept.
//
// The evaluator is built fresh after the batch was applied (its
// per-state arrays are sized at construction), which is why this is a
// separate entry point rather than a resumed Optimize.
func ReoptimizeLocal(org *Org, cs *ChangeSet, seed int64) (*OptimizeStats, error) {
	affected := make(map[StateID]bool)
	add := func(id StateID) {
		if id != org.Root && !org.States[id].deleted {
			affected[id] = true
		}
	}
	for id := range cs.ChildrenChanged {
		add(id)
	}
	for id := range cs.TopicChanged {
		add(id)
		for _, p := range org.States[id].Parents {
			add(p)
		}
	}

	rng := newSearchRand(newSearchSource(seed))
	ev, err := NewEvaluator(org, 0, rng)
	if err != nil {
		return nil, err
	}
	started := time.Now()
	stats := &OptimizeStats{InitialEff: ev.Effectiveness()}
	var step stepScratch
	for {
		acceptedThisPass := false
		meanReach := ev.MeanReach()
		levels := org.Levels()
		order := make([]StateID, 0, len(affected))
		for id := range affected {
			if !org.States[id].deleted && levels[id] >= 0 {
				order = append(order, id)
			}
		}
		sort.Slice(order, func(i, j int) bool {
			a, b := order[i], order[j]
			if levels[a] != levels[b] {
				return levels[a] < levels[b]
			}
			if meanReach[a] != meanReach[b] {
				return meanReach[a] < meanReach[b]
			}
			return a < b
		})
		for _, sid := range order {
			if stats.Iterations >= defaultMaxIterations {
				break
			}
			if org.States[sid].deleted {
				continue // eliminated earlier in this pass
			}
			_, accepted, proposed, _, err := proposeAndDecide(org, ev, &step, sid, levels, meanReach, rng, -1)
			if err != nil {
				return nil, err
			}
			if !proposed {
				continue
			}
			stats.Iterations++
			if accepted {
				stats.Accepted++
				acceptedThisPass = true
			} else {
				stats.Rejected++
			}
		}
		if !acceptedThisPass || stats.Iterations >= defaultMaxIterations {
			break
		}
	}
	stats.FinalEff = ev.Effectiveness()
	stats.Duration = time.Since(started)
	if err := orgSane(org); err != nil {
		return stats, err
	}
	return stats, nil
}

// StructureHash returns a canonical digest of the organization:
// independent of state IDs and construction history, sensitive to
// structure (parent/child topology with child order), leaf attribute
// bindings, and tag-state labels. Two organizations with equal hashes
// navigate identically. Interior Tags lists are advisory (operations do
// not maintain them) and are excluded.
func (o *Org) StructureHash() string {
	// Pass 1: canonical preorder numbering from the root, children in
	// child-list order.
	num := make(map[StateID]int, len(o.States))
	var order []StateID
	var visit func(id StateID)
	visit = func(id StateID) {
		if _, ok := num[id]; ok {
			return
		}
		num[id] = len(num)
		order = append(order, id)
		for _, c := range o.States[id].Children {
			visit(c)
		}
	}
	visit(o.Root)

	// Pass 2: serialize each state under its canonical number.
	h := sha256.New()
	for _, id := range order {
		s := o.States[id]
		switch s.Kind {
		case KindLeaf:
			fmt.Fprintf(h, "leaf %s", o.Lake.Attr(s.Attr).QualifiedName(o.Lake))
		case KindTag:
			fmt.Fprintf(h, "tag %s", s.Tags[0])
		default:
			_, _ = h.Write([]byte("interior")) // hash.Hash.Write never fails
		}
		for _, c := range s.Children {
			_, _ = h.Write([]byte(" " + strconv.Itoa(num[c]))) // hash.Hash.Write never fails
		}
		_, _ = h.Write([]byte("\n")) // hash.Hash.Write never fails
	}
	return hex.EncodeToString(h.Sum(nil))
}

// StructureHash digests every dimension's structure in order.
func (m *MultiDim) StructureHash() string {
	h := sha256.New()
	for _, org := range m.Orgs {
		_, _ = h.Write([]byte(org.StructureHash() + "\n")) // hash.Hash.Write never fails
	}
	return hex.EncodeToString(h.Sum(nil))
}
