package core

// ChangeSet records which states an operation touched, so the
// incremental evaluator can re-evaluate only the affected part of the
// organization (the paper's pruning, Sec 3.4). Tracking is enabled by
// BeginChanges and read after the operation completes.
type ChangeSet struct {
	// ChildrenChanged marks states whose child list changed: their
	// outgoing transition distribution is invalid.
	ChildrenChanged map[StateID]bool
	// TopicChanged marks states whose domain membership (and therefore
	// topic vector) changed: transitions from each of their parents are
	// invalid, because softmax denominators are shared across siblings.
	TopicChanged map[StateID]bool
	// Eliminated lists states deleted by the operation.
	Eliminated []StateID
}

// NewChangeSet returns an empty change set.
func NewChangeSet() *ChangeSet {
	return &ChangeSet{
		ChildrenChanged: make(map[StateID]bool),
		TopicChanged:    make(map[StateID]bool),
	}
}

// BeginChanges starts recording structural changes into a fresh
// ChangeSet, returned to the caller. Exactly one recording may be
// active; ops applied while recording contribute to it.
func (o *Org) BeginChanges() *ChangeSet {
	cs := NewChangeSet()
	o.recordChanges(cs)
	return cs
}

// recordChanges is BeginChanges into a caller-owned set, emptied first
// (a zero ChangeSet gets its maps here), so a search that evaluates
// many operations reuses one set instead of two maps per operation.
func (o *Org) recordChanges(cs *ChangeSet) {
	if o.track != nil {
		panic("core: BeginChanges while already tracking")
	}
	if cs.ChildrenChanged == nil {
		*cs = *NewChangeSet()
	} else {
		clear(cs.ChildrenChanged)
		clear(cs.TopicChanged)
		cs.Eliminated = cs.Eliminated[:0]
	}
	o.track = cs
}

// EndChanges stops recording.
func (o *Org) EndChanges() {
	o.track = nil
}

func (o *Org) noteChildrenChanged(id StateID) {
	if o.track != nil {
		o.track.ChildrenChanged[id] = true
	}
}

func (o *Org) noteTopicChanged(id StateID) {
	if o.track != nil {
		o.track.TopicChanged[id] = true
	}
}

func (o *Org) noteEliminated(id StateID) {
	if o.track != nil {
		o.track.Eliminated = append(o.track.Eliminated, id)
	}
}
