package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"lakenav/internal/binfmt"
	"lakenav/internal/lake"
)

// Binary organization format (binfmt.KindOrg / binfmt.KindMultiDim).
//
// Two flavors share one layout, distinguished by a meta flag:
//
//   - full: carries the topic vector block (arena-shaped), the run
//     accumulators, and the support tables verbatim, so decode is
//     read-header + bulk-copy instead of per-state JSON unmarshal plus
//     O(attrs × depth × dim) topic propagation. This is the cold-start
//     org file format.
//   - structural: states, edges, and the string table only — exactly
//     the information of an ExportedOrg, which Import rebuilds. It
//     exists only embedded in checkpoints, whose cost is write-side;
//     the org decoder rejects it at top level.
//
// Both flavors are rebuilt by the one rule in import.go (rebuild,
// linkOrder), so a decoded org is bit-identical — Parents order and
// all — to Import over the same snapshot.

// orgFormatVersion is the kindVer of org and multidim containers.
const orgFormatVersion = 1

// Section ids of a KindOrg container.
const (
	secOrgMeta      = 1
	secOrgStrOffs   = 2
	secOrgStrBytes  = 3
	secOrgStates    = 4
	secOrgChildren  = 5
	secOrgSupport   = 6
	secOrgVecs      = 7
	secOrgRunSums   = 8
	secOrgRunCounts = 9
)

// Meta word indices (secOrgMeta is a packed []uint64).
const (
	orgMetaDim     = iota // topic dimensionality (0 for structural)
	orgMetaStates         // state count
	orgMetaRoot           // dense ref of the root
	orgMetaGamma          // Float64bits of Gamma
	orgMetaFlags          // orgFlag*
	orgMetaNonLeaf        // non-leaf state count (full flavor)
	orgMetaWords
)

// orgFlagFull marks a full-fidelity container (vec/run/support
// sections present).
const orgFlagFull = 1

// State records (secOrgStates) are stateRecWords packed uint32s each.
const (
	stateRecKind     = iota // low 8 bits Kind, bit 8 = topic present
	stateRecName            // string ref: leaf attr qualified name / tag; noName for interiors
	stateRecChildOff        // offset into secOrgChildren, in refs
	stateRecChildLen        // child count
	stateRecSupOff          // offset into secOrgSupport, in pairs
	stateRecSupLen          // support pair count
	stateRecWords
)

const (
	stateHasTopic = 1 << 8
	noName        = ^uint32(0)
)

// Section ids of a KindMultiDim container. Each dimension's org is a
// nested KindOrg container stored as an opaque section blob.
const (
	secMDMeta      = 1
	secMDStrOffs   = 2
	secMDStrBytes  = 3
	secMDGroupLens = 4
	secMDGroupRefs = 5
	secMDOrgBase   = 16
)

// EncodeBinOrg serializes o as a full-fidelity binary container. Live
// states are renumbered densely in States order — the same renumbering
// Export+Import performs — so decoding the result reproduces
// Import(o.Lake, o.Export()) bit for bit, and o itself when o is
// canonical (itself the product of Import).
func EncodeBinOrg(o *Org) ([]byte, error) {
	w, err := binOrgWriter(o)
	if err != nil {
		return nil, err
	}
	return w.Bytes()
}

func binOrgWriter(o *Org) (*binfmt.Writer, error) {
	dim := o.Lake.Dim()
	if dim == 0 {
		return nil, fmt.Errorf("core: binorg encode needs computed lake topics")
	}
	dense := make(map[StateID]uint32, len(o.States))
	live := make([]*State, 0, len(o.States))
	for _, s := range o.States {
		if s.deleted {
			continue
		}
		dense[s.ID] = uint32(len(live))
		live = append(live, s)
	}
	if len(live) == 0 {
		return nil, fmt.Errorf("core: binorg encode of empty organization")
	}
	rootRef, ok := dense[o.Root]
	if !ok {
		return nil, fmt.Errorf("core: binorg encode root %d not live", o.Root)
	}

	st := binfmt.NewStringTableBuilder()
	recs := make([]uint32, 0, len(live)*stateRecWords)
	var children, support []uint32
	vecs := make([]float64, len(live)*dim)
	var runSums []float64
	var runCounts []uint64
	nonLeaf := 0
	for i, s := range live {
		kf := uint32(s.Kind)
		name := noName
		switch s.Kind {
		case KindLeaf:
			name = st.Ref(o.Lake.Attr(s.Attr).QualifiedName(o.Lake))
		case KindTag:
			if len(s.Tags) != 1 {
				return nil, fmt.Errorf("core: binorg encode tag state %d has %d tags", s.ID, len(s.Tags))
			}
			name = st.Ref(s.Tags[0])
		case KindInterior:
		default:
			return nil, fmt.Errorf("core: binorg encode unknown kind %v", s.Kind)
		}
		if s.topic != nil {
			kf |= stateHasTopic
			copy(vecs[i*dim:(i+1)*dim], s.topic)
		}
		childOff := uint32(len(children))
		for _, c := range s.Children {
			ref, ok := dense[c]
			if !ok {
				return nil, fmt.Errorf("core: binorg encode state %d has deleted child %d", s.ID, c)
			}
			children = append(children, ref)
		}
		supOff := uint32(len(support) / 2)
		if s.Kind != KindLeaf {
			for i, a := range s.dom {
				leaf, ok := o.leafOf[a]
				if !ok {
					return nil, fmt.Errorf("core: binorg encode attr %d has no leaf state", a)
				}
				ref, ok := dense[leaf]
				if !ok {
					return nil, fmt.Errorf("core: binorg encode leaf of attr %d deleted", a)
				}
				support = append(support, ref, uint32(s.sup[i]))
			}
			runCounts = append(runCounts, uint64(s.run.Count()))
			runSums = append(runSums, s.run.Sum()...)
			nonLeaf++
		}
		recs = append(recs, kf, name,
			childOff, uint32(len(s.Children)),
			supOff, uint32(len(support)/2)-supOff)
	}

	meta := make([]uint64, orgMetaWords)
	meta[orgMetaDim] = uint64(dim)
	meta[orgMetaStates] = uint64(len(live))
	meta[orgMetaRoot] = uint64(rootRef)
	meta[orgMetaGamma] = math.Float64bits(o.Gamma)
	meta[orgMetaFlags] = orgFlagFull
	meta[orgMetaNonLeaf] = uint64(nonLeaf)

	w := binfmt.NewWriter(binfmt.KindOrg, orgFormatVersion)
	w.AddUint64s(secOrgMeta, meta)
	st.AddTo(w, secOrgStrOffs, secOrgStrBytes)
	w.AddUint32s(secOrgStates, recs)
	w.AddUint32s(secOrgChildren, children)
	w.AddUint32s(secOrgSupport, support)
	w.AddFloat64s(secOrgVecs, vecs)
	w.AddFloat64s(secOrgRunSums, runSums)
	w.AddUint64s(secOrgRunCounts, runCounts)
	return w, nil
}

// encodeBinExportedOrg serializes a structural snapshot (the
// checkpoint flavor): states and edges only, topics and domains left
// to Import. State ids are renumbered to their position in ex.States,
// which Import is invariant under.
func encodeBinExportedOrg(ex *ExportedOrg) (*binfmt.Writer, error) {
	idx := make(map[int]uint32, len(ex.States))
	for i, es := range ex.States {
		if _, dup := idx[es.ID]; dup {
			return nil, fmt.Errorf("core: binorg encode duplicate state id %d", es.ID)
		}
		idx[es.ID] = uint32(i)
	}
	rootRef, ok := idx[ex.Root]
	if !ok {
		return nil, fmt.Errorf("core: binorg encode root %d not among states", ex.Root)
	}

	st := binfmt.NewStringTableBuilder()
	recs := make([]uint32, 0, len(ex.States)*stateRecWords)
	var children []uint32
	for _, es := range ex.States {
		k, ok := parseKind(es.Kind)
		if !ok {
			return nil, fmt.Errorf("core: binorg encode unknown state kind %q", es.Kind)
		}
		name := noName
		switch k {
		case KindLeaf:
			name = st.Ref(es.Attr)
		case KindTag:
			if len(es.Tags) != 1 {
				return nil, fmt.Errorf("core: binorg encode tag state %d has %d tags", es.ID, len(es.Tags))
			}
			name = st.Ref(es.Tags[0])
		}
		childOff := uint32(len(children))
		for _, c := range es.Children {
			ref, ok := idx[c]
			if !ok {
				return nil, fmt.Errorf("core: binorg encode state %d references unknown child %d", es.ID, c)
			}
			children = append(children, ref)
		}
		// The structural flavor has no support spans; those two record
		// words carry the display label ref and the exported domain
		// size instead, so checkpoints round-trip field-for-field.
		if es.DomainSize < 0 || uint64(es.DomainSize) > uint64(^uint32(0)) {
			return nil, fmt.Errorf("core: binorg encode state %d domain size %d out of range", es.ID, es.DomainSize)
		}
		recs = append(recs, uint32(k), name, childOff, uint32(len(es.Children)), st.Ref(es.Label), uint32(es.DomainSize))
	}

	meta := make([]uint64, orgMetaWords)
	meta[orgMetaStates] = uint64(len(ex.States))
	meta[orgMetaRoot] = uint64(rootRef)
	meta[orgMetaGamma] = math.Float64bits(ex.Gamma)

	w := binfmt.NewWriter(binfmt.KindOrg, orgFormatVersion)
	w.AddUint64s(secOrgMeta, meta)
	st.AddTo(w, secOrgStrOffs, secOrgStrBytes)
	w.AddUint32s(secOrgStates, recs)
	w.AddUint32s(secOrgChildren, children)
	return w, nil
}

// decodeBinOrg decodes a full-flavor org container over its lake,
// resolving leaves through attrOf, the lake's attrIndex, which the
// dimensions of one multidim load share. Errors, never panics, on
// corrupt input; every allocation is bounded by the input's actual
// section sizes.
func decodeBinOrg(l *lake.Lake, attrOf map[string]lake.AttrID, data []byte) (*Org, error) {
	c, err := binfmt.New(data)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	meta, err := readBinOrgMeta(c)
	if err != nil {
		return nil, err
	}
	if meta[orgMetaFlags] != orgFlagFull {
		return nil, fmt.Errorf("core: binorg decode flags %#x: only full-flavor organization containers load", meta[orgMetaFlags])
	}
	return decodeBinOrgFull(l, attrOf, c, meta)
}

// readBinOrgMeta checks an org container's kind and version and returns
// its meta words.
func readBinOrgMeta(c *binfmt.Container) ([]uint64, error) {
	kind, ver := c.Kind()
	if kind != binfmt.KindOrg {
		return nil, fmt.Errorf("core: binorg decode container kind %d, want %d", kind, binfmt.KindOrg)
	}
	if ver != orgFormatVersion {
		return nil, fmt.Errorf("core: binorg decode format version %d, want %d", ver, orgFormatVersion)
	}
	meta, err := c.Uint64s(secOrgMeta)
	if err != nil {
		return nil, err
	}
	if len(meta) != orgMetaWords {
		return nil, fmt.Errorf("core: binorg decode meta has %d words, want %d", len(meta), orgMetaWords)
	}
	return meta, nil
}

// binOrgShape is the structure shared by both decode flavors: state
// records, validated child ref spans, and the link order.
type binOrgShape struct {
	recs     []uint32
	children []uint32
	strs     *binfmt.StringTable
	n        int
	root     int
	order    []int // linkOrder over the child spans
}

func readBinOrgShape(c *binfmt.Container, meta []uint64) (*binOrgShape, error) {
	recs, err := c.Uint32s(secOrgStates)
	if err != nil {
		return nil, err
	}
	if len(recs)%stateRecWords != 0 {
		return nil, fmt.Errorf("core: binorg decode state section length %d not a record multiple", len(recs))
	}
	n := len(recs) / stateRecWords
	if n == 0 {
		return nil, fmt.Errorf("core: binorg decode has no states")
	}
	if uint64(n) != meta[orgMetaStates] {
		return nil, fmt.Errorf("core: binorg decode meta claims %d states, section has %d", meta[orgMetaStates], n)
	}
	if meta[orgMetaRoot] >= uint64(n) {
		return nil, fmt.Errorf("core: binorg decode root ref %d out of range", meta[orgMetaRoot])
	}
	strs, err := binfmt.ReadStringTable(c, secOrgStrOffs, secOrgStrBytes)
	if err != nil {
		return nil, err
	}
	children, err := c.Uint32s(secOrgChildren)
	if err != nil {
		return nil, err
	}
	sh := &binOrgShape{recs: recs, children: children, strs: strs, n: n, root: int(meta[orgMetaRoot])}
	for i := 0; i < n; i++ {
		off := uint64(recs[i*stateRecWords+stateRecChildOff])
		cnt := uint64(recs[i*stateRecWords+stateRecChildLen])
		if off+cnt < off || off+cnt > uint64(len(children)) {
			return nil, fmt.Errorf("core: binorg decode state %d child span [%d,+%d) outside section", i, off, cnt)
		}
	}
	if sh.order, err = linkOrder(n, sh.childRefs); err != nil {
		return nil, fmt.Errorf("core: binorg decode: %w", err)
	}
	return sh, nil
}

// childRefs returns state i's validated child span.
func (sh *binOrgShape) childRefs(i int) []uint32 {
	off := sh.recs[i*stateRecWords+stateRecChildOff]
	cnt := sh.recs[i*stateRecWords+stateRecChildLen]
	return sh.children[off : uint64(off)+uint64(cnt)]
}

// state decodes state i's kind and name (the leaf's qualified attribute
// name or the tag; empty for interiors).
func (sh *binOrgShape) state(i int) (Kind, string, error) {
	rec := sh.recs[i*stateRecWords:]
	kf := rec[stateRecKind]
	if kf&^uint32(0xff|stateHasTopic) != 0 {
		return 0, "", fmt.Errorf("core: binorg decode state %d has unknown flags %#x", i, kf)
	}
	switch k := Kind(kf & 0xff); k {
	case KindLeaf, KindTag:
		name, err := sh.strs.Lookup(rec[stateRecName])
		return k, name, err
	case KindInterior:
		return k, "", nil
	}
	return 0, "", fmt.Errorf("core: binorg decode state %d has unknown kind %d", i, kf&0xff)
}

// decodeBinOrgFull is the cold-start fast path: materialize states,
// install topics straight from the (possibly mmap'd) vector block into
// the arena, restore run accumulators and support tables verbatim, and
// link edges in linkOrder — no propagation.
func decodeBinOrgFull(l *lake.Lake, attrOf map[string]lake.AttrID, c *binfmt.Container, meta []uint64) (*Org, error) {
	dim := int(meta[orgMetaDim])
	if dim != l.Dim() {
		return nil, fmt.Errorf("core: binorg decode dim %d, lake has %d", dim, l.Dim())
	}
	sh, err := readBinOrgShape(c, meta)
	if err != nil {
		return nil, err
	}
	support, err := c.Uint32s(secOrgSupport)
	if err != nil {
		return nil, err
	}
	if len(support)%2 != 0 {
		return nil, fmt.Errorf("core: binorg decode support section length %d not pair-aligned", len(support))
	}
	vecs, err := c.Float64s(secOrgVecs)
	if err != nil {
		return nil, err
	}
	if len(vecs) != sh.n*dim {
		return nil, fmt.Errorf("core: binorg decode vec block has %d floats, want %d", len(vecs), sh.n*dim)
	}
	runCounts, err := c.Uint64s(secOrgRunCounts)
	if err != nil {
		return nil, err
	}
	if uint64(len(runCounts)) != meta[orgMetaNonLeaf] {
		return nil, fmt.Errorf("core: binorg decode meta claims %d non-leaf states, run section has %d", meta[orgMetaNonLeaf], len(runCounts))
	}
	runSums, err := c.Float64s(secOrgRunSums)
	if err != nil {
		return nil, err
	}
	if len(runSums) != len(runCounts)*dim {
		return nil, fmt.Errorf("core: binorg decode run sum block has %d floats, want %d", len(runSums), len(runCounts)*dim)
	}

	r, err := newRebuild(l, attrOf, math.Float64frombits(meta[orgMetaGamma]), sh.n)
	if err != nil {
		return nil, err
	}
	o := r.o
	for i := 0; i < sh.n; i++ {
		k, name, err := sh.state(i)
		if err != nil {
			return nil, err
		}
		if _, err := r.addState(k, name); err != nil {
			return nil, err
		}
	}

	// Topics: one copy each, section block → arena slot, through the
	// setTopic funnel (which recomputes the norm over the installed
	// values, bit-identical to Import's).
	for i := 0; i < sh.n; i++ {
		if sh.recs[i*stateRecWords+stateRecKind]&stateHasTopic != 0 {
			o.States[i].setTopic(vecs[i*dim : (i+1)*dim])
		}
	}

	// Support tables and run accumulators, cross-checked against the
	// lake's attribute populations so a crafted file cannot smuggle in
	// counts that would panic RemoveWeighted during later search.
	nli := 0
	for i := 0; i < sh.n; i++ {
		s := o.States[i]
		rec := sh.recs[i*stateRecWords:]
		off, cnt := uint64(rec[stateRecSupOff]), uint64(rec[stateRecSupLen])
		if s.Kind == KindLeaf {
			if cnt != 0 {
				return nil, fmt.Errorf("core: binorg decode leaf %d has support pairs", i)
			}
			continue
		}
		if off+cnt < off || (off+cnt)*2 > uint64(len(support)) {
			return nil, fmt.Errorf("core: binorg decode state %d support span [%d,+%d) outside section", i, off, cnt)
		}
		for j := off; j < off+cnt; j++ {
			leafRef, n := support[2*j], support[2*j+1]
			if leafRef >= uint32(sh.n) || o.States[leafRef].Kind != KindLeaf {
				return nil, fmt.Errorf("core: binorg decode state %d support ref %d is not a leaf", i, leafRef)
			}
			a := o.States[leafRef].Attr
			if n == 0 || n > math.MaxInt32 {
				return nil, fmt.Errorf("core: binorg decode state %d has support %d for attr %d", i, n, a)
			}
			s.dom = append(s.dom, a)
			s.sup = append(s.sup, int32(n))
		}
		// Pairs are written in ascending attribute order; attribute IDs
		// are the loading lake's, so sort rather than trust the order.
		if !sort.IsSorted(domainOrder{s}) {
			sort.Sort(domainOrder{s})
		}
		for j := 1; j < len(s.dom); j++ {
			if s.dom[j] == s.dom[j-1] {
				return nil, fmt.Errorf("core: binorg decode state %d has duplicate support for attr %d", i, s.dom[j])
			}
		}
		want := 0
		for _, a := range s.dom {
			_, c := o.attrAccumulator(a)
			want += c
		}
		if uint64(want) != runCounts[nli] {
			return nil, fmt.Errorf("core: binorg decode state %d run count %d, lake population says %d", i, runCounts[nli], want)
		}
		s.run.AddWeighted(runSums[nli*dim:(nli+1)*dim], want)
		nli++
	}
	if uint64(nli) != meta[orgMetaNonLeaf] {
		return nil, fmt.Errorf("core: binorg decode found %d non-leaf states, meta claims %d", nli, meta[orgMetaNonLeaf])
	}

	// Support is already restored, so addEdge (no propagation) links.
	for _, i := range sh.order {
		for _, ref := range sh.childRefs(i) {
			o.addEdge(StateID(i), StateID(ref))
		}
	}
	return r.finish(StateID(sh.root))
}

// decodeBinExportedOrg decodes a structural org container — the form
// a checkpoint embeds its organizations in — into the snapshot Import
// rebuilds. The structure passes linkOrder here, so a checkpoint that
// decodes has no cycle or dangling child.
func decodeBinExportedOrg(blob []byte) (*ExportedOrg, error) {
	c, err := binfmt.New(blob)
	if err != nil {
		return nil, err
	}
	meta, err := readBinOrgMeta(c)
	if err != nil {
		return nil, err
	}
	if meta[orgMetaFlags] != 0 {
		return nil, fmt.Errorf("core: binorg decode embedded org is not structural (flags %#x)", meta[orgMetaFlags])
	}
	sh, err := readBinOrgShape(c, meta)
	if err != nil {
		return nil, err
	}
	ex := &ExportedOrg{
		Gamma:  math.Float64frombits(meta[orgMetaGamma]),
		Root:   sh.root,
		States: make([]ExportedState, sh.n),
	}
	for i := 0; i < sh.n; i++ {
		k, name, err := sh.state(i)
		if err != nil {
			return nil, err
		}
		rec := sh.recs[i*stateRecWords:]
		es := ExportedState{ID: i, Kind: k.String(), DomainSize: int(rec[stateRecSupLen])}
		if es.Label, err = sh.strs.Lookup(rec[stateRecSupOff]); err != nil {
			return nil, err
		}
		switch k {
		case KindLeaf:
			es.Attr = name
		case KindTag:
			es.Tags = []string{name}
		}
		for _, ref := range sh.childRefs(i) {
			es.Children = append(es.Children, int(ref))
		}
		ex.States[i] = es
	}
	return ex, nil
}

// EncodeBinMultiDim serializes every dimension of m as a nested full-
// fidelity org container plus the tag grouping.
func EncodeBinMultiDim(m *MultiDim) (*binfmt.Writer, error) {
	if len(m.Orgs) == 0 {
		return nil, fmt.Errorf("core: binorg encode multidim with no dimensions")
	}
	st := binfmt.NewStringTableBuilder()
	groupLens := make([]uint32, 0, len(m.TagGroups))
	var groupRefs []uint32
	for _, g := range m.TagGroups {
		groupLens = append(groupLens, uint32(len(g)))
		for _, tag := range g {
			groupRefs = append(groupRefs, st.Ref(tag))
		}
	}
	w := binfmt.NewWriter(binfmt.KindMultiDim, orgFormatVersion)
	w.AddUint64s(secMDMeta, []uint64{uint64(len(m.Orgs)), uint64(len(m.TagGroups))})
	st.AddTo(w, secMDStrOffs, secMDStrBytes)
	w.AddUint32s(secMDGroupLens, groupLens)
	w.AddUint32s(secMDGroupRefs, groupRefs)
	for i, o := range m.Orgs {
		blob, err := EncodeBinOrg(o)
		if err != nil {
			return nil, fmt.Errorf("core: binorg encode dimension %d: %w", i, err)
		}
		w.Add(uint32(secMDOrgBase+i), blob)
	}
	return w, nil
}

// SaveBinMultiDim atomically writes m to path in the binary format.
func SaveBinMultiDim(path string, m *MultiDim) error {
	w, err := EncodeBinMultiDim(m)
	if err != nil {
		return err
	}
	return binfmt.WriteFile(path, w)
}

// DecodeBinMultiDim decodes a multi-dimensional org container over its
// lake.
func DecodeBinMultiDim(l *lake.Lake, c *binfmt.Container) (*MultiDim, error) {
	kind, ver := c.Kind()
	if kind != binfmt.KindMultiDim {
		return nil, fmt.Errorf("core: binorg decode container kind %d, want %d", kind, binfmt.KindMultiDim)
	}
	if ver != orgFormatVersion {
		return nil, fmt.Errorf("core: binorg decode format version %d, want %d", ver, orgFormatVersion)
	}
	meta, err := c.Uint64s(secMDMeta)
	if err != nil {
		return nil, err
	}
	if len(meta) != 2 {
		return nil, fmt.Errorf("core: binorg decode multidim meta has %d words, want 2", len(meta))
	}
	norgs, ngroups := meta[0], meta[1]
	if norgs == 0 {
		return nil, fmt.Errorf("core: binorg decode multidim with no dimensions")
	}
	strs, err := binfmt.ReadStringTable(c, secMDStrOffs, secMDStrBytes)
	if err != nil {
		return nil, err
	}
	groupLens, err := c.Uint32s(secMDGroupLens)
	if err != nil {
		return nil, err
	}
	groupRefs, err := c.Uint32s(secMDGroupRefs)
	if err != nil {
		return nil, err
	}
	if uint64(len(groupLens)) != ngroups {
		return nil, fmt.Errorf("core: binorg decode multidim meta claims %d groups, section has %d", ngroups, len(groupLens))
	}
	groups := make([][]string, len(groupLens))
	next := 0
	for gi, glen := range groupLens {
		if next+int(glen) < next || next+int(glen) > len(groupRefs) {
			return nil, fmt.Errorf("core: binorg decode multidim group %d overruns the tag refs", gi)
		}
		g := make([]string, glen)
		for i := range g {
			if g[i], err = strs.Lookup(groupRefs[next+i]); err != nil {
				return nil, err
			}
		}
		groups[gi] = g
		next += int(glen)
	}
	if next != len(groupRefs) {
		return nil, fmt.Errorf("core: binorg decode multidim has %d dangling tag refs", len(groupRefs)-next)
	}
	// Sections are read serially up to the first missing one; the
	// dimensions read then decode in parallel over one shared
	// attrIndex. A failure reports the lowest failing dimension, section
	// read or decode, exactly as a serial loop over the dimensions would.
	var blobs [][]byte
	var sectionErr error
	for i := uint64(0); i < norgs; i++ {
		blob, err := c.Section(uint32(secMDOrgBase + i))
		if err != nil {
			sectionErr = fmt.Errorf("core: binorg decode dimension %d: %w", i, err)
			break
		}
		blobs = append(blobs, blob)
	}
	attrOf := attrIndex(l)
	orgs := make([]*Org, len(blobs))
	errs := make([]error, len(blobs))
	ParallelFor(len(blobs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			orgs[i], errs[i] = decodeBinOrg(l, attrOf, blobs[i])
		}
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: binorg decode dimension %d: %w", i, err)
		}
	}
	if sectionErr != nil {
		return nil, sectionErr
	}
	return &MultiDim{Lake: l, Orgs: orgs, TagGroups: groups}, nil
}

// LoadMultiDim loads a multi-dimensional organization saved by
// SaveBinMultiDim, decoding the mmap'd container directly. It is the
// one entry point cold-start callers (navserver, the facade) need. A
// JSON export (WriteJSON) is not a load format and is rejected.
func LoadMultiDim(l *lake.Lake, path string) (*MultiDim, error) {
	c, err := binfmt.Open(path)
	if errors.Is(err, binfmt.ErrBadMagic) {
		return nil, fmt.Errorf("core: %s is not a binary organization container (JSON organizations are an export format and do not load; save in the bin format)", path)
	}
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return DecodeBinMultiDim(l, c)
}

// domainOrder sorts a state's parallel dom/sup slices by attribute.
type domainOrder struct{ s *State }

func (d domainOrder) Len() int           { return len(d.s.dom) }
func (d domainOrder) Less(i, j int) bool { return d.s.dom[i] < d.s.dom[j] }
func (d domainOrder) Swap(i, j int) {
	d.s.dom[i], d.s.dom[j] = d.s.dom[j], d.s.dom[i]
	d.s.sup[i], d.s.sup[j] = d.s.sup[j], d.s.sup[i]
}
