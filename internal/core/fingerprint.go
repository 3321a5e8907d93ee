package core

import (
	"encoding/binary"
	"hash/fnv"
	"io"
	"math"
)

// Fingerprint hashes every bit of semantic state an organization
// carries — structure, edge insertion order (Parents included, since
// it steers future search trajectories), topic vector and norm bits,
// run accumulator bits, and support tables — into one 64-bit FNV-1a
// value. Two organizations with equal fingerprints navigate, evaluate,
// and optimize identically. Live states are renumbered densely so the
// value is invariant under tombstones, which makes it the golden-hash
// oracle for "binary decode ≡ JSON load": both paths must land on the
// same fingerprint, bit for bit.
func (o *Org) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		_, _ = h.Write(buf[:]) // fnv-1a cannot fail
	}
	wstr := func(s string) {
		w64(uint64(len(s)))
		_, _ = io.WriteString(h, s) // fnv-1a cannot fail
	}

	dense := make(map[StateID]uint64, len(o.States))
	live := make([]*State, 0, len(o.States))
	for _, s := range o.States {
		if s.deleted {
			continue
		}
		dense[s.ID] = uint64(len(live))
		live = append(live, s)
	}

	w64(math.Float64bits(o.Gamma))
	w64(uint64(len(live)))
	w64(dense[o.Root])
	for _, s := range live {
		w64(uint64(s.Kind))
		if s.Kind == KindLeaf {
			wstr(o.Lake.Attr(s.Attr).QualifiedName(o.Lake))
		}
		w64(uint64(len(s.Tags)))
		for _, t := range s.Tags {
			wstr(t)
		}
		w64(uint64(len(s.Children)))
		for _, c := range s.Children {
			w64(dense[c])
		}
		w64(uint64(len(s.Parents)))
		for _, p := range s.Parents {
			w64(dense[p])
		}
		w64(uint64(len(s.topic)))
		for _, f := range s.topic {
			w64(math.Float64bits(f))
		}
		w64(math.Float64bits(s.topicNorm))
		if s.run != nil {
			w64(1)
			w64(uint64(s.run.Count()))
			for _, f := range s.run.Sum() {
				w64(math.Float64bits(f))
			}
		} else {
			w64(0)
		}
		if s.Kind != KindLeaf {
			w64(uint64(len(s.dom)))
			for i, a := range s.dom {
				wstr(o.Lake.Attr(a).QualifiedName(o.Lake))
				w64(uint64(s.sup[i]))
			}
		}
	}
	return h.Sum64()
}

// Fingerprint folds the tag grouping and every dimension's org
// fingerprint into one value; see Org.Fingerprint.
func (m *MultiDim) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		_, _ = h.Write(buf[:]) // fnv-1a cannot fail
	}
	w64(uint64(len(m.TagGroups)))
	for _, g := range m.TagGroups {
		w64(uint64(len(g)))
		for _, t := range g {
			w64(uint64(len(t)))
			_, _ = io.WriteString(h, t) // fnv-1a cannot fail
		}
	}
	w64(uint64(len(m.Orgs)))
	for _, o := range m.Orgs {
		w64(o.Fingerprint())
	}
	return h.Sum64()
}
