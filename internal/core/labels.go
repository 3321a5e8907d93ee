package core

import (
	"sort"
	"strings"
)

// Labeling follows the user-study prototype (Sec 4.4): leaves are
// labeled with table.attribute names, penultimate (tag) states with
// their tag, and other states with their two most frequent descendant
// tags — drawn from different children where possible, falling back to
// the third most frequent and so on when the top two come from the same
// child.

// Label returns a display label for state id.
func (o *Org) Label(id StateID) string {
	s := o.States[id]
	switch s.Kind {
	case KindLeaf:
		return o.Lake.Attr(s.Attr).QualifiedName(o.Lake)
	case KindTag:
		return s.Tags[0]
	default:
		tags := o.labelTags(id, 2)
		if len(tags) == 0 {
			return "(empty)"
		}
		return strings.Join(tags, " / ")
	}
}

// labelTags picks up to n tags for an interior state: tags are ranked
// by how many of the state's attributes carry them (weighting frequent
// topics first), and after the first pick, tags whose attribute sets
// come entirely from the same child as an already-picked tag are
// deferred in favor of tags from other children.
func (o *Org) labelTags(id StateID, n int) []string {
	s := o.States[id]
	// Count tag frequency within the state's domain.
	freq := make(map[string]int)
	for _, a := range s.dom {
		for _, tag := range o.Lake.AttrTags(a) {
			if _, organized := o.tagState[tag]; organized {
				freq[tag]++
			}
		}
	}
	type tf struct {
		tag string
		n   int
	}
	ranked := make([]tf, 0, len(freq))
	for tag, c := range freq {
		ranked = append(ranked, tf{tag, c})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].n != ranked[j].n {
			return ranked[i].n > ranked[j].n
		}
		return ranked[i].tag < ranked[j].tag
	})

	// childOf maps each candidate tag to the first child whose domain
	// covers the tag's attributes, approximating "the child the label
	// comes from".
	childOf := func(tag string) StateID {
		ts, ok := o.tagState[tag]
		if !ok {
			return -1
		}
		dom := o.States[ts].dom
		if len(dom) == 0 {
			return -1
		}
		for _, c := range s.Children {
			if o.States[c].HasAttr(dom[0]) {
				return c
			}
		}
		return -1
	}

	var out []string
	usedChildren := make(map[StateID]bool)
	// First pass: prefer tags from distinct children.
	for _, cand := range ranked {
		if len(out) >= n {
			break
		}
		c := childOf(cand.tag)
		if len(out) > 0 && c != -1 && usedChildren[c] {
			continue
		}
		out = append(out, cand.tag)
		if c != -1 {
			usedChildren[c] = true
		}
	}
	// Second pass: fill remaining slots regardless of child.
	for _, cand := range ranked {
		if len(out) >= n {
			break
		}
		dup := false
		for _, have := range out {
			if have == cand.tag {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, cand.tag)
		}
	}
	return out
}
