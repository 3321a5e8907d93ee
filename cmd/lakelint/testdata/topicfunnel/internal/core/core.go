// Fixture for the topicfunnel check: a miniature replica of the real
// internal/core State/setTopic/Validate trio, plus every write shape
// the check must flag. Lines carrying `// want ...` comments are the
// expected findings; every other line must stay clean.
package core

type Vector []float64

func norm(v Vector) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return s
}

// State mirrors the real core.State cache pair.
type State struct {
	topic     Vector
	topicNorm float64
}

// setTopic is the funnel: writes here are the sanctioned ones.
func (s *State) setTopic(t Vector) {
	s.topic = t
	s.topicNorm = norm(t)
}

// Org exists so Validate has its real receiver shape.
//
//lakelint:ignore deadexport -- fixture replica; only its Validate method matters
type Org struct{ States []*State }

// Validate may re-derive the pair (the invariant checker).
//
//lakelint:ignore deadexport -- fixture replica of the real invariant checker; nothing here calls it
func (o *Org) Validate() error {
	for _, s := range o.States {
		s.topicNorm = norm(s.topic)
	}
	return nil
}

func directWrites(s *State, t Vector) {
	s.topic = t       // want topicfunnel "State.topic assigned"
	s.topicNorm = 1.0 // want topicfunnel "State.topicNorm assigned"
	s.topicNorm++     // want topicfunnel "State.topicNorm modified"
}

func escape(s *State) *float64 {
	return &s.topicNorm // want topicfunnel "address of State.topicNorm taken"
}

func literal(t Vector) *State {
	return &State{topic: t} // want topicfunnel "State literal initializes topic"
}

// Reads and funnel use are fine anywhere.
func reads(s *State, t Vector) (Vector, float64) {
	s.setTopic(t)
	return s.topic, s.topicNorm
}

// A lookalike field on another type must not trip the check.
type other struct{ topic Vector }

func lookalike(o *other, t Vector) { o.topic = t }
