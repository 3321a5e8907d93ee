package core

import "lakenav/vector"

// Similarity kernel: every quantity in the navigation model (Eq 1–7)
// bottoms out in a cosine between topic vectors, and the evaluator
// computes O(queries × states × children) of them per local-search
// iteration. States cache their topic's L2 norm (State.topicNorm, kept
// current by setTopic), so a similarity against a state costs a single
// Dot via vector.CosineNorms instead of the two Norms and a Dot that
// vector.Cosine performs. The kernel path is bit-for-bit identical to
// the naive one — CosineNorms runs the same operations in the same
// order — which the kernel-equivalence property tests verify.

// stateCos is the nil-safe cosine between two states' topics, used for
// candidate scoring in the optimizer. A state whose topic is unset (nil)
// carries no signal and scores 0 — the same convention vector.Cosine
// applies to zero-norm vectors. Both cached norms are used, so scoring
// cannot drift numerically from the navigation model's kernel path.
func stateCos(a, b *State) float64 {
	if a.topic == nil || b.topic == nil {
		return 0
	}
	return vector.CosineNorms(a.topic, b.topic, a.topicNorm, b.topicNorm)
}
