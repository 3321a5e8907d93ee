package parallel

import "testing"

// TestForCoversEachIndexOnce pins the chunking contract: every index of
// [0, n) lands in exactly one chunk, slots are 0..chunks-1, and the
// return value says whether For forked.
func TestForCoversEachIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 64, 1001} {
		for _, workers := range []int{-1, 0, 1, 2, 3, 4, 8, 2000} {
			hits := make([]int, n)
			slots := make([]bool, max(workers, 1))
			chunks := For(n, workers, func(w, lo, hi int) {
				slots[w] = true
				for i := lo; i < hi; i++ {
					hits[i]++
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d workers=%d: index %d ran %d times", n, workers, i, h)
				}
			}
			forks := n > 1 && workers > 1
			switch {
			case n == 0 && chunks != 0,
				n > 0 && !forks && chunks != 1,
				forks && (chunks < 2 || chunks > workers):
				t.Fatalf("n=%d workers=%d: %d chunks", n, workers, chunks)
			}
			for w := 0; w < chunks; w++ {
				if !slots[w] {
					t.Fatalf("n=%d workers=%d: slot %d never ran", n, workers, w)
				}
			}
		}
	}
}
