package cluster

import (
	"fmt"
	"math"
	"math/rand"

	"lakenav/vector"
)

// KMedoidsResult holds a k-medoids partition.
type KMedoidsResult struct {
	// Medoids are item indices, one per cluster.
	Medoids []int
	// Assign maps each item to its cluster index in Medoids.
	Assign []int
	// Cost is the total distance of items to their medoids.
	Cost float64
}

// KMedoids partitions the items of dist into k clusters using
// k-means++-style seeding followed by Voronoi iteration (assign to
// nearest medoid; recompute each cluster's medoid as its 1-median).
// This is the k-medoids variant of Kaufman & Rousseeuw's method the
// paper cites for grouping tags into dimensions (Sec 4.3.4).
//
// It returns an error when k is out of range. The rng makes runs
// reproducible.
func KMedoids(dist *DistMatrix, k int, rng *rand.Rand, maxIter int) (*KMedoidsResult, error) {
	n := dist.N()
	if k < 1 || k > n {
		return nil, fmt.Errorf("cluster: k=%d out of range for %d items", k, n)
	}
	if maxIter < 1 {
		maxIter = 50
	}

	medoids := seedPlusPlus(dist, k, rng)
	assign := make([]int, n)

	assignAll := func() float64 {
		var cost float64
		for i := 0; i < n; i++ {
			best, bd := 0, math.Inf(1)
			for c, m := range medoids {
				if d := dist.Get(i, m); d < bd {
					bd, best = d, c
				}
			}
			assign[i] = best
			cost += bd
		}
		return cost
	}

	cost := assignAll()
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		clusters := make([][]int, k)
		for i, c := range assign {
			clusters[c] = append(clusters[c], i)
		}
		for c, members := range clusters {
			if len(members) == 0 {
				continue
			}
			// 1-median of the cluster.
			best, bd := medoids[c], math.Inf(1)
			for _, cand := range members {
				var s float64
				for _, m := range members {
					s += dist.Get(cand, m)
				}
				if s < bd {
					bd, best = s, cand
				}
			}
			if best != medoids[c] {
				medoids[c] = best
				changed = true
			}
		}
		if !changed {
			break
		}
		cost = assignAll()
	}
	return &KMedoidsResult{Medoids: medoids, Assign: assign, Cost: cost}, nil
}

// seedPlusPlus picks k distinct seed items with k-means++ weighting:
// the first uniformly, each next with probability proportional to its
// distance to the nearest chosen seed.
func seedPlusPlus(dist *DistMatrix, k int, rng *rand.Rand) []int {
	n := dist.N()
	medoids := make([]int, 0, k)
	medoids = append(medoids, rng.Intn(n))
	minDist := make([]float64, n)
	for i := range minDist {
		minDist[i] = dist.Get(i, medoids[0])
	}
	for len(medoids) < k {
		var total float64
		for _, d := range minDist {
			total += d
		}
		var next int
		if total == 0 {
			// All remaining items coincide with a seed; pick any
			// non-medoid deterministically.
			next = -1
			chosen := make(map[int]bool, len(medoids))
			for _, m := range medoids {
				chosen[m] = true
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
		medoids = append(medoids, next)
		for i := range minDist {
			if d := dist.Get(i, next); d < minDist[i] {
				minDist[i] = d
			}
		}
	}
	return medoids
}

// KMedoidsVectors clusters vectors under cosine distance.
func KMedoidsVectors(vs []vector.Vector, k int, rng *rand.Rand, maxIter int) (*KMedoidsResult, error) {
	return KMedoids(CosineDistances(vs), k, rng, maxIter)
}
