package graph

import (
	"math"
	"sort"

	"ngfix/internal/vec"
)

// Candidate is a potential neighbor of some pivot vertex, carrying its
// distance to that pivot.
type Candidate struct {
	ID   uint32
	Dist float32
}

// SortCandidates orders candidates by increasing distance (stable on id so
// construction is deterministic).
func SortCandidates(cs []Candidate) {
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].Dist != cs[j].Dist {
			return cs[i].Dist < cs[j].Dist
		}
		return cs[i].ID < cs[j].ID
	})
}

// RNGPrune applies the Relative Neighborhood Graph / MRNG occlusion rule
// used by HNSW's "heuristic" neighbor selection and by NSG: scanning
// candidates in ascending distance from the pivot, a candidate c is kept
// unless some already-kept neighbor s occludes it, i.e. dist(s, c) <
// dist(pivot, c). At most maxDegree neighbors are kept.
//
// vectors/metric supply the inter-candidate distances; candidates must be
// pre-sorted (SortCandidates) and must not contain the pivot itself.
func RNGPrune(vectors *vec.Matrix, metric vec.Metric, candidates []Candidate, maxDegree int) []Candidate {
	return RNGPruneNorms(vectors, metric, nil, candidates, maxDegree)
}

// RNGPruneNorms is RNGPrune with a row-norm cache for cosine (see
// vec.RowNorms; nil computes norms as needed): the same kept set, bit for
// bit, at one dot product per occlusion test instead of three.
func RNGPruneNorms(vectors *vec.Matrix, metric vec.Metric, norms []float32, candidates []Candidate, maxDegree int) []Candidate {
	kept := make([]Candidate, 0, maxDegree)
	for _, c := range candidates {
		if len(kept) >= maxDegree {
			break
		}
		occluded := false
		cd := vec.NewQueryDistancer(metric, vectors.Row(int(c.ID)), norms)
		for _, s := range kept {
			if cd.RowDistance(vectors, s.ID) < c.Dist {
				occluded = true
				break
			}
		}
		if !occluded {
			kept = append(kept, c)
		}
	}
	return kept
}

// TauPrune applies the τ-MNG pruning rule (Peng et al., "Efficient
// Approximate Nearest Neighbor Search in Multi-dimensional Databases"):
// a candidate c is occluded only by a kept neighbor s that is *more than
// 3τ closer* to c than the pivot is, i.e. dist(s, c) < dist(pivot, c) − 3τ.
// With τ = 0 this degenerates to RNGPrune; positive τ keeps more edges,
// buying the τ-monotonicity guarantee for queries within τ of the data.
func TauPrune(vectors *vec.Matrix, metric vec.Metric, candidates []Candidate, maxDegree int, tau float32) []Candidate {
	slack := 3 * tau
	kept := make([]Candidate, 0, maxDegree)
	for _, c := range candidates {
		if len(kept) >= maxDegree {
			break
		}
		occluded := false
		cRow := vectors.Row(int(c.ID))
		for _, s := range kept {
			if metric.Distance(vectors.Row(int(s.ID)), cRow) < c.Dist-slack {
				occluded = true
				break
			}
		}
		if !occluded {
			kept = append(kept, c)
		}
	}
	return kept
}

// AnglePrune is RFix's edge-dispersion rule (Algorithm 4, lines 5-9): scan
// candidates in ascending distance from the pivot and keep c only when the
// angle at the pivot between (pivot→c) and every kept (pivot→s) exceeds
// minAngleRad. This spreads the kept edges across directions, enhancing
// the pivot's navigability. The paper uses 60° (π/3).
//
// Angles are geometric (Euclidean) regardless of the index metric, since
// direction dispersion is what matters for navigation.
func AnglePrune(vectors *vec.Matrix, pivot uint32, candidates []Candidate, maxDegree int, minAngleRad float64) []Candidate {
	cosMax := float32(math.Cos(minAngleRad))
	p := vectors.Row(int(pivot))
	dim := len(p)
	dir := func(id uint32) []float32 {
		d := make([]float32, dim)
		row := vectors.Row(int(id))
		for i := range d {
			d[i] = row[i] - p[i]
		}
		return d
	}
	kept := make([]Candidate, 0, maxDegree)
	keptDirs := make([][]float32, 0, maxDegree)
	for _, c := range candidates {
		if len(kept) >= maxDegree {
			break
		}
		if c.ID == pivot {
			continue
		}
		cd := dir(c.ID)
		cn := vec.Norm(cd)
		if cn == 0 {
			continue
		}
		ok := true
		for _, sd := range keptDirs {
			sn := vec.Norm(sd)
			if sn == 0 {
				continue
			}
			if vec.Dot(cd, sd)/(cn*sn) >= cosMax {
				ok = false // angle too small: same direction already covered
				break
			}
		}
		if ok {
			kept = append(kept, c)
			keptDirs = append(keptDirs, cd)
		}
	}
	return kept
}
