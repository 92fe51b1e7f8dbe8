package core

import (
	"math"
	"math/rand"

	"ngfix/internal/bruteforce"
	"ngfix/internal/vec"
)

// AugmentQueries implements the §7 cold-start mitigation: from each real
// historical query, synthesize perQuery extra queries by adding zero-mean
// Gaussian noise with total variance sigma² spread across dimensions
// (per-dimension std sigma/√d), so the expected perturbation norm is
// sigma regardless of dimensionality. The paper found sigma ≈ 0.3 best on
// its normalized embeddings.
//
// The result contains only the synthetic queries (callers typically fix
// with real ∪ synthetic). When the source queries are unit-normalized the
// synthetic ones are re-normalized too (normalize flag).
func AugmentQueries(queries *vec.Matrix, perQuery int, sigma float64, normalize bool, seed int64) *vec.Matrix {
	nq := queries.Rows()
	dim := queries.Dim()
	out := vec.NewMatrix(nq*perQuery, dim)
	rng := rand.New(rand.NewSource(seed))
	std := sigma / math.Sqrt(float64(dim))
	for i := 0; i < nq; i++ {
		src := queries.Row(i)
		for p := 0; p < perQuery; p++ {
			dst := out.Row(i*perQuery + p)
			for j := range dst {
				dst[j] = src[j] + float32(rng.NormFloat64()*std)
			}
			if normalize {
				vec.Normalize(dst)
			}
		}
	}
	return out
}

// FixPlusReport aggregates an NGFix+ pass.
type FixPlusReport struct {
	Queries    int
	Perturbed  int
	EdgesAdded int
}

// FixPlus implements NGFix+ from the §7 theoretical-extension experiment:
// for each historical query, enumerate nEnum perturbed queries q' inside
// an eps-ball (Gaussian, expected radius eps) and apply NGFix to each
// perturbed neighborhood, extending the repaired region from the queries
// themselves to balls around them. Neighbor lists for the perturbed
// queries are approximated with a graph search of width efTruth.
//
// The paper measures NGFix+ at ~19× NGFix's cost for a further quality
// gain; Figure 21 is regenerated from this implementation.
func (ix *Index) FixPlus(queries *vec.Matrix, nEnum int, eps float64, efTruth int, seed int64) FixPlusReport {
	rep := FixPlusReport{Queries: queries.Rows()}
	k := ix.opts.Rounds[0].K
	kmax := 2 * k
	if efTruth < kmax {
		efTruth = 2 * kmax
	}
	perturbed := AugmentQueries(queries, nEnum, eps, false, seed)
	rep.Perturbed = perturbed.Rows()
	truth := ix.ApproxTruth(perturbed, kmax, efTruth)
	for i := 0; i < perturbed.Rows(); i++ {
		st := ix.fix.ngfix(ix.G, bruteforce.IDs(truth[i]), NGFixParams{
			K: k, KMax: kmax, LEx: ix.opts.LEx, Prune: ix.opts.Prune, Rng: ix.rng,
		})
		rep.EdgesAdded += st.EdgesAdded
	}
	return rep
}
