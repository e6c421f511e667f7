// Package fuzzy implements division over fuzzy relations, the
// extension the paper surveys in its related work (§6, after Bosc,
// Dubois, Pivert & Prade and Yager): tuples carry membership grades
// in [0, 1], and the quotient grade of a candidate a is an
// aggregation of implication values
//
//	µ(a) = Agg_{b ∈ support(r2)} ( µ_r2(b) → µ_r1(a, b) )
//
// With the minimum aggregation and any residuated implication this
// is the standard fuzzy division; replacing the minimum with an
// ordered weighted average (OWA) realizes Yager's relaxed "almost
// all" quantifier — the fuzzy quotient operator the paper cites.
// Crisp relations (grades exactly 0 or 1) reduce to the classical
// small divide, which the tests verify against package division.
package fuzzy

import (
	"fmt"
	"math"
	"sort"

	"divlaws/internal/division"
	"divlaws/internal/relation"
	"divlaws/internal/schema"
)

// Implication is a fuzzy implication operator x → y over [0, 1].
type Implication func(x, y float64) float64

// Goedel is the Gödel implication: 1 if x ≤ y, else y.
func Goedel(x, y float64) float64 {
	if x <= y {
		return 1
	}
	return y
}

// Goguen is the Goguen (product-residuum) implication:
// 1 if x ≤ y, else y/x.
func Goguen(x, y float64) float64 {
	if x <= y {
		return 1
	}
	return y / x
}

// Lukasiewicz is the Łukasiewicz implication: min(1, 1 − x + y).
func Lukasiewicz(x, y float64) float64 {
	return math.Min(1, 1-x+y)
}

// KleeneDienes is the Kleene-Dienes implication: max(1 − x, y).
func KleeneDienes(x, y float64) float64 {
	return math.Max(1-x, y)
}

// Relation is a fuzzy relation: a set of tuples with membership
// grades. Inserting a tuple twice keeps the maximum grade (fuzzy
// set union semantics). Tuple identity runs through the engine's
// 64-bit TupleIndex — no per-tuple key strings.
type Relation struct {
	sch    schema.Schema
	ix     relation.TupleIndex
	grades []float64 // per tuple id
}

// NewRelation returns an empty fuzzy relation over the schema.
func NewRelation(sch schema.Schema) *Relation {
	return &Relation{sch: sch}
}

// Schema returns the relation's schema.
func (r *Relation) Schema() schema.Schema { return r.sch }

// Len returns the number of tuples with positive grade.
func (r *Relation) Len() int { return r.ix.Len() }

// Insert adds a tuple with the given grade, keeping the maximum
// grade on duplicates. Grades outside [0, 1] panic; a zero grade is
// ignored (a fuzzy set's support excludes grade-0 elements).
func (r *Relation) Insert(t relation.Tuple, grade float64) {
	if grade < 0 || grade > 1 {
		panic(fmt.Sprintf("fuzzy: grade %g outside [0, 1]", grade))
	}
	if len(t) != r.sch.Len() {
		panic(fmt.Sprintf("fuzzy: arity %d tuple into schema %v", len(t), r.sch))
	}
	if grade == 0 {
		return
	}
	if id := r.ix.Lookup(t); id >= 0 {
		if grade > r.grades[id] {
			r.grades[id] = grade
		}
		return
	}
	r.ix.ID(t.Clone())
	r.grades = append(r.grades, grade)
}

// Grade returns the membership grade of t (0 when absent).
func (r *Relation) Grade(t relation.Tuple) float64 {
	if id := r.ix.Lookup(t); id >= 0 {
		return r.grades[id]
	}
	return 0
}

// Each visits tuples and grades in insertion order. The tuples are
// owned by the relation and must not be mutated.
func (r *Relation) Each(fn func(t relation.Tuple, grade float64)) {
	for id, t := range r.ix.Keys() {
		fn(t, r.grades[id])
	}
}

// FromCrisp lifts a classical relation to a fuzzy one with grade 1
// everywhere.
func FromCrisp(r *relation.Relation) *Relation {
	out := NewRelation(r.Schema())
	for _, t := range r.Tuples() {
		out.Insert(t, 1)
	}
	return out
}

// Cut returns the α-cut as a crisp relation: tuples with grade ≥
// alpha.
func (r *Relation) Cut(alpha float64) *relation.Relation {
	out := relation.New(r.sch)
	r.Each(func(t relation.Tuple, g float64) {
		if g >= alpha {
			out.Insert(t)
		}
	})
	return out
}

// Divide computes the fuzzy quotient with the minimum aggregation:
//
//	µ(a) = min_{b ∈ support(r2)} impl(µ_r2(b), µ_r1(a, b))
//
// over the same A/B schema conventions as the crisp small divide.
// Candidates are the A-projections of r1's support; their quotient
// grade is capped by their own maximal tuple grade, keeping the
// crisp reduction exact.
func Divide(r1, r2 *Relation, impl Implication) *Relation {
	split, err := division.SmallSplit(r1.sch, r2.sch)
	if err != nil {
		panic(err)
	}
	return divide(r1, r2, split, func(impls []float64) float64 {
		m := 1.0
		for _, v := range impls {
			if v < m {
				m = v
			}
		}
		return m
	}, impl)
}

// OWADivide computes Yager's fuzzy quotient: the implication values
// are aggregated with an ordered weighted average instead of the
// minimum, realizing relaxed universal quantifiers such as "almost
// all". weights must be nonnegative and sum to 1; weights
// concentrated on the smallest values approach the strict
// quantifier, weights spread out relax it.
func OWADivide(r1, r2 *Relation, impl Implication, weights []float64) *Relation {
	split, err := division.SmallSplit(r1.sch, r2.sch)
	if err != nil {
		panic(err)
	}
	sum := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("fuzzy: negative OWA weight")
		}
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		panic(fmt.Sprintf("fuzzy: OWA weights sum to %g, want 1", sum))
	}
	return divide(r1, r2, split, func(impls []float64) float64 {
		if len(impls) != len(weights) {
			panic(fmt.Sprintf("fuzzy: %d OWA weights for %d divisor tuples", len(weights), len(impls)))
		}
		// OWA: sort descending, then weight positionally.
		sorted := append([]float64(nil), impls...)
		sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
		total := 0.0
		for i, v := range sorted {
			total += weights[i] * v
		}
		return total
	}, impl)
}

// QuantifierWeights derives OWA weights from a monotone relative
// quantifier Q: [0,1] → [0,1] with Q(0) = 0, Q(1) = 1 (e.g. "almost
// all"): w_i = Q(i/n) − Q((i−1)/n). The classical "all" quantifier
// (Q = 1 at x = 1, else 0) puts all weight on the minimum.
func QuantifierWeights(q func(float64) float64, n int) []float64 {
	out := make([]float64, n)
	for i := 1; i <= n; i++ {
		out[i-1] = q(float64(i)/float64(n)) - q(float64(i-1)/float64(n))
	}
	return out
}

// AlmostAll is a standard relaxed quantifier: linear ramp from
// threshold lo to 1.
func AlmostAll(lo float64) func(float64) float64 {
	return func(x float64) float64 {
		if x <= lo {
			return 0
		}
		return (x - lo) / (1 - lo)
	}
}

// divide runs the shared candidate/implication machinery over the
// TupleIndex: the B universe is numbered once (divisor support
// first, then the dividend's B projections), each candidate keeps a
// dense per-B-id image of dividend grades, and the aggregation runs
// off integer ids — no key strings anywhere.
func divide(r1, r2 *Relation, split division.Split, agg func([]float64) float64, impl Implication) *Relation {
	aPos := r1.sch.Positions(split.A.Attrs())
	bPos := r1.sch.Positions(split.B.Attrs())
	bOrder := r2.sch.Positions(split.B.Attrs())

	// Number the B universe.
	var bIx relation.TupleIndex
	r2.Each(func(t relation.Tuple, _ float64) { bIx.IDProj(t, bOrder) })
	r1.Each(func(t relation.Tuple, _ float64) { bIx.IDProj(t, bPos) })
	m := bIx.Len()

	// Candidates with dense images: per candidate, grade per B id.
	var cands relation.TupleIndex
	var images [][]float64
	var best []float64
	r1.Each(func(t relation.Tuple, g float64) {
		id, created := cands.IDProj(t, aPos)
		if created {
			images = append(images, make([]float64, m))
			best = append(best, 0)
		}
		bid := bIx.LookupProj(t, bPos)
		if g > images[id][bid] {
			images[id][bid] = g
		}
		if g > best[id] {
			best[id] = g
		}
	})

	// Divisor support in deterministic order.
	type divisorTuple struct {
		id    int
		grade float64
	}
	var divisor []divisorTuple
	r2.Each(func(t relation.Tuple, g float64) {
		divisor = append(divisor, divisorTuple{id: bIx.LookupProj(t, bOrder), grade: g})
	})

	out := NewRelation(split.A)
	for cid, a := range cands.Keys() {
		if len(divisor) == 0 {
			// Empty divisor: candidate qualifies with its own grade
			// (crisp reduction of r ÷ ∅ = πA(r)).
			out.Insert(a, best[cid])
			continue
		}
		impls := make([]float64, len(divisor))
		for i, d := range divisor {
			impls[i] = impl(d.grade, images[cid][d.id])
		}
		grade := math.Min(agg(impls), best[cid])
		out.Insert(a, grade)
	}
	return out
}

// CrispDivide is a convenience: lift, divide with Gödel implication,
// and 1-cut — equal to division.Divide on classical inputs.
func CrispDivide(r1, r2 *relation.Relation) *relation.Relation {
	return Divide(FromCrisp(r1), FromCrisp(r2), Goedel).Cut(1)
}
