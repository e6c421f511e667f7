// Package has implements Carlis's HAS operator, the generalization
// of division the paper discusses in its related work (§6): given
// entities r1, qualification entities r2, and a relationship table
// r3, HAS qualifies each r1 entity by comparing its related set
// S(e) = { y | (e, y) ∈ r3 } against the qualification set Q = r2
// using a disjunction of six mutually exclusive "associations"
// (adverbs). Small divide is the special case
//
//	r1 VIA r3 HAS (exactly OR strictly more than) OF r2
//
// i.e. the "at least" adverb, which the tests verify against the
// division package.
package has

import (
	"fmt"
	"strings"

	"divlaws/internal/relation"
)

// Association is one of Carlis's six adverbs describing how an
// entity's related set S compares with the qualification set Q.
type Association uint8

// The six associations. They partition all possible (S, Q)
// relationships: every entity falls under exactly one.
const (
	// StrictlyMoreThan: S ⊋ Q.
	StrictlyMoreThan Association = 1 << iota
	// StrictlyLessThan: S ⊊ Q (including S = ∅ only when Q ≠ ∅ is
	// handled by NoneAtAll first; see Classify).
	StrictlyLessThan
	// SomeButNotAllPlusElse: S shares some but not all of Q and has
	// extra elements outside Q.
	SomeButNotAllPlusElse
	// Exactly: S = Q.
	Exactly
	// NoneOfPlusElse: S ∩ Q = ∅ and S ≠ ∅.
	NoneOfPlusElse
	// NoneAtAll: S = ∅.
	NoneAtAll
)

// AtLeast is the combination equivalent to relational division:
// "exactly or strictly more than".
const AtLeast = Exactly | StrictlyMoreThan

// All is the disjunction of every association; HAS with All returns
// every entity of r1.
const All = StrictlyMoreThan | StrictlyLessThan | SomeButNotAllPlusElse |
	Exactly | NoneOfPlusElse | NoneAtAll

// String names the association combination.
func (a Association) String() string {
	names := []struct {
		bit  Association
		name string
	}{
		{StrictlyMoreThan, "strictly more than"},
		{StrictlyLessThan, "strictly less than"},
		{SomeButNotAllPlusElse, "some but not all plus else"},
		{Exactly, "exactly"},
		{NoneOfPlusElse, "none of plus else"},
		{NoneAtAll, "none at all"},
	}
	var parts []string
	for _, n := range names {
		if a&n.bit != 0 {
			parts = append(parts, n.name)
		}
	}
	if len(parts) == 0 {
		return "(no association)"
	}
	return strings.Join(parts, " or ")
}

// Classify determines the unique association between a related set
// S and a qualification set Q, both given as key sets. It is the
// map-based classification kept for direct use in tests and the
// string-keyed reference; HAS itself classifies from TupleIndex
// counts.
func Classify(s, q map[string]struct{}) Association {
	common := 0
	for k := range s {
		if _, ok := q[k]; ok {
			common++
		}
	}
	return classifyCounts(len(s), common, len(q))
}

// classifyCounts determines the association from set cardinalities:
// |S|, |S ∩ Q|, and |Q|.
func classifyCounts(sLen, common, qLen int) Association {
	if sLen == 0 {
		return NoneAtAll
	}
	extra := sLen - common
	// Coverage of Q is checked before disjointness so an empty Q
	// classifies nonempty S as "strictly more than" (S ⊋ ∅), keeping
	// the division correspondence exact for empty divisors.
	switch {
	case common == qLen && extra == 0:
		return Exactly
	case common == qLen:
		return StrictlyMoreThan
	case common == 0:
		return NoneOfPlusElse
	case extra == 0:
		return StrictlyLessThan
	default:
		return SomeButNotAllPlusElse
	}
}

// HAS evaluates r1 VIA r3 HAS assocs OF r2.
//
// r1 holds the candidate entities (schema A), r2 the qualification
// entities (schema B), and r3 the relationships (schema A ∪ B).
// The result has schema A: the entities whose association with Q is
// among assocs. Entities of r1 without any relationship in r3
// classify as NoneAtAll.
//
// Classification runs over the engine's 64-bit TupleIndex with no
// per-tuple key strings: Q is indexed once, and each entity only
// needs |S| and |S ∩ Q| — r3's tuples are distinct over A ∪ B, so
// every relationship tuple contributes exactly one distinct B value
// to its entity and plain counting suffices.
func HAS(r1, r3, r2 *relation.Relation, assocs Association) *relation.Relation {
	a := r1.Schema()
	b := r2.Schema()
	if !a.Union(b).EqualSet(r3.Schema()) {
		panic(fmt.Sprintf("has: relationship schema %v must be %v ∪ %v",
			r3.Schema(), a, b))
	}
	if !a.DisjointFrom(b) {
		panic(fmt.Sprintf("has: entity schemas %v and %v must be disjoint", a, b))
	}
	aPos := r3.Schema().Positions(a.Attrs())
	// bPos lists r3's B columns in r2's attribute order, so projected
	// lookups align with Q's index directly.
	bPos := r3.Schema().Positions(b.Attrs())

	var qIx relation.TupleIndex
	for _, t := range r2.Tuples() {
		qIx.ID(t)
	}
	qLen := qIx.Len()

	var eIx relation.TupleIndex
	var total, common []int
	for _, t := range r3.Tuples() {
		id, created := eIx.IDProj(t, aPos)
		if created {
			total = append(total, 0)
			common = append(common, 0)
		}
		total[id]++
		if qIx.LookupProj(t, bPos) >= 0 {
			common[id]++
		}
	}

	out := relation.New(a)
	for _, e := range r1.Tuples() {
		sLen, c := 0, 0
		if id := eIx.Lookup(e); id >= 0 {
			sLen, c = total[id], common[id]
		}
		if classifyCounts(sLen, c, qLen)&assocs != 0 {
			out.Insert(e)
		}
	}
	return out
}
