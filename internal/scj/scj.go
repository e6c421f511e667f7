// Package scj implements the set containment join ⋈⊇ over non-first-
// normal-form relations with one set-valued attribute (paper §2.2).
//
// The paper contrasts great divide with the set containment join:
// the join's operands carry their element sets inline (Figure 3),
// may contain empty sets, and the join preserves the set-valued
// attributes in its output. Nest and Unnest convert between this
// nested representation and the flat relations used by division, so
// tests can check the correspondence the paper describes.
package scj

import (
	"fmt"
	"sort"
	"strings"

	"divlaws/internal/relation"
	"divlaws/internal/schema"
	"divlaws/internal/value"
)

// ItemSet is a set of scalar values, the payload of a set-valued
// attribute. Membership runs through the engine's 64-bit TupleIndex
// over single-value tuples — no per-element key strings.
type ItemSet struct {
	ix relation.TupleIndex
}

// NewItemSet builds a set from the given values.
func NewItemSet(vals ...value.Value) *ItemSet {
	s := &ItemSet{}
	for _, v := range vals {
		s.Add(v)
	}
	return s
}

// IntSet builds a set of integer values, a test convenience.
func IntSet(xs ...int64) *ItemSet {
	s := NewItemSet()
	for _, x := range xs {
		s.Add(value.Int(x))
	}
	return s
}

// Add inserts v, reporting whether it was new.
func (s *ItemSet) Add(v value.Value) bool {
	_, created := s.ix.ID(relation.Tuple{v})
	return created
}

// Len returns the cardinality.
func (s *ItemSet) Len() int { return s.ix.Len() }

// Contains reports membership of v.
func (s *ItemSet) Contains(v value.Value) bool {
	return s.ix.Lookup(relation.Tuple{v}) >= 0
}

// ContainsAll reports whether s ⊇ t.
func (s *ItemSet) ContainsAll(t *ItemSet) bool {
	if t.Len() > s.Len() {
		return false
	}
	for _, e := range t.ix.Keys() {
		if s.ix.Lookup(e) < 0 {
			return false
		}
	}
	return true
}

// Values returns the elements in canonical order.
func (s *ItemSet) Values() []value.Value {
	out := make([]value.Value, 0, s.ix.Len())
	for _, t := range s.ix.Keys() {
		out = append(out, t[0])
	}
	sort.Slice(out, func(i, j int) bool { return value.Less(out[i], out[j]) })
	return out
}

// canonical returns the set as the tuple of its elements in
// canonical order — the injective, order-insensitive identity used
// to index nested rows without building key strings.
func (s *ItemSet) canonical() relation.Tuple {
	return relation.Tuple(s.Values())
}

// Key returns an injective string encoding of the set
// (order-insensitive). The operators themselves index sets through
// canonical tuples; the string form is retained as the identity the
// string-keyed collision-test oracle is built on.
func (s *ItemSet) Key() string {
	var b []byte
	for _, v := range s.Values() {
		b = v.AppendKey(b)
	}
	return string(b)
}

// Equal reports set equality.
func (s *ItemSet) Equal(t *ItemSet) bool { return s.Len() == t.Len() && s.ContainsAll(t) }

// String renders the set like the paper: {1, 2, 4}.
func (s *ItemSet) String() string {
	vals := s.Values()
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = v.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Row is a nested tuple: scalar values plus one set-valued attribute.
type Row struct {
	Scalars relation.Tuple
	Set     *ItemSet
}

// Nested is a relation with scalar attributes and exactly one
// set-valued attribute. Row identity (set semantics) runs through
// two TupleIndexes: sets are numbered by their canonical element
// tuple, and rows by their scalars extended with the set's dense id.
type Nested struct {
	scalars schema.Schema
	setAttr string
	rows    []Row
	setIx   relation.TupleIndex // canonical set tuple -> set id
	rowIx   relation.TupleIndex // scalars ++ (set id) -> row id
}

// NewNested returns an empty nested relation with the given scalar
// schema and set attribute name.
func NewNested(scalars schema.Schema, setAttr string) *Nested {
	if scalars.Contains(setAttr) {
		panic(fmt.Sprintf("scj: set attribute %q collides with scalar schema %v", setAttr, scalars))
	}
	return &Nested{scalars: scalars, setAttr: setAttr}
}

// Scalars returns the scalar schema.
func (n *Nested) Scalars() schema.Schema { return n.scalars }

// SetAttr returns the name of the set-valued attribute.
func (n *Nested) SetAttr() string { return n.setAttr }

// Len returns the number of rows.
func (n *Nested) Len() int { return len(n.rows) }

// Rows returns the rows in insertion order.
func (n *Nested) Rows() []Row { return n.rows }

// Insert adds a row under set semantics, reporting whether it was
// new.
func (n *Nested) Insert(r Row) bool {
	if len(r.Scalars) != n.scalars.Len() {
		panic(fmt.Sprintf("scj: row scalar arity %d vs schema %v", len(r.Scalars), n.scalars))
	}
	if r.Set == nil {
		r.Set = NewItemSet()
	}
	setID, _ := n.setIx.ID(r.Set.canonical())
	rowKey := r.Scalars.Concat(relation.Tuple{value.Int(int64(setID))})
	if _, created := n.rowIx.ID(rowKey); !created {
		return false
	}
	n.rows = append(n.rows, Row{Scalars: r.Scalars.Clone(), Set: r.Set})
	return true
}

// Nest converts a flat relation into a nested one: group by every
// attribute except setAttr and collect setAttr values into sets.
// Groups are keyed by the remaining attributes in their flat order,
// numbered through a TupleIndex instead of key strings.
func Nest(flat *relation.Relation, setAttr string) *Nested {
	fs := flat.Schema()
	rest := fs.Minus(schema.New(setAttr))
	restPos := fs.Positions(rest.Attrs())
	setPos := fs.MustIndex(setAttr)

	out := NewNested(rest, setAttr)
	var groupIx relation.TupleIndex
	var sets []*ItemSet
	for _, t := range flat.Tuples() {
		id, created := groupIx.IDProj(t, restPos)
		if created {
			sets = append(sets, NewItemSet())
		}
		sets[id].Add(t[setPos])
	}
	for id, s := range sets {
		out.Insert(Row{Scalars: groupIx.Key(id), Set: s})
	}
	return out
}

// Unnest converts a nested relation back into first normal form.
// Rows with empty sets vanish, which is exactly the semantic gap
// between set containment join and great divide the paper notes
// (difference 3 in §2.2).
func Unnest(n *Nested) *relation.Relation {
	out := relation.New(n.scalars.Union(schema.New(n.setAttr)))
	for _, r := range n.rows {
		for _, v := range r.Set.Values() {
			out.Insert(r.Scalars.Concat(relation.Tuple{v}))
		}
	}
	return out
}

// JoinedRow is one output row of a set containment join, preserving
// both input sets (paper Figure 3(c)).
type JoinedRow struct {
	LeftScalars  relation.Tuple
	LeftSet      *ItemSet
	RightSet     *ItemSet
	RightScalars relation.Tuple
}

// ContainmentJoin computes r1 ⋈_{b1 ⊇ b2} r2: all combinations of
// rows whose left set contains the right set. Empty right sets match
// every left row (⊇ ∅ is always true), matching the paper's remark
// that the join, unlike division, has a notion of empty sets.
func ContainmentJoin(left, right *Nested) []JoinedRow {
	// Index right rows by each element; empty right sets match all.
	var out []JoinedRow
	for _, l := range left.Rows() {
		for _, r := range right.Rows() {
			if l.Set.ContainsAll(r.Set) {
				out = append(out, JoinedRow{
					LeftScalars:  l.Scalars,
					LeftSet:      l.Set,
					RightSet:     r.Set,
					RightScalars: r.Scalars,
				})
			}
		}
	}
	return out
}

// ContainmentJoinFlat runs the containment join and flattens the
// result to a relation over left scalars + right scalars, dropping
// the set attributes. This is the shape great divide produces, so
// tests can validate the correspondence r1 ⋈⊇ r2 ≈ r1 ÷* r2 for
// inputs without empty sets and with every dividend group nonempty.
func ContainmentJoinFlat(left, right *Nested) *relation.Relation {
	out := relation.New(left.scalars.Concat(right.scalars))
	for _, j := range ContainmentJoin(left, right) {
		out.Insert(j.LeftScalars.Concat(j.RightScalars))
	}
	return out
}
