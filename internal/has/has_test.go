package has

import (
	"math/rand"
	"strings"
	"testing"

	"divlaws/internal/algebra"
	"divlaws/internal/division"
	"divlaws/internal/hashkey"
	"divlaws/internal/relation"
	"divlaws/internal/schema"
	"divlaws/internal/value"
)

// fixture: suppliers s1..s5, parts p1..p3, qualification {p1, p2}.
//
//	s1 -> {p1, p2}         exactly
//	s2 -> {p1, p2, p3}     strictly more than
//	s3 -> {p1}             strictly less than
//	s4 -> {p1, p3}         some but not all plus else
//	s5 -> {p3}             none of plus else
//	s6 -> {}               none at all
func fixture() (r1, r3, r2 *relation.Relation) {
	r1 = relation.FromRows(schema.New("s"), [][]any{
		{"s1"}, {"s2"}, {"s3"}, {"s4"}, {"s5"}, {"s6"},
	})
	r3 = relation.FromRows(schema.New("s", "p"), [][]any{
		{"s1", "p1"}, {"s1", "p2"},
		{"s2", "p1"}, {"s2", "p2"}, {"s2", "p3"},
		{"s3", "p1"},
		{"s4", "p1"}, {"s4", "p3"},
		{"s5", "p3"},
	})
	r2 = relation.FromRows(schema.New("p"), [][]any{{"p1"}, {"p2"}})
	return r1, r3, r2
}

func want(ids ...string) *relation.Relation {
	rows := make([][]any, len(ids))
	for i, id := range ids {
		rows[i] = []any{id}
	}
	return relation.FromRows(schema.New("s"), rows)
}

func TestEachAssociation(t *testing.T) {
	r1, r3, r2 := fixture()
	cases := []struct {
		assoc Association
		want  *relation.Relation
	}{
		{Exactly, want("s1")},
		{StrictlyMoreThan, want("s2")},
		{StrictlyLessThan, want("s3")},
		{SomeButNotAllPlusElse, want("s4")},
		{NoneOfPlusElse, want("s5")},
		{NoneAtAll, want("s6")},
	}
	for _, tc := range cases {
		got := HAS(r1, r3, r2, tc.assoc)
		if !got.Equal(tc.want) {
			t.Errorf("%s: got %v, want %v", tc.assoc, got, tc.want)
		}
	}
}

func TestAssociationsPartition(t *testing.T) {
	// Every entity classifies under exactly one association, so HAS
	// with All returns all of r1 and the six singleton results are
	// pairwise disjoint and cover r1.
	r1, r3, r2 := fixture()
	if got := HAS(r1, r3, r2, All); !got.Equal(r1) {
		t.Fatalf("HAS(All) = %v", got)
	}
	union := relation.New(r1.Schema())
	for _, a := range []Association{
		StrictlyMoreThan, StrictlyLessThan, SomeButNotAllPlusElse,
		Exactly, NoneOfPlusElse, NoneAtAll,
	} {
		part := HAS(r1, r3, r2, a)
		for _, tp := range part.Tuples() {
			if union.Contains(tp) {
				t.Errorf("entity %v classified twice", tp)
			}
		}
		union.InsertAll(part)
	}
	if !union.Equal(r1) {
		t.Errorf("associations do not cover r1: %v", union)
	}
}

func TestAtLeastEqualsSmallDivide(t *testing.T) {
	// The paper's §6 correspondence: r1 VIA r3 HAS (exactly or
	// strictly more than) OF r2 is r3 ÷ r2.
	r1, r3, r2 := fixture()
	got := HAS(r1, r3, r2, AtLeast)
	wantDiv := division.Divide(r3, r2)
	if !got.Equal(wantDiv) {
		t.Errorf("HAS(AtLeast) = %v, divide = %v", got, wantDiv)
	}
}

func TestAtLeastEqualsSmallDivideProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		r3 := relation.New(schema.New("a", "b"))
		for i := 0; i < rng.Intn(40); i++ {
			r3.Insert(relation.Tuple{
				value.Int(int64(rng.Intn(8))), value.Int(int64(rng.Intn(6))),
			})
		}
		r2 := relation.New(schema.New("b"))
		for i := 0; i < 1+rng.Intn(4); i++ {
			r2.Insert(relation.Tuple{value.Int(int64(rng.Intn(6)))})
		}
		// Entities = those appearing in r3 (division's candidates).
		r1 := algebra.Project(r3, "a")
		got := HAS(r1, r3, r2, AtLeast)
		wantDiv := division.Divide(r3, r2)
		if r3.Empty() {
			continue
		}
		if !got.Equal(wantDiv) {
			t.Fatalf("trial %d: HAS=%v divide=%v\nr3:\n%v\nr2:\n%v", trial, got, wantDiv, r3, r2)
		}
	}
}

func TestEmptyQualification(t *testing.T) {
	// With Q = ∅: entities with no relationships are NoneAtAll;
	// entities with relationships are StrictlyMoreThan (S ⊋ ∅).
	r1, r3, _ := fixture()
	empty := relation.New(schema.New("p"))
	if got := HAS(r1, r3, empty, StrictlyMoreThan); got.Len() != 5 {
		t.Errorf("S ⊋ ∅ should match the 5 related entities, got %v", got)
	}
	if got := HAS(r1, r3, empty, NoneAtAll); !got.Equal(want("s6")) {
		t.Errorf("NoneAtAll with empty Q = %v", got)
	}
}

func TestCombinationString(t *testing.T) {
	s := AtLeast.String()
	if !strings.Contains(s, "exactly") || !strings.Contains(s, "strictly more than") {
		t.Errorf("AtLeast.String() = %q", s)
	}
	if Association(0).String() != "(no association)" {
		t.Error("zero association string")
	}
}

func TestSchemaValidation(t *testing.T) {
	r1, r3, r2 := fixture()
	bad := relation.FromRows(schema.New("x"), [][]any{{"x1"}})
	for _, fn := range []func(){
		func() { HAS(r1, r3, bad, All) }, // relationship schema mismatch
		func() { HAS(bad, r3, r2, All) }, // entity schema mismatch
		func() { HAS(r2, r3, r2, All) },  // overlapping schemas
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestClassifyDirect(t *testing.T) {
	mk := func(keys ...string) map[string]struct{} {
		m := map[string]struct{}{}
		for _, k := range keys {
			m[k] = struct{}{}
		}
		return m
	}
	q := mk("a", "b")
	cases := []struct {
		s    map[string]struct{}
		want Association
	}{
		{mk(), NoneAtAll},
		{mk("c"), NoneOfPlusElse},
		{mk("a"), StrictlyLessThan},
		{mk("a", "b"), Exactly},
		{mk("a", "b", "c"), StrictlyMoreThan},
		{mk("a", "c"), SomeButNotAllPlusElse},
	}
	for _, tc := range cases {
		if got := Classify(tc.s, q); got != tc.want {
			t.Errorf("Classify(%v) = %s, want %s", tc.s, got, tc.want)
		}
	}
}

// TestHASCollisions degrades every hash to 3 bits so TupleIndex
// probes walk collision chains constantly, and checks HAS against
// the string-keyed reference for every association on random inputs:
// the collision verification, not hash uniqueness, carries the
// classification.
func TestHASCollisions(t *testing.T) {
	restore := hashkey.SetMaskForTesting(7)
	defer restore()
	rng := rand.New(rand.NewSource(71))
	assocs := []Association{
		StrictlyMoreThan, StrictlyLessThan, SomeButNotAllPlusElse,
		Exactly, NoneOfPlusElse, NoneAtAll, AtLeast, All,
	}
	for trial := 0; trial < 60; trial++ {
		r1 := relation.New(schema.New("a"))
		for i := 0; i < rng.Intn(10); i++ {
			r1.Insert(relation.Tuple{value.Int(int64(rng.Intn(8)))})
		}
		r3 := relation.New(schema.New("a", "b"))
		for i := 0; i < rng.Intn(30); i++ {
			r3.Insert(relation.Tuple{
				value.Int(int64(rng.Intn(8))), value.Int(int64(rng.Intn(6))),
			})
		}
		r2 := relation.New(schema.New("b"))
		for i := 0; i < rng.Intn(4); i++ {
			r2.Insert(relation.Tuple{value.Int(int64(rng.Intn(6)))})
		}
		for _, a := range assocs {
			got := HAS(r1, r3, r2, a)
			want := hasStringKeyed(r1, r3, r2, a)
			if !got.Equal(want) {
				t.Fatalf("trial %d, %s: masked HAS=%v want %v\nr3:\n%v\nr2:\n%v",
					trial, a, got, want, r3, r2)
			}
		}
	}
}

// hasStringKeyed is the string-keyed reference implementation of
// HAS, retained as the collision-test oracle: the masked-hash tests
// compare HAS under a 3-bit hash space against it to prove the
// TupleIndex verification keeps classification exact.
func hasStringKeyed(r1, r3, r2 *relation.Relation, assocs Association) *relation.Relation {
	a := r1.Schema()
	aPos := r3.Schema().Positions(a.Attrs())
	bPos := r3.Schema().Positions(r2.Schema().Attrs())

	q := make(map[string]struct{}, r2.Len())
	for _, t := range r2.Tuples() {
		q[t.Key()] = struct{}{}
	}
	related := make(map[string]map[string]struct{})
	for _, t := range r3.Tuples() {
		ak := t.Project(aPos).Key()
		s, ok := related[ak]
		if !ok {
			s = make(map[string]struct{})
			related[ak] = s
		}
		s[t.Project(bPos).Key()] = struct{}{}
	}
	out := relation.New(a)
	for _, e := range r1.Tuples() {
		s := related[e.Key()]
		if s == nil {
			s = map[string]struct{}{}
		}
		if Classify(s, q)&assocs != 0 {
			out.Insert(e)
		}
	}
	return out
}
