package fuzzy

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"divlaws/internal/division"
	"divlaws/internal/hashkey"
	"divlaws/internal/relation"
	"divlaws/internal/schema"
	"divlaws/internal/value"
)

func tup(xs ...int64) relation.Tuple {
	t := make(relation.Tuple, len(xs))
	for i, x := range xs {
		t[i] = value.Int(x)
	}
	return t
}

func TestImplications(t *testing.T) {
	cases := []struct {
		name string
		impl Implication
		x, y float64
		want float64
	}{
		{"goedel x<=y", Goedel, 0.3, 0.7, 1},
		{"goedel x>y", Goedel, 0.8, 0.5, 0.5},
		{"goguen x<=y", Goguen, 0.3, 0.7, 1},
		{"goguen x>y", Goguen, 0.8, 0.4, 0.5},
		{"lukasiewicz", Lukasiewicz, 0.8, 0.5, 0.7},
		{"lukasiewicz cap", Lukasiewicz, 0.2, 0.9, 1},
		{"kleene-dienes", KleeneDienes, 0.8, 0.5, 0.5},
		{"kleene-dienes neg", KleeneDienes, 0.2, 0.5, 0.8},
	}
	for _, tc := range cases {
		if got := tc.impl(tc.x, tc.y); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: impl(%g, %g) = %g, want %g", tc.name, tc.x, tc.y, got, tc.want)
		}
	}
	// Boundary behaviour shared by all residuated implications:
	// 1 → y = y, x → 1 = 1, 0 → y = 1.
	for _, impl := range []Implication{Goedel, Goguen, Lukasiewicz} {
		for _, y := range []float64{0, 0.4, 1} {
			if got := impl(1, y); math.Abs(got-y) > 1e-12 {
				t.Errorf("impl(1, %g) = %g, want %g", y, got, y)
			}
			if got := impl(0, y); got != 1 {
				t.Errorf("impl(0, %g) = %g, want 1", y, got)
			}
		}
	}
}

func TestRelationBasics(t *testing.T) {
	r := NewRelation(schema.New("a", "b"))
	r.Insert(tup(1, 1), 0.5)
	r.Insert(tup(1, 1), 0.8) // max wins
	r.Insert(tup(1, 1), 0.3) // ignored
	r.Insert(tup(2, 2), 0)   // grade 0 excluded from support
	if r.Len() != 1 {
		t.Errorf("Len = %d", r.Len())
	}
	if g := r.Grade(tup(1, 1)); g != 0.8 {
		t.Errorf("Grade = %g", g)
	}
	if g := r.Grade(tup(9, 9)); g != 0 {
		t.Errorf("absent Grade = %g", g)
	}
	cut := r.Cut(0.9)
	if !cut.Empty() {
		t.Errorf("0.9-cut = %v", cut)
	}
	if got := r.Cut(0.5); got.Len() != 1 {
		t.Errorf("0.5-cut = %v", got)
	}
}

func TestInsertValidation(t *testing.T) {
	r := NewRelation(schema.New("a"))
	for _, fn := range []func(){
		func() { r.Insert(tup(1), -0.1) },
		func() { r.Insert(tup(1), 1.1) },
		func() { r.Insert(tup(1, 2), 0.5) },
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

func TestCrispReduction(t *testing.T) {
	// On crisp inputs every implication's min-aggregated division,
	// 1-cut, equals the classical small divide.
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 150; trial++ {
		r1 := relation.New(schema.New("a", "b"))
		for i := 0; i < rng.Intn(30); i++ {
			r1.Insert(tup(int64(rng.Intn(6)), int64(rng.Intn(5))))
		}
		r2 := relation.New(schema.New("b"))
		for i := 0; i < 1+rng.Intn(4); i++ {
			r2.Insert(tup(int64(rng.Intn(5))))
		}
		want := division.Divide(r1, r2)
		for _, impl := range []Implication{Goedel, Goguen, Lukasiewicz, KleeneDienes} {
			got := Divide(FromCrisp(r1), FromCrisp(r2), impl).Cut(1)
			if !got.Equal(want) {
				t.Fatalf("trial %d: crisp reduction failed\nr1:\n%v\nr2:\n%v\ngot:\n%v\nwant:\n%v",
					trial, r1, r2, got, want)
			}
		}
		if got := CrispDivide(r1, r2); !got.Equal(want) {
			t.Fatalf("CrispDivide diverged")
		}
	}
}

func TestGradedQuotient(t *testing.T) {
	// Supplier 1 fully supplies both divisor parts; supplier 2
	// supplies part 2 only weakly.
	r1 := NewRelation(schema.New("a", "b"))
	r1.Insert(tup(1, 1), 1.0)
	r1.Insert(tup(1, 2), 0.9)
	r1.Insert(tup(2, 1), 1.0)
	r1.Insert(tup(2, 2), 0.4)
	r2 := NewRelation(schema.New("b"))
	r2.Insert(tup(1), 1.0)
	r2.Insert(tup(2), 0.8)

	q := Divide(r1, r2, Goedel)
	// Supplier 1: impl(1,1)=1, impl(0.8,0.9)=1 → grade 1.
	if g := q.Grade(tup(1)); g != 1 {
		t.Errorf("supplier 1 grade = %g, want 1", g)
	}
	// Supplier 2: impl(1,1)=1, impl(0.8,0.4)=0.4 → grade 0.4.
	if g := q.Grade(tup(2)); g != 0.4 {
		t.Errorf("supplier 2 grade = %g, want 0.4", g)
	}

	// Goguen softens the failure: impl(0.8, 0.4) = 0.5.
	qg := Divide(r1, r2, Goguen)
	if g := qg.Grade(tup(2)); math.Abs(g-0.5) > 1e-12 {
		t.Errorf("Goguen supplier 2 grade = %g, want 0.5", g)
	}
	// Łukasiewicz: 1 − 0.8 + 0.4 = 0.6.
	ql := Divide(r1, r2, Lukasiewicz)
	if g := ql.Grade(tup(2)); math.Abs(g-0.6) > 1e-12 {
		t.Errorf("Lukasiewicz supplier 2 grade = %g, want 0.6", g)
	}
}

func TestOWAAllQuantifierEqualsMin(t *testing.T) {
	// Weights all on the last (smallest) value = strict "all".
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 50; trial++ {
		r1 := NewRelation(schema.New("a", "b"))
		for i := 0; i < 5+rng.Intn(20); i++ {
			r1.Insert(tup(int64(rng.Intn(4)), int64(rng.Intn(4))), rng.Float64())
		}
		r2 := NewRelation(schema.New("b"))
		n := 0
		for i := 0; i < 4 && n < 3; i++ {
			g := rng.Float64()
			before := r2.Len()
			r2.Insert(tup(int64(i)), g)
			if r2.Len() > before {
				n++
			}
		}
		if r2.Len() == 0 {
			continue
		}
		weights := make([]float64, r2.Len())
		weights[len(weights)-1] = 1
		minQ := Divide(r1, r2, Goedel)
		owaQ := OWADivide(r1, r2, Goedel, weights)
		minQ.Each(func(tp relation.Tuple, g float64) {
			if og := owaQ.Grade(tp); math.Abs(og-g) > 1e-9 {
				t.Fatalf("trial %d: OWA(min weights) %g vs min %g for %v", trial, og, g, tp)
			}
		})
	}
}

func TestOWAAlmostAllRelaxes(t *testing.T) {
	// A supplier missing one of four parts: strict division grades 0,
	// "almost all" grades it positively.
	r1 := NewRelation(schema.New("a", "b"))
	for b := int64(1); b <= 3; b++ {
		r1.Insert(tup(1, b), 1)
	}
	r2 := NewRelation(schema.New("b"))
	for b := int64(1); b <= 4; b++ {
		r2.Insert(tup(b), 1)
	}
	strict := Divide(r1, r2, Goedel)
	if g := strict.Grade(tup(1)); g != 0 {
		t.Fatalf("strict grade = %g, want 0", g)
	}
	weights := QuantifierWeights(AlmostAll(0.5), 4)
	relaxed := OWADivide(r1, r2, Goedel, weights)
	if g := relaxed.Grade(tup(1)); g <= 0 || g > 1 {
		t.Errorf("almost-all grade = %g, want in (0, 1]", g)
	}
}

func TestQuantifierWeights(t *testing.T) {
	w := QuantifierWeights(AlmostAll(0.5), 4)
	sum := 0.0
	for _, x := range w {
		if x < -1e-12 {
			t.Errorf("negative weight %g", x)
		}
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum to %g", sum)
	}
	// Monotone quantifier → later (smaller) positions get weight for
	// AlmostAll(0.5): first half zero.
	if w[0] != 0 {
		t.Errorf("w[0] = %g, want 0", w[0])
	}
}

func TestOWAValidation(t *testing.T) {
	r1 := NewRelation(schema.New("a", "b"))
	r1.Insert(tup(1, 1), 1)
	r2 := NewRelation(schema.New("b"))
	r2.Insert(tup(1), 1)
	for _, weights := range [][]float64{
		{0.5, 0.4},  // sums to 0.9
		{-0.5, 1.5}, // negative
		{0.5, 0.5},  // wrong arity vs 1 divisor tuple
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("weights %v should panic", weights)
				}
			}()
			OWADivide(r1, r2, Goedel, weights)
		}()
	}
}

func TestEmptyDivisorKeepsCandidates(t *testing.T) {
	r1 := NewRelation(schema.New("a", "b"))
	r1.Insert(tup(1, 1), 0.7)
	r2 := NewRelation(schema.New("b"))
	q := Divide(r1, r2, Goedel)
	if g := q.Grade(tup(1)); g != 0.7 {
		t.Errorf("empty-divisor grade = %g, want 0.7", g)
	}
}

func TestDivideMonotoneInImplication(t *testing.T) {
	// Kleene-Dienes ≥ Gödel pointwise when x > y … not in general;
	// instead check the quotient grade never exceeds the candidate's
	// own best grade (the cap invariant).
	rng := rand.New(rand.NewSource(35))
	for trial := 0; trial < 80; trial++ {
		r1 := NewRelation(schema.New("a", "b"))
		best := map[string]float64{}
		for i := 0; i < 4+rng.Intn(25); i++ {
			tpl := tup(int64(rng.Intn(4)), int64(rng.Intn(4)))
			g := rng.Float64()
			r1.Insert(tpl, g)
		}
		r1.Each(func(tp relation.Tuple, g float64) {
			k := tp[:1].Key()
			if g > best[k] {
				best[k] = g
			}
		})
		r2 := NewRelation(schema.New("b"))
		for i := 0; i < 1+rng.Intn(3); i++ {
			r2.Insert(tup(int64(rng.Intn(4))), rng.Float64())
		}
		for _, impl := range []Implication{Goedel, Goguen, Lukasiewicz, KleeneDienes} {
			q := Divide(r1, r2, impl)
			q.Each(func(tp relation.Tuple, g float64) {
				if g > best[tp.Key()]+1e-12 {
					t.Fatalf("grade %g exceeds candidate cap %g", g, best[tp.Key()])
				}
			})
		}
	}
}

// TestFuzzyDivideCollisions degrades every hash to 3 bits and checks
// the TupleIndex-based divide (minimum and OWA aggregation, several
// implications) against the string-keyed reference on random graded
// relations.
func TestFuzzyDivideCollisions(t *testing.T) {
	restore := hashkey.SetMaskForTesting(7)
	defer restore()
	rng := rand.New(rand.NewSource(55))
	impls := []Implication{Goedel, Goguen, Lukasiewicz, KleeneDienes}
	for trial := 0; trial < 40; trial++ {
		r1 := NewRelation(schema.New("a", "b"))
		for i := 0; i < rng.Intn(40); i++ {
			r1.Insert(relation.Tuple{
				value.Int(int64(rng.Intn(8))), value.Int(int64(rng.Intn(5))),
			}, float64(1+rng.Intn(10))/10)
		}
		r2 := NewRelation(schema.New("b"))
		for i := 0; i < rng.Intn(4); i++ {
			r2.Insert(relation.Tuple{value.Int(int64(rng.Intn(5)))}, float64(1+rng.Intn(10))/10)
		}
		split, err := division.SmallSplit(r1.Schema(), r2.Schema())
		if err != nil {
			t.Fatal(err)
		}
		impl := impls[trial%len(impls)]
		minAgg := func(vals []float64) float64 {
			m := 1.0
			for _, v := range vals {
				if v < m {
					m = v
				}
			}
			return m
		}
		got := Divide(r1, r2, impl)
		want := divideStringKeyed(r1, r2, split, minAgg, impl)
		if !sameFuzzy(got, want) {
			t.Fatalf("trial %d: masked fuzzy divide diverged", trial)
		}
		if r2.Len() > 0 {
			w := QuantifierWeights(AlmostAll(0.3), r2.Len())
			got := OWADivide(r1, r2, impl, w)
			want := divideStringKeyed(r1, r2, split, func(vals []float64) float64 {
				sorted := append([]float64(nil), vals...)
				sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
				total := 0.0
				for i, v := range sorted {
					total += w[i] * v
				}
				return total
			}, impl)
			if !sameFuzzy(got, want) {
				t.Fatalf("trial %d: masked OWA divide diverged", trial)
			}
		}
	}
}

// sameFuzzy compares two fuzzy relations as graded sets.
func sameFuzzy(a, b *Relation) bool {
	if a.Len() != b.Len() {
		return false
	}
	same := true
	a.Each(func(t relation.Tuple, g float64) {
		if math.Abs(b.Grade(t)-g) > 1e-12 {
			same = false
		}
	})
	return same
}

// divideStringKeyed is the string-keyed reference implementation of
// the shared divide machinery, retained as the collision-test
// oracle: candidate images in Go maps keyed on Tuple.Key strings.
func divideStringKeyed(r1, r2 *Relation, split division.Split, agg func([]float64) float64, impl Implication) *Relation {
	aPos := r1.sch.Positions(split.A.Attrs())
	bPos := r1.sch.Positions(split.B.Attrs())
	bOrder := r2.sch.Positions(split.B.Attrs())

	type candidate struct {
		a     relation.Tuple
		image map[string]float64
		best  float64
	}
	cands := make(map[string]*candidate)
	var order []string
	r1.Each(func(t relation.Tuple, g float64) {
		at := t.Project(aPos)
		k := at.Key()
		c, ok := cands[k]
		if !ok {
			c = &candidate{a: at, image: make(map[string]float64)}
			cands[k] = c
			order = append(order, k)
		}
		bk := t.Project(bPos).Key()
		if g > c.image[bk] {
			c.image[bk] = g
		}
		if g > c.best {
			c.best = g
		}
	})

	type divisorTuple struct {
		key   string
		grade float64
	}
	var divisor []divisorTuple
	r2.Each(func(t relation.Tuple, g float64) {
		divisor = append(divisor, divisorTuple{key: t.Project(bOrder).Key(), grade: g})
	})

	out := NewRelation(split.A)
	for _, k := range order {
		c := cands[k]
		if len(divisor) == 0 {
			out.Insert(c.a, c.best)
			continue
		}
		impls := make([]float64, len(divisor))
		for i, d := range divisor {
			impls[i] = impl(d.grade, c.image[d.key])
		}
		out.Insert(c.a, math.Min(agg(impls), c.best))
	}
	return out
}
