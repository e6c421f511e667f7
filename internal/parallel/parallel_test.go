package parallel

import (
	"context"
	"math/rand"
	"testing"

	"divlaws/internal/datagen"
	"divlaws/internal/division"
	"divlaws/internal/relation"
	"divlaws/internal/schema"
	"divlaws/internal/value"
)

func TestParallelDivideMatchesSequential(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		r1, r2 := datagen.DividePair{
			Groups: 300, GroupSize: 6, DivisorSize: 6,
			Domain: 50, HitRate: 0.3, Seed: int64(workers),
		}.Generate()
		got := Divide(division.AlgoHash, r1, r2, workers)
		want := division.Divide(r1, r2)
		if !got.Equal(want) {
			t.Errorf("workers=%d: parallel divide diverged (%d vs %d rows)",
				workers, got.Len(), want.Len())
		}
	}
}

func TestParallelGreatDivideMatchesSequential(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		r1, r2 := datagen.GreatDividePair{
			Groups: 200, GroupSize: 6,
			DivisorGroups: 12, DivisorGroupSize: 4,
			Domain: 50, HitRate: 0.3, Seed: int64(workers),
		}.Generate()
		got := GreatDivide(division.GreatAlgoHash, r1, r2, workers)
		want := division.GreatDivide(r1, r2)
		if !got.EquivalentTo(want) {
			t.Errorf("workers=%d: parallel great divide diverged (%d vs %d rows)",
				workers, got.Len(), want.Len())
		}
	}
}

// TestParallelRandomizedProperty checks every registered algorithm,
// run in parallel over random inputs and worker counts, against the
// sequential reference division.
func TestParallelRandomizedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		r1 := relation.New(schema.New("a", "b"))
		for i := 0; i < rng.Intn(80); i++ {
			r1.Insert(relation.Tuple{
				value.Int(int64(rng.Intn(12))), value.Int(int64(rng.Intn(8))),
			})
		}
		r2 := relation.New(schema.New("b"))
		for i := 0; i < 1+rng.Intn(4); i++ {
			r2.Insert(relation.Tuple{value.Int(int64(rng.Intn(8)))})
		}
		r2g := relation.New(schema.New("b", "c"))
		for i := 0; i < 1+rng.Intn(10); i++ {
			r2g.Insert(relation.Tuple{
				value.Int(int64(rng.Intn(8))), value.Int(int64(rng.Intn(4))),
			})
		}
		workers := 1 + rng.Intn(6)
		want, wantGreat := division.Divide(r1, r2), division.GreatDivide(r1, r2g)
		for _, algo := range division.Algorithms() {
			if !Divide(algo, r1, r2, workers).Equal(want) {
				t.Fatalf("trial %d (%s, workers=%d): mismatch\nr1:\n%v\nr2:\n%v", trial, algo, workers, r1, r2)
			}
		}
		for _, algo := range division.GreatAlgorithms() {
			if !GreatDivide(algo, r1, r2g, workers).EquivalentTo(wantGreat) {
				t.Fatalf("trial %d (%s, workers=%d): great mismatch\nr1:\n%v\nr2:\n%v", trial, algo, workers, r1, r2g)
			}
		}
	}
}

func TestSmallInputsFallBack(t *testing.T) {
	r1 := relation.Ints([]string{"a", "b"}, [][]int64{{1, 1}})
	r2 := relation.Ints([]string{"b"}, [][]int64{{1}})
	if got := Divide(division.AlgoHash, r1, r2, 8); got.Len() != 1 {
		t.Errorf("tiny input divide = %v", got)
	}
	r2g := relation.Ints([]string{"b", "c"}, [][]int64{{1, 1}})
	if got := GreatDivide(division.GreatAlgoHash, r1, r2g, 8); got.Len() != 1 {
		t.Errorf("tiny input great divide = %v", got)
	}
}

func TestEmptyDividend(t *testing.T) {
	r1 := relation.New(schema.New("a", "b"))
	r2 := relation.Ints([]string{"b"}, [][]int64{{1}})
	if got := Divide(division.AlgoHash, r1, r2, 4); !got.Empty() {
		t.Errorf("empty dividend = %v", got)
	}
}

func TestDefaultWorkers(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Error("DefaultWorkers must be positive")
	}
	r1, r2 := datagen.DividePair{
		Groups: 100, GroupSize: 5, DivisorSize: 5, Domain: 40, HitRate: 0.3, Seed: 1,
	}.Generate()
	if !Divide(division.AlgoHash, r1, r2, 0).Equal(division.Divide(r1, r2)) {
		t.Error("workers=0 should use the default and stay correct")
	}
}

// TestPartitionByKeyDisjoint checks the one partitioning rule
// against both laws' premises: a dividend partitioned on A has
// pairwise-disjoint πA (c2 of Law 2), a great divisor partitioned on
// C pairwise-disjoint πC (Law 13), and no tuple is lost or duplicated.
func TestPartitionByKeyDisjoint(t *testing.T) {
	r1, r2 := datagen.DividePair{
		Groups: 200, GroupSize: 5, DivisorSize: 5, Domain: 40, HitRate: 0.3, Seed: 2,
	}.Generate()
	small, err := division.SmallSplit(r1.Schema(), r2.Schema())
	if err != nil {
		t.Fatal(err)
	}
	g1, g2 := datagen.GreatDividePair{
		Groups: 50, GroupSize: 4, DivisorGroups: 24, DivisorGroupSize: 4,
		Domain: 40, HitRate: 0.3, Seed: 2,
	}.Generate()
	great, err := division.GreatSplit(g1.Schema(), g2.Schema())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		r    *relation.Relation
		key  []string
	}{
		{"dividend-on-A", r1, small.A.Attrs()},
		{"divisor-on-C", g2, great.C.Attrs()},
	} {
		pos := tc.r.Schema().Positions(tc.key)
		parts := partition(tc.r, pos, 4)
		if len(parts) != 4 {
			t.Fatalf("%s: %d partitions, want 4", tc.name, len(parts))
		}
		owner := map[string]int{}
		total := 0
		for pi, p := range parts {
			total += p.Len()
			for _, tp := range p.Tuples() {
				k := tp.Project(pos).Key()
				if prev, ok := owner[k]; ok && prev != pi {
					t.Errorf("%s: key %q split across partitions %d and %d", tc.name, k, prev, pi)
				}
				owner[k] = pi
			}
		}
		if total != tc.r.Len() {
			t.Errorf("%s: partitions hold %d tuples, relation has %d", tc.name, total, tc.r.Len())
		}
		if len(owner) < 2 {
			t.Errorf("%s: only %d distinct keys, too few to exercise the partitioner", tc.name, len(owner))
		}
	}
}

func TestSchemaViolationsPanic(t *testing.T) {
	bad := relation.Ints([]string{"z"}, [][]int64{{1}})
	r1 := relation.Ints([]string{"a", "b"}, [][]int64{{1, 1}})
	for _, fn := range []func(){
		func() { Divide(division.AlgoHash, r1, bad, 2) },
		func() { GreatDivide(division.GreatAlgoHash, bad, bad, 2) },
		func() {
			DividePartsStream(context.Background(), division.AlgoHash, []*relation.Relation{r1}, bad, nil, 0, discard)
		},
		func() {
			GreatDividePartsStream(context.Background(), division.GreatAlgoHash, bad, []*relation.Relation{bad}, nil, 0, discard)
		},
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
