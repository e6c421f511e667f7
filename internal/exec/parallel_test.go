package exec

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"divlaws/internal/datagen"
	"divlaws/internal/division"
	"divlaws/internal/plan"
	"divlaws/internal/relation"
	"divlaws/internal/schema"
	"divlaws/internal/spill"
	"divlaws/internal/value"
)

func TestParallelDivideIterMatchesSequential(t *testing.T) {
	r1, r2 := datagen.DividePair{
		Groups: 200, GroupSize: 5, DivisorSize: 6,
		Domain: 50, HitRate: 0.3, Seed: 3,
	}.Generate()
	want := division.Divide(r1, r2)
	for _, algo := range division.Algorithms() {
		for _, workers := range []int{0, 1, 2, 4, 8} {
			node := &plan.ParallelDivide{
				Dividend: plan.NewScan("r1", r1),
				Divisor:  plan.NewScan("r2", r2),
				Algo:     algo, Workers: workers,
			}
			got, err := Run(context.Background(), Compile(node, NewStats()))
			if err != nil {
				t.Fatalf("%s/workers=%d: %v", algo, workers, err)
			}
			if !got.Equal(want) {
				t.Errorf("%s/workers=%d: diverged (%d vs %d rows)", algo, workers, got.Len(), want.Len())
			}
		}
	}
}

func TestParallelDivideIterGreatMatchesSequential(t *testing.T) {
	r1, r2 := datagen.GreatDividePair{
		Groups: 150, GroupSize: 5,
		DivisorGroups: 12, DivisorGroupSize: 4,
		Domain: 50, HitRate: 0.3, Seed: 3,
	}.Generate()
	want := division.GreatDivide(r1, r2)
	for _, algo := range division.GreatAlgorithms() {
		for _, workers := range []int{0, 1, 2, 4, 8} {
			node := &plan.ParallelGreatDivide{
				Dividend: plan.NewScan("r1", r1),
				Divisor:  plan.NewScan("r2", r2),
				Algo:     algo, Workers: workers,
			}
			got, err := Run(context.Background(), Compile(node, NewStats()))
			if err != nil {
				t.Fatalf("%s/workers=%d: %v", algo, workers, err)
			}
			if !got.EquivalentTo(want) {
				t.Errorf("%s/workers=%d: diverged (%d vs %d rows)", algo, workers, got.Len(), want.Len())
			}
		}
	}
}

// TestParallelDivideIterProperty drives random inputs, algorithms,
// and worker counts through the compiled iterator and checks set
// equality against the sequential reference.
func TestParallelDivideIterProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	algos := division.Algorithms()
	for trial := 0; trial < 50; trial++ {
		r1 := relation.New(schema.New("a", "b"))
		for i := 0; i < rng.Intn(120); i++ {
			r1.Insert(relation.Tuple{
				value.Int(int64(rng.Intn(15))), value.Int(int64(rng.Intn(9))),
			})
		}
		r2 := relation.New(schema.New("b"))
		for i := 0; i < 1+rng.Intn(5); i++ {
			r2.Insert(relation.Tuple{value.Int(int64(rng.Intn(9)))})
		}
		algo := algos[rng.Intn(len(algos))]
		workers := 1 + rng.Intn(8)
		node := &plan.ParallelDivide{
			Dividend: plan.NewScan("r1", r1),
			Divisor:  plan.NewScan("r2", r2),
			Algo:     algo, Workers: workers,
		}
		got, err := Run(context.Background(), Compile(node, NewStats()))
		if err != nil {
			t.Fatalf("trial %d (%s, workers=%d): %v", trial, algo, workers, err)
		}
		want := division.DivideWith(algo, r1, r2)
		if !got.Equal(want) {
			t.Fatalf("trial %d (%s, workers=%d): %d vs %d rows\nr1:\n%v\nr2:\n%v",
				trial, algo, workers, got.Len(), want.Len(), r1, r2)
		}
	}
}

// TestParallelDivideIterPartitionStats checks that the exchange
// operator records per-partition quotient sizes that sum to the
// merged output.
func TestParallelDivideIterPartitionStats(t *testing.T) {
	r1, r2 := datagen.DividePair{
		Groups: 100, GroupSize: 4, DivisorSize: 5,
		Domain: 40, HitRate: 0.5, Seed: 7,
	}.Generate()
	stats := NewStats()
	node := &plan.ParallelDivide{
		Dividend: plan.NewScan("r1", r1),
		Divisor:  plan.NewScan("r2", r2),
		Workers:  4,
	}
	got, err := Run(context.Background(), Compile(node, stats))
	if err != nil {
		t.Fatal(err)
	}
	var partTotal int64
	var parts int
	for label, n := range stats.Snapshot() {
		if strings.Contains(label, "/part") {
			partTotal += n
			parts++
		}
	}
	if parts < 2 {
		t.Fatalf("expected multiple partitions in stats, got %d: %v", parts, stats.Snapshot())
	}
	if partTotal != int64(got.Len()) {
		t.Errorf("partition outputs sum to %d, merged quotient has %d rows", partTotal, got.Len())
	}
}

// TestExchangeOnePathWithOrWithoutBudget pins that the exchange has
// one code path: with a nil tracker and under a budget that never
// refuses, the same plan returns the same rows and records the same
// per-operator and per-partition Stats, for the small and great
// divide, plain and fused with a top-k, on 1–4 workers.
func TestExchangeOnePathWithOrWithoutBudget(t *testing.T) {
	r1, r2 := datagen.DividePair{
		Groups: 300, GroupSize: 4, DivisorSize: 4,
		Domain: 40, HitRate: 0.6, Seed: 4,
	}.Generate()
	g1, g2 := datagen.GreatDividePair{
		Groups: 150, GroupSize: 5, DivisorGroups: 12, DivisorGroupSize: 3,
		Domain: 40, HitRate: 0.4, Seed: 4,
	}.Generate()
	topk := func(in plan.Node) plan.Node {
		keys := []plan.SortKey{{Attr: in.Schema().Attrs()[0], Desc: true}}
		return &plan.TopK{Input: in, Keys: keys, K: 7}
	}
	for workers := 1; workers <= 4; workers++ {
		small := &plan.ParallelDivide{Dividend: plan.NewScan("r1", r1), Divisor: plan.NewScan("r2", r2), Workers: workers}
		great := &plan.ParallelGreatDivide{Dividend: plan.NewScan("g1", g1), Divisor: plan.NewScan("g2", g2), Workers: workers}
		for _, tc := range []struct {
			name    string
			node    plan.Node
			ordered bool
		}{
			{"small", small, false},
			{"great", great, false},
			{"topk-small", topk(small), true},
			{"topk-great", topk(great), true},
		} {
			name := fmt.Sprintf("%s/workers=%d", tc.name, workers)
			run := func(opts CompileOptions) ([]relation.Tuple, map[string]int64) {
				stats := NewStats()
				rows := drainBatchSeq(t, CompileWith(tc.node, stats, opts))
				if !tc.ordered {
					slices.SortFunc(rows, relation.Tuple.Compare)
				}
				return rows, stats.Snapshot()
			}
			tr := spill.NewTracker(1 << 40)
			gotRows, gotStats := run(CompileOptions{Spill: tr})
			wantRows, wantStats := run(CompileOptions{MemoryLimit: -1})
			if st := tr.Snapshot(); st.Peak == 0 || st.Runs != 0 || st.Used != 0 {
				t.Fatalf("%s: budget accounting %+v, want charges, no spill, all released", name, st)
			}
			tr.Close()
			if len(gotRows) != len(wantRows) {
				t.Fatalf("%s: %d rows under the budget, %d without", name, len(gotRows), len(wantRows))
			}
			for i := range gotRows {
				if !gotRows[i].Equal(wantRows[i]) {
					t.Fatalf("%s: row %d = %v under the budget, %v without", name, i, gotRows[i], wantRows[i])
				}
			}
			if !maps.Equal(gotStats, wantStats) {
				t.Errorf("%s: stats differ\nbudget: %v\nnone:   %v", name, gotStats, wantStats)
			}
			parts := 0
			for label := range wantStats {
				if strings.Contains(label, "/part") {
					parts++
				}
			}
			if workers > 1 && parts < 2 {
				t.Errorf("%s: %d partitions in stats %v, want several", name, parts, wantStats)
			}
		}
	}
}

// TestStatsConcurrent hammers one Stats collector from many
// goroutines; run with -race to validate the locking.
func TestStatsConcurrent(t *testing.T) {
	s := NewStats()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			label := fmt.Sprintf("op%d", g%3)
			for i := 0; i < 1000; i++ {
				s.count(label, 1)
				_ = s.Total()
				_ = s.Get(label)
			}
		}(g)
	}
	wg.Wait()
	if s.Total() != 8000 {
		t.Errorf("Total = %d, want 8000", s.Total())
	}
}

// TestSharedStatsAcrossConcurrentIterators runs two compiled plans
// concurrently against one Stats collector, the situation the mutex
// exists for; meaningful under -race.
func TestSharedStatsAcrossConcurrentIterators(t *testing.T) {
	r1, r2 := datagen.DividePair{
		Groups: 150, GroupSize: 5, DivisorSize: 6,
		Domain: 50, HitRate: 0.3, Seed: 5,
	}.Generate()
	stats := NewStats()
	want := division.Divide(r1, r2)
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			node := &plan.ParallelDivide{
				Dividend: plan.NewScan("r1", r1),
				Divisor:  plan.NewScan("r2", r2),
				Workers:  4,
			}
			got, err := Run(context.Background(), Compile(node, stats))
			if err != nil {
				errs[i] = err
				return
			}
			if !got.Equal(want) {
				errs[i] = fmt.Errorf("run %d diverged", i)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
