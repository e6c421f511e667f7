package exec

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"divlaws/internal/division"
	"divlaws/internal/hashkey"
	"divlaws/internal/plan"
	"divlaws/internal/pred"
	"divlaws/internal/relation"
	"divlaws/internal/schema"
)

// These tests pin the engine against the reference evaluator
// plan.Eval: every plan shape is compiled at several batch sizes and
// compared row for row — ordered plans by sequence, unordered ones by
// set equality. Both drain styles are exercised: tuple-at-a-time
// through the FromBatch root's Next, and batch-at-a-time through
// NextBatch.

// drainSeq collects the full output sequence through the root
// adapter's Next.
func drainSeq(t *testing.T, it *FromBatch) []relation.Tuple {
	t.Helper()
	if err := it.Open(context.Background()); err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer it.Close()
	var out []relation.Tuple
	for {
		tup, ok, err := it.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if !ok {
			return out
		}
		out = append(out, tup)
	}
}

// drainBatchSeq collects the full output sequence through NextBatch,
// copying each batch before the next call (the ownership contract:
// a batch is valid only until the producer's next call).
func drainBatchSeq(t *testing.T, b Iterator) []relation.Tuple {
	t.Helper()
	if err := b.Open(context.Background()); err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer b.Close()
	var out []relation.Tuple
	for {
		batch, err := b.NextBatch()
		if err != nil {
			t.Fatalf("NextBatch: %v", err)
		}
		if batch == nil {
			return out
		}
		if batch.Len() == 0 {
			t.Fatal("NextBatch returned an empty non-nil batch")
		}
		for _, tup := range batch.Tuples() {
			if tup == nil {
				t.Fatal("NextBatch returned a batch containing a nil tuple")
			}
			out = append(out, tup)
		}
	}
}

// evalMismatch compares got, an output sequence under schema sch, with
// plan.Eval of node: the same sequence for ordered plans, the same set
// otherwise. A Limit over an unordered input may keep any N rows, so
// there the check is the row count and membership in the input's
// result. It returns "" on agreement, else what diverged.
func evalMismatch(node plan.Node, ordered bool, sch schema.Schema, got []relation.Tuple) string {
	lim, isLimit := node.(*plan.Limit)
	ref := node
	if isLimit {
		ref = lim.Input
	}
	want := plan.Eval(ref)
	if !sch.Equal(want.Schema()) {
		return fmt.Sprintf("schema %v, want %v", sch, want.Schema())
	}
	seen := make(map[string]bool, len(got))
	for _, tup := range got {
		if seen[tup.Key()] {
			return fmt.Sprintf("duplicate row %v", tup)
		}
		seen[tup.Key()] = true
	}
	gotKeys := seqKeys(got)
	if isLimit {
		if n := min(lim.N, int64(want.Len())); int64(len(got)) != n {
			return fmt.Sprintf("%d rows, want %d", len(got), n)
		}
		for _, tup := range got {
			if !want.Contains(tup) {
				return fmt.Sprintf("row %v is not in the limited input", tup)
			}
		}
		return ""
	}
	wantKeys := seqKeys(want.Tuples())
	if ordered && !sameSeq(gotKeys, wantKeys) {
		return fmt.Sprintf("sequence diverges\ngot  %v\nwant %v", gotKeys, wantKeys)
	}
	if !ordered && sortedKeys(gotKeys) != sortedKeys(wantKeys) {
		return fmt.Sprintf("set diverges\ngot  %v\nwant %v", gotKeys, wantKeys)
	}
	return ""
}

func seqKeys(ts []relation.Tuple) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.Key()
	}
	return out
}

func sameSeq(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// equivPlans is the operator matrix: one entry per physical operator
// — the streaming trio, the blocking emitters, the exchanges and the
// probe-side operators (joins, set ops, products, merge division) —
// plus mixed trees crossing build/probe boundaries (division over a
// join, set ops feeding divisions) and the schema-only nodes the
// compiler elides (rename chains, identity projections).
func equivPlans(rng *rand.Rand) []struct {
	name    string
	node    plan.Node
	ordered bool
} {
	return equivPlansGen(rng, randRelation)
}

// equivPlansGen is equivPlans over an arbitrary relation generator,
// so the sweeps can run the same matrix with string-keyed inputs
// (randWideRelation) against the wide hash kernels.
func equivPlansGen(rng *rand.Rand, gen func(*rand.Rand, []string, int, int) *relation.Relation) []struct {
	name    string
	node    plan.Node
	ordered bool
} {
	r1 := plan.NewScan("r1", gen(rng, []string{"a", "b"}, 5+rng.Intn(60), 6))
	r2 := plan.NewScan("r2", gen(rng, []string{"b"}, 1+rng.Intn(4), 6))
	r2g := plan.NewScan("r2g", gen(rng, []string{"b", "c"}, 1+rng.Intn(8), 6))
	u := plan.NewScan("u", gen(rng, []string{"a", "b"}, 5+rng.Intn(40), 6))
	rc := plan.NewScan("rc", gen(rng, []string{"c"}, rng.Intn(5), 6))
	p := pred.Compare(pred.Attr("a"), pred.Gt, pred.ConstInt(int64(rng.Intn(6))))
	div := &plan.Divide{Dividend: r1, Divisor: r2}
	join := &plan.Join{Left: r1, Right: r2g}
	keysA := []plan.SortKey{{Attr: "a"}, {Attr: "b", Desc: true}}
	return []struct {
		name    string
		node    plan.Node
		ordered bool
	}{
		{"scan", r1, false},
		{"filter", &plan.Select{Input: r1, Pred: p}, false},
		{"project", &plan.Project{Input: r1, Attrs: []string{"a"}}, false},
		{"rename", &plan.Rename{Input: r1, From: "a", To: "x"}, false},
		{"rename-chain-over-join", &plan.Rename{
			Input: &plan.Rename{Input: join, From: "c", To: "y"}, From: "a", To: "x",
		}, false},
		{"identity-project-over-divide", &plan.Project{Input: div, Attrs: []string{"a"}}, false},
		{"rename-over-identity-project", &plan.Rename{
			Input: &plan.Project{Input: &plan.Rename{Input: r1, From: "b", To: "y"}, Attrs: []string{"a", "y"}},
			From:  "a", To: "x",
		}, false},
		{"limit", &plan.Limit{Input: r1, N: int64(rng.Intn(12))}, false},
		{"divide", div, false},
		{"greatdivide", &plan.GreatDivide{Dividend: r1, Divisor: r2g}, false},
		{"group", &plan.Group{Input: r1, By: []string{"a"}}, false},
		{"sort", &plan.Sort{Input: r1, Keys: keysA}, true},
		{"topk", &plan.TopK{Input: r1, Keys: keysA, K: int64(1 + rng.Intn(10))}, true},
		{"paralleldivide", &plan.ParallelDivide{Dividend: r1, Divisor: r2, Workers: 3}, false},
		{"parallelgreatdivide", &plan.ParallelGreatDivide{Dividend: r1, Divisor: r2g, Workers: 3}, false},
		{"topk-over-parallel", &plan.TopK{
			Input: &plan.ParallelDivide{Dividend: r1, Divisor: r2, Workers: 3},
			Keys:  []plan.SortKey{{Attr: "a"}}, K: 3,
		}, true},
		{"pipeline-over-divide", &plan.Limit{
			Input: &plan.Project{Input: &plan.Select{Input: div, Pred: p}, Attrs: []string{"a"}},
			N:     int64(1 + rng.Intn(6)),
		}, false},
		// The probe-side operators.
		{"union", plan.Union(r1, u), false},
		{"intersect", plan.Intersect(r1, u), false},
		{"diff", plan.Diff(r1, u), false},
		{"join", join, false},
		{"join-degenerate-product", &plan.Join{Left: r2, Right: rc}, false},
		{"product", &plan.Product{Left: r1, Right: rc}, false},
		{"thetajoin", &plan.ThetaJoin{
			Left: r1, Right: rc,
			Pred: pred.Compare(pred.Attr("a"), pred.Lt, pred.Attr("c")),
		}, false},
		{"semijoin", &plan.SemiJoin{Left: r1, Right: r2g}, false},
		{"antisemijoin", &plan.AntiSemiJoin{Left: r1, Right: r2g}, false},
		{"mergedivide", &plan.Divide{Dividend: r1, Divisor: r2, Algo: division.AlgoMergeSort}, false},
		// Mixed trees: probe pipelines feeding and fed by divisions.
		{"divide-over-join", &plan.Divide{Dividend: join, Divisor: r2}, false},
		{"divide-over-union", &plan.Divide{Dividend: plan.Union(r1, u), Divisor: r2}, false},
		{"mergedivide-over-union", &plan.Divide{
			Dividend: plan.Union(r1, u), Divisor: r2, Algo: division.AlgoMergeSort,
		}, false},
		{"limit-over-join", &plan.Limit{Input: join, N: int64(1 + rng.Intn(8))}, false},
		{"filter-over-union", &plan.Select{Input: plan.Union(r1, u), Pred: p}, false},
		{"sort-over-union", &plan.Sort{Input: plan.Union(r1, u), Keys: keysA}, true},
		{"project-over-semijoin", &plan.Project{
			Input: &plan.SemiJoin{Left: r1, Right: r2g}, Attrs: []string{"a"},
		}, false},
	}
}

// TestBatchMatchesEval is the per-operator equivalence sweep: for
// every plan shape, the engine must produce exactly what plan.Eval
// produces — the same sequence for ordered plans, the same set
// otherwise — through both drain styles, across batch sizes chosen to
// hit window boundaries (1, a prime smaller than most outputs, and
// the default).
func TestBatchMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 25; trial++ {
		for _, c := range equivPlans(rng) {
			for _, size := range []int{1, 7, 64} {
				opts := CompileOptions{BatchSize: size}
				it := CompileWith(c.node, nil, opts)
				if msg := evalMismatch(c.node, c.ordered, it.Schema(), drainSeq(t, it)); msg != "" {
					t.Fatalf("trial %d %s (size %d, Next): %s", trial, c.name, size, msg)
				}
				it = CompileWith(c.node, nil, opts)
				if msg := evalMismatch(c.node, c.ordered, it.Schema(), drainBatchSeq(t, it)); msg != "" {
					t.Fatalf("trial %d %s (size %d, NextBatch): %s", trial, c.name, size, msg)
				}
			}
		}
	}
}

// TestBatchMatchesEvalUnderForcedCollisions repeats the sweep with
// 3-bit hashes, so every hash-table probe in the batch drains and the
// projection dedup runs its collision-verification logic.
func TestBatchMatchesEvalUnderForcedCollisions(t *testing.T) {
	restore := hashkey.SetMaskForTesting(0x7)
	defer restore()
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 15; trial++ {
		// Alternate kinds: even trials probe with single-mix integer
		// hashes, odd trials with the wide string kernel.
		plans := equivPlans(rng)
		if trial%2 == 1 {
			plans = equivPlansGen(rng, randWideRelation)
		}
		for _, c := range plans {
			it := CompileWith(c.node, nil, CompileOptions{BatchSize: 3})
			if msg := evalMismatch(c.node, c.ordered, it.Schema(), drainSeq(t, it)); msg != "" {
				t.Fatalf("trial %d %s under collisions: %s", trial, c.name, msg)
			}
		}
	}
}

// rootLabel is the Stats label of the operator under the root
// adapter; renames and identity projections at the top of a plan
// compile to no operator, so it is always a labelled one.
func rootLabel(t *testing.T, it *FromBatch) string {
	t.Helper()
	f := reflect.ValueOf(it.Input).Elem().FieldByName("Label")
	if !f.IsValid() {
		t.Fatalf("root operator %T has no Stats label", it.Input)
	}
	return f.String()
}

// TestBatchStatsParity: on Limit-free plans (where no row budget is
// armed), the per-operator tuple counts do not depend on the batch
// size, and the root operator's count is the result's cardinality.
func TestBatchStatsParity(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 10; trial++ {
		for _, c := range equivPlans(rng) {
			if _, ok := c.node.(*plan.Limit); ok {
				continue
			}
			var want map[string]int64
			for _, size := range []int{1, 7, 64} {
				stats := NewStats()
				it := CompileWith(c.node, stats, CompileOptions{BatchSize: size})
				drainSeq(t, it)
				got := stats.Snapshot()
				if n, card := got[rootLabel(t, it)], int64(plan.Eval(c.node).Len()); n != card {
					t.Errorf("trial %d %s (size %d): root emitted %d tuples, result has %d",
						trial, c.name, size, n, card)
				}
				if want == nil {
					want = got
					continue
				}
				if len(got) != len(want) {
					t.Fatalf("trial %d %s: label sets diverge across batch sizes:\nsize %d %v\nsize 1 %v",
						trial, c.name, size, got, want)
				}
				for label, n := range want {
					if got[label] != n {
						t.Errorf("trial %d %s: stats[%q] = %d at size %d, %d at size 1",
							trial, c.name, label, got[label], size, n)
					}
				}
			}
		}
	}
}

// TestBatchMixedNextThenBatch pins the root adapter's shared cursor:
// consuming a few tuples via Next and then switching to NextBatch
// continues from the same cursor without loss or repeats.
func TestBatchMixedNextThenBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	rel := randRelation(rng, []string{"a", "b"}, 100, 25)
	node := plan.NewScan("r", rel)
	want := seqKeys(plan.Eval(node).Tuples())

	it := CompileWith(node, nil, CompileOptions{BatchSize: 8})
	if err := it.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var got []string
	for i := 0; i < 5; i++ {
		tup, ok, err := it.Next()
		if err != nil || !ok {
			t.Fatalf("Next %d = (%t, %v)", i, ok, err)
		}
		got = append(got, tup.Key())
	}
	for {
		batch, err := it.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if batch == nil {
			break
		}
		got = append(got, seqKeys(batch.Tuples())...)
	}
	if !sameSeq(got, want) {
		t.Fatalf("mixed Next/NextBatch lost or repeated tuples:\ngot  %v\nwant %v", got, want)
	}
}

// TestBatchGoroutineLeaks mirrors TestExchangeGoroutineLeaks for a
// consumer that drives NextBatch instead of Next: the exchange workers
// behind a parallel division must die on every teardown path.
func TestBatchGoroutineLeaks(t *testing.T) {
	node, _ := streamFixture()
	opts := CompileOptions{ExchangeBuffer: 2}

	openBatchRoot := func(t *testing.T, ctx context.Context) Iterator {
		t.Helper()
		b := CompileWith(node, nil, opts)
		if err := b.Open(ctx); err != nil {
			t.Fatal(err)
		}
		return b
	}

	t.Run("CloseMidStream", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		b := openBatchRoot(t, context.Background())
		for i := 0; i < 3; i++ {
			if batch, err := b.NextBatch(); err != nil || batch == nil {
				t.Fatalf("NextBatch %d = (%v, %v)", i, batch, err)
			}
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, baseline)
	})

	t.Run("CancelMidBatch", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		b := openBatchRoot(t, ctx)
		if batch, err := b.NextBatch(); err != nil || batch == nil {
			t.Fatalf("NextBatch = (%v, %v)", batch, err)
		}
		cancel()
		// Drain to the cancellation error or end of stream; the
		// workers must die either way.
		for {
			batch, err := b.NextBatch()
			if err != nil || batch == nil {
				break
			}
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, baseline)
	})

	t.Run("JoinOverExchangeCloseMidStream", func(t *testing.T) {
		// A hash join probing a batch exchange natively: Close after the
		// first probe batch must kill the workers even though the join's
		// feed still holds a retained exchange window.
		baseline := runtime.NumGoroutine()
		rng := rand.New(rand.NewSource(61))
		join := &plan.Join{Left: node, Right: plan.NewScan("w", randRelation(rng, []string{"a", "c"}, 120, 50))}
		b := CompileWith(join, nil, opts)
		if err := b.Open(context.Background()); err != nil {
			t.Fatal(err)
		}
		if batch, err := b.NextBatch(); err != nil || batch == nil {
			t.Fatalf("NextBatch = (%v, %v), want a first batch of join matches", batch, err)
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, baseline)
	})

	t.Run("LimitOverBatchExchange", func(t *testing.T) {
		// The LIMIT early-exit above a batch exchange: the limit closes
		// the subtree after the first batch; no workers may survive,
		// and the served batch must stay intact past the child Close.
		baseline := runtime.NumGoroutine()
		lim := &plan.Limit{Input: node, N: 1}
		b := CompileWith(lim, nil, opts)
		if err := b.Open(context.Background()); err != nil {
			t.Fatal(err)
		}
		batch, err := b.NextBatch()
		if err != nil || batch == nil || batch.Len() != 1 {
			t.Fatalf("NextBatch = (%v, %v), want one surviving tuple", batch, err)
		}
		if batch.Tuple(0) == nil {
			t.Fatal("limit served a recycled (nil) tuple after closing its child")
		}
		if batch, err := b.NextBatch(); err != nil || batch != nil {
			t.Fatalf("second NextBatch = (%v, %v), want end of stream", batch, err)
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, baseline)
	})
}

// TestBatchLimitNoOvershoot pins the row-budget protocol: LIMIT must
// not drain a full slab past the limit. With budgets threaded through
// NextBatch, the child serves a partial window and stops at row N — the
// consumption of a tuple-at-a-time pipeline.
func TestBatchLimitNoOvershoot(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	scan := plan.NewScan("r", randRelation(rng, []string{"a", "b"}, 200, 50))

	t.Run("LimitOneReadsOneRow", func(t *testing.T) {
		for _, size := range []int{1, 7, 0} {
			stats := NewStats()
			out := drainSeq(t, CompileWith(&plan.Limit{Input: scan, N: 1}, stats,
				CompileOptions{BatchSize: size}))
			if len(out) != 1 {
				t.Fatalf("size %d: LIMIT 1 returned %d tuples", size, len(out))
			}
			if n := stats.Get("root.0/scan(r)"); n != 1 {
				t.Errorf("size %d: scan emitted %d rows under LIMIT 1, want exactly 1", size, n)
			}
		}
	})

	t.Run("LimitNOverScanReadsNRows", func(t *testing.T) {
		stats := NewStats()
		out := drainSeq(t, CompileWith(&plan.Limit{Input: scan, N: 5}, stats, CompileOptions{}))
		if len(out) != 5 {
			t.Fatalf("LIMIT 5 returned %d tuples", len(out))
		}
		if n := stats.Get("root.0/scan(r)"); n != 5 {
			t.Errorf("scan emitted %d rows under LIMIT 5, want exactly 5", n)
		}
	})

	t.Run("StatsMatchTuplePathUnderLimitOne", func(t *testing.T) {
		// With a budget of 1 every window is one row, so each operator
		// reads exactly what a tuple-at-a-time pipeline would — even
		// through a selective filter, where larger budgets may
		// legitimately overscan inside the final window: the scan stops
		// at the first qualifying row.
		p := pred.Compare(pred.Attr("a"), pred.Gt, pred.ConstInt(30))
		node := &plan.Limit{Input: &plan.Select{Input: scan, Pred: p}, N: 1}
		read := int64(0)
		for _, tup := range scan.Rel.Tuples() {
			read++
			if p.Eval(tup, scan.Rel.Schema()) {
				break
			}
		}
		want := map[string]int64{"root.0.0/scan(r)": read, "root.0/filter": 1, "root/limit": 1}
		for _, size := range []int{1, 7, 64} {
			stats := NewStats()
			drainSeq(t, CompileWith(node, stats, CompileOptions{BatchSize: size}))
			got := stats.Snapshot()
			if len(got) != len(want) {
				t.Fatalf("size %d: stats %v, want %v", size, got, want)
			}
			for label, n := range want {
				if got[label] != n {
					t.Errorf("size %d: stats[%q] = %d, want %d", size, label, got[label], n)
				}
			}
		}
	})

	t.Run("BatchDrainServesTruncatedBatch", func(t *testing.T) {
		// The raw NextBatch surface under LIMIT 1: one single-tuple
		// batch, then end of stream — not a truncated 64-row slab.
		stats := NewStats()
		out := drainBatchSeq(t, CompileWith(&plan.Limit{Input: scan, N: 1}, stats, CompileOptions{}))
		if len(out) != 1 {
			t.Fatalf("NextBatch drain of LIMIT 1 yielded %d tuples", len(out))
		}
		if n := stats.Get("root.0/scan(r)"); n != 1 {
			t.Errorf("scan emitted %d rows under batch-drained LIMIT 1, want exactly 1", n)
		}
	})
}
