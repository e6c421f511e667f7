package parallel

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"divlaws/internal/division"
	"divlaws/internal/relation"
)

// countdownCtx is a context.Context whose Err starts reporting
// context.Canceled after a fixed number of Err calls (counted across
// goroutines). It makes "cancelled mid-run" deterministic: workers
// polling it are guaranteed to observe cancellation partway through
// their partitions, with no timing dependence.
type countdownCtx struct {
	remaining atomic.Int64
}

func newCountdownCtx(calls int64) *countdownCtx {
	c := &countdownCtx{}
	c.remaining.Store(calls)
	return c
}

func (c *countdownCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countdownCtx) Done() <-chan struct{}       { return nil }
func (c *countdownCtx) Value(any) any               { return nil }
func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// bigDividePair builds a dividend large enough that every partition
// spans many DefaultCheckEvery poll intervals.
func bigDividePair() (r1, r2 *relation.Relation) {
	groups := 64
	per := 40 * DefaultCheckEvery / groups
	rows := make([][]int64, 0, groups*per)
	for a := 0; a < groups; a++ {
		for b := 0; b < per; b++ {
			rows = append(rows, []int64{int64(a), int64(b)})
		}
	}
	r1 = relation.Ints([]string{"a", "b"}, rows)
	r2 = relation.Ints([]string{"b"}, [][]int64{{1}, {2}, {3}})
	return r1, r2
}

// bigGreatDividePair builds a great divide whose divisor has groups
// to split and whose replicated dividend is long enough for every
// worker to poll repeatedly.
func bigGreatDividePair() (r1, r2 *relation.Relation) {
	n := 8 * DefaultCheckEvery
	rows := make([][]int64, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, []int64{int64(i / 16), int64(i % 64)}) // all distinct
	}
	r1 = relation.Ints([]string{"a", "b"}, rows)
	var divisorRows [][]int64
	for g := int64(0); g < 16; g++ {
		for b := int64(0); b < 8; b++ {
			divisorRows = append(divisorRows, []int64{b, g})
		}
	}
	return r1, relation.Ints([]string{"b", "c"}, divisorRows)
}

// discard is an EmitFunc that accepts and drops every batch.
func discard(int, []relation.Tuple) error { return nil }

func TestDividePartsStreamStopsWorkersMidPartition(t *testing.T) {
	r1, r2 := bigDividePair()
	parts := partition(r1, []int{0}, 4)
	// Enough Err calls to get all workers started, far fewer than a
	// full run would make: cancellation lands mid-partition.
	ctx := newCountdownCtx(8)
	if err := DividePartsStream(ctx, division.AlgoHash, parts, r2, nil, 0, discard); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestPartsStreamPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r1, r2 := bigDividePair()
	if err := DividePartsStream(ctx, division.AlgoHash, partition(r1, []int{0}, 4), r2, nil, 0, discard); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	g1, g2 := bigGreatDividePair()
	if err := GreatDividePartsStream(ctx, division.GreatAlgoHash, g1, partition(g2, []int{1}, 4), nil, 0, discard); err != context.Canceled {
		t.Fatalf("great err = %v, want context.Canceled", err)
	}
}

func TestGreatDividePartsStreamStopsWorkersMidPartition(t *testing.T) {
	r1, r2 := bigGreatDividePair()
	ctx := newCountdownCtx(8)
	if err := GreatDividePartsStream(ctx, division.GreatAlgoHash, r1, partition(r2, []int{1}, 4), nil, 0, discard); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestPartitionedCtxMatchesSequentialWhenUncancelled(t *testing.T) {
	r1, r2 := bigDividePair()
	want := division.Divide(r1, r2)
	// Non-default algorithms run whole partitions per poll but must
	// still agree.
	for _, algo := range []division.Algorithm{division.AlgoHash, division.AlgoMaier} {
		var mu sync.Mutex
		merged := relation.New(want.Schema())
		err := DividePartsStream(context.Background(), algo, partition(r1, []int{0}, 4), r2, nil, 0,
			func(_ int, batch []relation.Tuple) error {
				mu.Lock()
				defer mu.Unlock()
				for _, tp := range batch {
					merged.Insert(tp)
				}
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if !merged.Equal(want) {
			t.Errorf("%s: partitioned division diverges: %d vs %d rows", algo, merged.Len(), want.Len())
		}
	}
}
