package exec

import (
	"context"

	"divlaws/internal/relation"
	"divlaws/internal/schema"
)

// LimitIter passes through the first N tuples of its input and ends
// the stream, closing the child the moment the N-th tuple surfaces —
// not when the parent eventually calls Close — so blocking and
// streaming subtrees stop working immediately. Over a parallel
// exchange this is the early-exit pushdown: reaching the limit
// cancels the exchange and every partition worker mid-stream, and the
// rest of the quotient is never computed. A limit of zero never opens
// the child at all. Before every pull it arms the child with the
// remaining row budget (see rowBudgeter), so a budget-aware subtree
// produces exactly the rows the limit still needs instead of draining
// a full slab past it: LIMIT 1 reads one row.
type LimitIter struct {
	Label string
	Input Iterator
	N     int64
	Stats *Stats

	windowBatcher
	seen    int64
	opened  bool
	stopped bool  // child released early, before Close
	stopErr error // error from the early child Close, reported once
}

// Open implements Iterator.
func (l *LimitIter) Open(ctx context.Context) error {
	l.seen = 0
	l.stopped = l.N <= 0
	l.stopErr = nil
	if !l.stopped {
		if err := l.Input.Open(ctx); err != nil {
			return err
		}
	}
	l.opened = true
	return nil
}

// NextBatch implements Iterator.
func (l *LimitIter) NextBatch() (*relation.Batch, error) {
	if !l.opened {
		return nil, errNotOpen("LimitIter")
	}
	if l.stopped || l.seen >= l.N {
		// Report an early-teardown error once, at end of stream —
		// never in place of the valid final batch.
		err := l.stopErr
		l.stopErr = nil
		return nil, err
	}
	ts, err := pull(l.Input, l.N-l.seen)
	if err != nil || ts == nil {
		return nil, err
	}
	if rem := l.N - l.seen; int64(len(ts)) > rem {
		ts = ts[:rem]
	}
	l.seen += int64(len(ts))
	l.Stats.count(l.Label, int64(len(ts)))
	if l.seen < l.N {
		return l.adopt(ts), nil
	}
	// Limit reached: release the subtree now. Close is idempotent, so
	// the parent's eventual Close stays harmless. A teardown error
	// surfaces on the next call (or from Close), never in place of the
	// batch the consumer asked for. Closing the child recycles the slab
	// behind ts, so the final batch is copied, not adopted.
	if l.wb == nil {
		l.wb = relation.GetBatch(len(ts))
	}
	l.wb.Reset()
	for _, t := range ts {
		l.wb.Append(t)
	}
	l.stopped = true
	l.stopErr = l.Input.Close()
	return l.wb, nil
}

// Close implements Iterator.
func (l *LimitIter) Close() error {
	l.opened = false
	l.release()
	err := l.Input.Close()
	if err == nil {
		err = l.stopErr
	}
	l.stopErr = nil
	return err
}

// Schema implements Iterator.
func (l *LimitIter) Schema() schema.Schema { return l.Input.Schema() }
