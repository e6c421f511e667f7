package exec

import (
	"context"

	"divlaws/internal/pred"
	"divlaws/internal/relation"
	"divlaws/internal/schema"
	"divlaws/internal/spill"
)

// rowBudgeter is the optional row-budget hint of the batch protocol: a
// bounded consumer (LimitIter, a fused top-k) arms its child with the
// number of rows it still needs before each NextBatch pull, and a
// budget-aware child emits a batch no larger than that instead of
// draining a full slab past the limit. The budget is a cap, not a
// promise — smaller batches stay legal — and it persists until
// re-armed, so an operator that re-pulls (a selective filter) keeps
// its own child bounded. A hint of n <= 0 clears the budget.
type rowBudgeter interface {
	SetRowBudget(n int64)
}

// setRowBudget arms x with a row budget when it understands the hint;
// budget-unaware operators are left alone (the consumer's own
// truncation still bounds what it emits, just not what the child
// produced).
func setRowBudget(x any, n int64) {
	if rb, ok := x.(rowBudgeter); ok {
		rb.SetRowBudget(n)
	}
}

// pull arms child with budget (0 clears it) and serves the tuples of
// its next batch, nil at end of stream. The slice is valid only until
// the following pull: it is the probe-side read of every streaming
// operator.
func pull(child Iterator, budget int64) ([]relation.Tuple, error) {
	setRowBudget(child, budget)
	b, err := child.NextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	return b.Tuples(), nil
}

// windowBatcher equips an operator holding (or receiving) tuple
// slices with zero-copy batch emission: window serves consecutive
// BatchSize-capped views over a results slice, adopt wraps a foreign
// slice (an exchange batch) as-is. The *relation.Batch comes from the
// shared free-list and is returned to it by release. It also carries
// the operator's row budget (see rowBudgeter), so every embedder is
// budget-aware: armed windows shrink to the budget.
type windowBatcher struct {
	// BatchSize caps emitted windows; 0 means relation.DefaultBatchCap.
	BatchSize int
	wb        *relation.Batch
	budget    int64
}

// SetRowBudget implements rowBudgeter for every embedder.
func (w *windowBatcher) SetRowBudget(n int64) {
	if n < 0 {
		n = 0
	}
	w.budget = n
}

// batchCap resolves the configured window capacity.
func (w *windowBatcher) batchCap() int {
	if w.BatchSize > 0 {
		return w.BatchSize
	}
	return relation.DefaultBatchCap
}

// effectiveCap is batchCap further bounded by the armed row budget.
func (w *windowBatcher) effectiveCap() int {
	c := w.batchCap()
	if w.budget > 0 && w.budget < int64(c) {
		c = int(w.budget)
	}
	return c
}

// window serves the next view of up to effectiveCap tuples of rows
// starting at *pos, advancing *pos; nil when rows are exhausted.
func (w *windowBatcher) window(rows []relation.Tuple, pos *int) *relation.Batch {
	if *pos >= len(rows) {
		return nil
	}
	end := *pos + w.effectiveCap()
	if end > len(rows) {
		end = len(rows)
	}
	b := w.adopt(rows[*pos:end])
	*pos = end
	return b
}

// adopt wraps ts as the emitted batch without copying.
func (w *windowBatcher) adopt(ts []relation.Tuple) *relation.Batch {
	if w.wb == nil {
		w.wb = relation.GetBatch(w.batchCap())
	}
	w.wb.SetTuples(ts)
	return w.wb
}

// outBatch returns the reusable owned output batch, reset and ready
// for Append — the emission mode of operators that build batches
// (joins, set ops) rather than windowing a materialized slice.
func (w *windowBatcher) outBatch() *relation.Batch {
	if w.wb == nil {
		w.wb = relation.GetBatch(w.batchCap())
	}
	w.wb.Reset()
	return w.wb
}

// release returns the batch to the free-list and disarms any budget;
// called from Close.
func (w *windowBatcher) release() {
	relation.PutBatch(w.wb)
	w.wb = nil
	w.budget = 0
}

// FromBatch adapts an Iterator to row-at-a-time consumption: Next
// serves tuples out of the current batch and pulls the next one on
// demand. It is the root CompileWith returns, and the only operator
// with a Next. It also passes the batch protocol straight through, so
// a drain above it consumes whole batches (any partially
// Next-consumed batch is served as a remainder window first).
type FromBatch struct {
	Input Iterator

	windowBatcher
	// out, when set, relabels the root: a rename chain at the top of
	// the plan compiles into it instead of into a pass-through node.
	out schema.Schema
	// tracker is a compile-owned memory budget, closed (removing its
	// temp files) after the pipeline on Close.
	tracker *spill.Tracker
	cur     []relation.Tuple
	pos     int
}

// Open implements Iterator.
func (f *FromBatch) Open(ctx context.Context) error {
	f.cur, f.pos = nil, 0
	return f.Input.Open(ctx)
}

// Next produces the next tuple; ok is false at end of stream.
func (f *FromBatch) Next() (relation.Tuple, bool, error) {
	for f.pos >= len(f.cur) {
		b, err := f.Input.NextBatch()
		if err != nil {
			return nil, false, err
		}
		if b == nil {
			return nil, false, nil
		}
		f.cur, f.pos = b.Tuples(), 0
	}
	t := f.cur[f.pos]
	f.pos++
	return t, true, nil
}

// SetRowBudget implements rowBudgeter: the hint bounds remainder
// windows and flows through to the child.
func (f *FromBatch) SetRowBudget(n int64) {
	f.windowBatcher.SetRowBudget(n)
	setRowBudget(f.Input, n)
}

// NextBatch implements Iterator: the remainder of a partially
// consumed batch first (budget-capped windows), then the child's
// batches untouched.
func (f *FromBatch) NextBatch() (*relation.Batch, error) {
	if f.pos < len(f.cur) {
		b := f.window(f.cur, &f.pos)
		if f.pos >= len(f.cur) {
			f.cur, f.pos = nil, 0
		}
		return b, nil
	}
	f.cur, f.pos = nil, 0
	return f.Input.NextBatch()
}

// Close implements Iterator: the pipeline first, then any
// compile-owned tracker.
func (f *FromBatch) Close() error {
	f.cur, f.pos = nil, 0
	f.release()
	err := f.Input.Close()
	if cerr := f.tracker.Close(); err == nil {
		err = cerr
	}
	return err
}

// Schema implements Iterator.
func (f *FromBatch) Schema() schema.Schema {
	if f.out.Len() > 0 {
		return f.out
	}
	return f.Input.Schema()
}

// FilterIter is the predicate filter: each input batch is filtered
// into a reused output batch, with per-batch (not per-tuple) interface
// costs. Empty results keep pulling, so consumers never see
// zero-length batches.
type FilterIter struct {
	Label string
	Input Iterator
	Pred  pred.Predicate
	Stats *Stats

	out    *relation.Batch
	open   bool
	budget int64
}

// Open implements Iterator.
func (f *FilterIter) Open(ctx context.Context) error {
	f.open = true
	return f.Input.Open(ctx)
}

// SetRowBudget implements rowBudgeter: each child pull is armed with
// the hint (a filter emits at most as many rows as it reads, so the
// child's bound is ours).
func (f *FilterIter) SetRowBudget(n int64) {
	if n < 0 {
		n = 0
	}
	f.budget = n
}

// NextBatch implements Iterator.
func (f *FilterIter) NextBatch() (*relation.Batch, error) {
	if !f.open {
		return nil, errNotOpen("FilterIter")
	}
	sch := f.Input.Schema()
	for {
		ts, err := pull(f.Input, f.budget)
		if err != nil || ts == nil {
			return nil, err
		}
		if f.out == nil {
			f.out = relation.GetBatch(len(ts))
		}
		f.out.Reset()
		for _, t := range ts {
			if f.Pred.Eval(t, sch) {
				f.out.Append(t)
			}
		}
		if n := f.out.Len(); n > 0 {
			f.Stats.count(f.Label, int64(n))
			return f.out, nil
		}
	}
}

// Close implements Iterator.
func (f *FilterIter) Close() error {
	f.open = false
	f.budget = 0
	relation.PutBatch(f.out)
	f.out = nil
	return f.Input.Close()
}

// Schema implements Iterator.
func (f *FilterIter) Schema() schema.Schema { return f.Input.Schema() }

// ProjectIter projects attributes and eliminates duplicates with a
// streaming first-seen TupleIndex (set semantics, exact under hash
// collisions); the projection is only materialized for tuples that
// survive the dedup. A projection onto the child's own attributes in
// order never reaches it: the compiler drops it.
type ProjectIter struct {
	Label string
	Input Iterator
	Attrs []string
	Stats *Stats

	pos    []int
	out    schema.Schema
	seen   *relation.TupleIndex
	ob     *relation.Batch
	budget int64
}

// Open implements Iterator.
func (p *ProjectIter) Open(ctx context.Context) error {
	p.out, p.pos = p.Input.Schema().Project(p.Attrs)
	p.seen = new(relation.TupleIndex)
	return p.Input.Open(ctx)
}

// SetRowBudget implements rowBudgeter: each child pull is armed with
// the hint (dedup only shrinks batches, so the child's bound is ours).
func (p *ProjectIter) SetRowBudget(n int64) {
	if n < 0 {
		n = 0
	}
	p.budget = n
}

// NextBatch implements Iterator.
func (p *ProjectIter) NextBatch() (*relation.Batch, error) {
	if p.seen == nil {
		return nil, errNotOpen("ProjectIter")
	}
	for {
		ts, err := pull(p.Input, p.budget)
		if err != nil || ts == nil {
			return nil, err
		}
		if p.ob == nil {
			p.ob = relation.GetBatch(len(ts))
		}
		p.ob.Reset()
		for _, t := range ts {
			if id, created := p.seen.IDProj(t, p.pos); created {
				p.ob.Append(p.seen.Key(id))
			}
		}
		if n := p.ob.Len(); n > 0 {
			p.Stats.count(p.Label, int64(n))
			return p.ob, nil
		}
	}
}

// Close implements Iterator.
func (p *ProjectIter) Close() error {
	p.seen = nil
	p.budget = 0
	relation.PutBatch(p.ob)
	p.ob = nil
	return p.Input.Close()
}

// Schema implements Iterator.
func (p *ProjectIter) Schema() schema.Schema {
	if p.out.Len() == 0 {
		p.out, p.pos = p.Input.Schema().Project(p.Attrs)
	}
	return p.out
}

// RenameIter is the pass-through node of a rename chain: batches
// flow untouched, and Out — the chain's final schema, fixed at compile
// time — is all it adds.
type RenameIter struct {
	Input Iterator
	Out   schema.Schema
}

// Open implements Iterator.
func (r *RenameIter) Open(ctx context.Context) error { return r.Input.Open(ctx) }

// SetRowBudget implements rowBudgeter; the hint flows through.
func (r *RenameIter) SetRowBudget(n int64) { setRowBudget(r.Input, n) }

// NextBatch implements Iterator.
func (r *RenameIter) NextBatch() (*relation.Batch, error) { return r.Input.NextBatch() }

// Close implements Iterator.
func (r *RenameIter) Close() error { return r.Input.Close() }

// Schema implements Iterator.
func (r *RenameIter) Schema() schema.Schema { return r.Out }
