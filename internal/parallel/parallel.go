// Package parallel runs the intra-operator parallel divisions the
// paper derives from its laws, one worker goroutine per partition:
//
//   - Law 2 with precondition c2 (§5.1.1): split the dividend into
//     partitions whose πA projections are pairwise disjoint, divide
//     each against the whole divisor, and union the quotients. The
//     paper's "two parallel index scans" over key ranges are one such
//     partitioning; hashing on the quotient attributes A is another.
//
//   - Law 13 (§5.2.1): replicate the dividend, split the divisor into
//     partitions whose πC projections are pairwise disjoint,
//     great-divide the dividend by each, and union the quotients.
//
// One partitioning rule serves both: Partitioner hashes each tuple's
// key projection (A of a dividend, C of a great divisor), so tuples
// sharing a key land in one partition and the laws' premises hold by
// construction. The streaming exchange in internal/exec partitions
// its inputs while it drains them and hands the partitions to
// DividePartsStream or GreatDividePartsStream; Divide and GreatDivide
// partition materialized relations the same way, for the reference
// evaluator and tests.
package parallel

import (
	"context"
	"runtime"
	"sync"

	"divlaws/internal/division"
	"divlaws/internal/relation"
	"divlaws/internal/schema"
)

// DefaultCheckEvery is the interval, in dividend tuples, of the
// cooperative context polls inside partition workers.
const DefaultCheckEvery = 1024

// DefaultWorkers is used when a worker count of 0 is given.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// EmitBatchSize is the number of quotient tuples a partition worker
// accumulates before handing them downstream in one EmitFunc call.
// Batching amortizes the consumer's per-delivery costs (a channel
// send with a cancellation select, stats accounting) to noise
// without hurting first-row latency: a batch fills during the
// in-memory result scan, microseconds after the partition resolves.
const EmitBatchSize = 64

// EmitFunc receives streamed quotient tuples from partition workers
// in batches of up to the stream's batch size (the final batch of a
// partition may be shorter). part identifies the emitting partition;
// batches of one partition arrive in order, but different partitions
// emit concurrently (one goroutine each), so implementations must be
// safe for concurrent use. The batch slice is owned by the receiver.
// Returning an error stops the emitting worker; the first error is
// reported by the stream call.
type EmitFunc func(part int, batch []relation.Tuple) error

// partitionGate, when non-nil, is called by every partition worker
// just before it starts dividing its partition. It exists only for
// tests, which block chosen partitions to prove that streaming
// consumers observe other partitions' quotients first.
var partitionGate func(part int)

// SetPartitionGateForTesting installs a hook called by each partition
// worker (with its partition index) before any division work, and
// returns a function restoring the previous hook. Tests use it to
// stall selected partitions deterministically; not for concurrent use
// with other tests mutating the gate.
func SetPartitionGateForTesting(fn func(part int)) (restore func()) {
	old := partitionGate
	partitionGate = fn
	return func() { partitionGate = old }
}

// partitionChunk is the number of tuples a Partitioner hashes per
// Hash64ProjBatch pass.
const partitionChunk = 256

// Partitioner routes tuples to one of N partitions by the hash of
// their projection on Pos. Hashes are computed chunk-at-a-time: Add
// buffers tuples until a chunk fills, one Hash64ProjBatch pass hashes
// the whole chunk, and Emit receives each (tuple, partition) pair in
// arrival order. Flush after the last Add pushes out the final
// partial chunk.
type Partitioner struct {
	Pos  []int
	N    int
	Emit func(t relation.Tuple, part int) error

	buf    []relation.Tuple
	hashes []uint64
}

// Add routes one tuple, possibly after buffering it.
func (p *Partitioner) Add(t relation.Tuple) error {
	p.buf = append(p.buf, t)
	if len(p.buf) >= partitionChunk {
		return p.Flush()
	}
	return nil
}

// Flush routes every buffered tuple; Emit's first error stops it.
func (p *Partitioner) Flush() error {
	if len(p.buf) == 0 {
		return nil
	}
	p.hashes = relation.Hash64ProjBatch(p.buf, p.Pos, p.hashes[:0])
	for i, t := range p.buf {
		if err := p.Emit(t, int(p.hashes[i]%uint64(p.N))); err != nil {
			p.buf = p.buf[:0]
			return err
		}
	}
	p.buf = p.buf[:0]
	return nil
}

// partition splits r into n hash partitions on pos (DefaultWorkers
// when n <= 0); a single partition is r itself.
func partition(r *relation.Relation, pos []int, n int) []*relation.Relation {
	if n <= 0 {
		n = DefaultWorkers()
	}
	if n == 1 {
		return []*relation.Relation{r}
	}
	parts := make([]*relation.Relation, n)
	for i := range parts {
		parts[i] = relation.New(r.Schema())
	}
	p := Partitioner{Pos: pos, N: n, Emit: func(t relation.Tuple, i int) error {
		parts[i].InsertOwned(t)
		return nil
	}}
	for _, t := range r.Tuples() {
		p.Add(t)
	}
	p.Flush()
	return parts
}

// Divide computes r1 ÷ r2 with the dividend hash-partitioned on the
// quotient attributes A across workers goroutines (Law 2 under c2),
// each partition divided with algo. Schema violations panic, as the
// sequential operators do.
//
// Note the paper's own proviso (§5.2.1, symmetric for Law 2): the
// speedup materializes only when the per-partition division is
// "considerably more expensive than the final union/merge operator";
// for the linear, memory-bound hash operator the partition and merge
// overhead can dominate — a costlier algorithm (or a real multi-node
// engine) shows the n-fold win.
func Divide(algo division.Algorithm, r1, r2 *relation.Relation, workers int) *relation.Relation {
	split, err := division.SmallSplit(r1.Schema(), r2.Schema())
	if err != nil {
		panic(err)
	}
	parts := partition(r1, r1.Schema().Positions(split.A.Attrs()), workers)
	return collect(split.A, len(parts), func(emit EmitFunc) error {
		return DividePartsStream(context.Background(), algo, parts, r2, nil, 0, emit)
	})
}

// GreatDivide computes r1 ÷* r2 with the divisor hash-partitioned on
// its group attributes C across workers goroutines (Law 13), each
// partition great-divided with algo. Schema violations panic.
func GreatDivide(algo division.Algorithm, r1, r2 *relation.Relation, workers int) *relation.Relation {
	split, err := division.GreatSplit(r1.Schema(), r2.Schema())
	if err != nil {
		panic(err)
	}
	parts := partition(r2, r2.Schema().Positions(split.C.Attrs()), workers)
	return collect(split.A.Concat(split.C), len(parts), func(emit EmitFunc) error {
		return GreatDividePartsStream(context.Background(), algo, r1, parts, nil, 0, emit)
	})
}

// collect materializes an n-partition stream in partition order. The
// partitions' quotients are disjoint, so their union is the quotient.
func collect(sch schema.Schema, n int, stream func(EmitFunc) error) *relation.Relation {
	runs := make([][]relation.Tuple, n)
	// Each worker appends only to its own run. Under a background
	// context with an accepting sink the stream cannot fail.
	_ = stream(func(part int, batch []relation.Tuple) error {
		runs[part] = append(runs[part], batch...)
		return nil
	})
	out := relation.New(sch)
	for _, run := range runs {
		for _, t := range run {
			out.InsertOwned(t)
		}
	}
	return out
}

// DividePartsStream divides each dividend partition against the shared
// divisor r2, one worker per non-empty partition (numbered densely in
// order), streaming each partition's quotient tuples to emit as soon
// as that partition resolves. The partitions' πA projections must be
// pairwise disjoint (c2), as a Partitioner on A makes them. A non-nil
// bound caps each worker's emission at its K smallest quotient
// tuples; batch is the emission batch size, 0 meaning EmitBatchSize.
// It returns after every worker has finished; the first error
// observed (context cancellation or an emit rejection) stops the
// fan-out and is returned. Schema violations panic.
func DividePartsStream(ctx context.Context, algo division.Algorithm, parts []*relation.Relation, r2 *relation.Relation, bound *TopKBound, batch int, emit EmitFunc) error {
	return streamParts(ctx, parts, bound, batch, emit, func(ctx context.Context, p *relation.Relation, sink tupleSink) error {
		return dividePart(ctx, false, algo, p, r2, sink)
	})
}

// GreatDividePartsStream great-divides the shared dividend r1 by each
// divisor partition; see DividePartsStream. The partitions' πC
// projections must be pairwise disjoint (Law 13's premise), as a
// Partitioner on C makes them.
func GreatDividePartsStream(ctx context.Context, algo division.Algorithm, r1 *relation.Relation, parts []*relation.Relation, bound *TopKBound, batch int, emit EmitFunc) error {
	return streamParts(ctx, parts, bound, batch, emit, func(ctx context.Context, p *relation.Relation, sink tupleSink) error {
		return dividePart(ctx, true, algo, r1, p, sink)
	})
}

// streamParts runs work over each non-empty partition in its own
// worker, behind a per-worker sink. An empty partition has an empty
// quotient under both laws, so it gets no worker.
func streamParts(ctx context.Context, parts []*relation.Relation, bound *TopKBound, batch int, emit EmitFunc,
	work func(ctx context.Context, p *relation.Relation, sink tupleSink) error) error {
	if bound != nil {
		if err := bound.validate(); err != nil {
			return err
		}
	}
	if batch <= 0 {
		batch = EmitBatchSize
	}
	var live []*relation.Relation
	for _, p := range parts {
		if !p.Empty() {
			live = append(live, p)
		}
	}
	return runWorkers(ctx, len(live), func(ctx context.Context, i int) error {
		sink := partSink(ctx, i, bound, batch, emit)
		if err := work(ctx, live[i], sink); err != nil {
			return err
		}
		return sink.flush()
	})
}

// runWorkers spawns one goroutine per partition, waits for all of
// them, and returns the first error.
func runWorkers(ctx context.Context, n int, work func(ctx context.Context, i int) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if n == 1 {
		if gate := partitionGate; gate != nil {
			gate(0)
		}
		return work(ctx, 0)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if gate := partitionGate; gate != nil {
				gate(i)
			}
			errs[i] = work(ctx, i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// divisionState is the incremental feeding protocol shared by
// division.DivideState and division.GreatDivideState; the streaming
// states are the single source of the hash algorithms, the workers
// only add the ctx polls around the feed and the emission.
type divisionState interface {
	AddDivisor(relation.Tuple)
	AddDividend(relation.Tuple)
	EachResult(func(relation.Tuple) error) error
}

// dividePart divides r1 by r2 (great-divides when great) into sink.
// The hash algorithm streams through the incremental division state,
// polling ctx every DefaultCheckEvery dividend tuples; the other
// algorithms are opaque relational computations, so they poll only
// before starting and while emitting.
func dividePart(ctx context.Context, great bool, algo division.Algorithm, r1, r2 *relation.Relation, sink tupleSink) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	// division.AlgoHash and division.GreatAlgoHash are the same name.
	if algo != division.AlgoHash {
		opaque := division.DivideWith
		if great {
			opaque = division.GreatDivideWith
		}
		for _, t := range opaque(algo, r1, r2).Tuples() {
			if err := sink.add(t); err != nil {
				return err
			}
		}
		return nil
	}
	var st divisionState
	var err error
	if great {
		st, err = division.NewGreatDivideState(r1.Schema(), r2.Schema())
	} else {
		st, err = division.NewDivideState(r1.Schema(), r2.Schema())
	}
	if err != nil {
		panic(err) // parity with the sequential operators' schema panic
	}
	for _, t := range r2.Tuples() {
		st.AddDivisor(t)
	}
	n := 0
	for _, t := range r1.Tuples() {
		if n++; n >= DefaultCheckEvery {
			n = 0
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		st.AddDividend(t)
	}
	return st.EachResult(sink.add)
}

// batcher accumulates one partition's quotient tuples and flushes
// them downstream every `size` tuples, polling ctx at each flush so
// emission loops observe cancellation even when the sink itself
// cannot block on it.
type batcher struct {
	ctx  context.Context
	part int
	size int
	emit EmitFunc
	buf  []relation.Tuple
}

// add buffers one tuple, flushing a full batch.
func (b *batcher) add(t relation.Tuple) error {
	if b.buf == nil {
		b.buf = make([]relation.Tuple, 0, b.size)
	}
	b.buf = append(b.buf, t)
	if len(b.buf) >= b.size {
		return b.flush()
	}
	return nil
}

// flush hands the pending batch (if any) downstream; it must be
// called once more after the last add.
func (b *batcher) flush() error {
	if len(b.buf) == 0 {
		return nil
	}
	if err := b.ctx.Err(); err != nil {
		return err
	}
	batch := b.buf
	b.buf = nil
	return b.emit(b.part, batch)
}

// tupleSink absorbs one partition's quotient tuples; flush must be
// called once more after the final add. batcher is the plain
// streaming sink, topkSink the bounded order-aware one.
type tupleSink interface {
	add(relation.Tuple) error
	flush() error
}

// partSink builds the sink for one partition worker: a plain batcher,
// or a k-bounded heap when a top-k bound is pushed down.
func partSink(ctx context.Context, part int, bound *TopKBound, batch int, emit EmitFunc) tupleSink {
	out := &batcher{ctx: ctx, part: part, size: batch, emit: emit}
	if bound == nil {
		return out
	}
	return &topkSink{ctx: ctx, heap: relation.NewTopKHeap(bound.K, bound.Cmp), out: out}
}
