// Package exec is the physical execution engine: every operator is an
// Iterator that moves tuples in batches, and pipelines stream without
// materializing intermediate relations unless an operator is
// inherently blocking.
//
// The engine exists to make the paper's execution-level arguments
// measurable: hash-division consumes its dividend in one pass
// (Graefe), merge-group division preserves dividend grouping and
// pipelines quotient tuples out per group (the Law 1 discussion in
// §5.1.1), and the basic-algebra simulation of division materializes
// a quadratic intermediate (Leinders & Van den Bussche [25]), which
// the Stats counters expose.
//
// # Cancellation
//
// Open takes a context.Context which governs the whole life of the
// pipeline: blocking operators (hash builds, sorts, divisions,
// parallel exchanges) poll it every DefaultCheckEvery tuples while
// they drain their children, and the parallel division workers
// observe it mid-partition, so a cancelled context tears the pipeline
// down promptly instead of after the current blocking phase. The polling
// is deliberately batched rather than per-tuple: a ctx.Err() call per
// tuple costs a mutex acquisition in the hot loop, while the batched
// check is amortized to noise (see BenchmarkCancellationOverhead for
// the measurement that picked this design over per-tuple checks).
//
// # Batch execution
//
// Operators exchange reused relation.Batch slabs of up to
// CompileOptions.BatchSize tuples, so per-call interface costs and
// context bookkeeping are amortized across a whole batch. There is
// one operator surface; the only tuple-at-a-time code is FromBatch,
// the adapter CompileWith puts at the root for row-wise consumers. A
// bounded consumer (LIMIT, a fused top-k) arms its child with the rows
// it still needs, so LIMIT 1 reads one row (see rowBudgeter). Nodes
// that only relabel the schema cost nothing per row: a rename chain
// compiles to one pass-through node (or into the scan or root adapter
// below or above it), and a projection onto the child's own attribute
// order compiles to the child itself.
//
// Two per-row costs are attacked on top of that protocol, each with
// the structure measurement picked. Set-op and semijoin probes hash
// each incoming batch in one pass through the wide hash kernel
// (relation.Hash64ProjBatch over hashkey's word-at-a-time string
// mixer) and then walk the table with precomputed hashes; the hash
// join instead probes row-at-the-cursor through the fused
// TupleIndex.LookupProj — hash plus walk in one frame — because on
// its short-key, L1-hot probe loop a separate hash pass costs a
// write and a re-read per row that the fusion avoids. Emit paths
// (join, product, theta join) carve output tuples out of a
// per-iterator relation.Slab instead of calling make per
// concatenation; slab chunks are append-only and GC-owned, so
// emitted tuples stay valid for as long as any consumer holds them,
// and under a memory budget the live chunk is charged against the
// spill tracker (see relation.Slab for the lifetime and accounting
// rules).
package exec

import (
	"context"
	"fmt"
	"sync"

	"divlaws/internal/relation"
	"divlaws/internal/schema"
)

// Iterator is the physical operator interface.
//
// Protocol: Open before the first NextBatch; NextBatch returns nil at
// end of stream and never an empty batch; the returned batch is owned
// by the operator and valid only until the next NextBatch or Close
// (the tuples inside are immutable and may be retained). Close is
// idempotent.
type Iterator interface {
	// Open prepares the operator (allocating hash tables, opening
	// children) under the given context. Blocking operators honor ctx
	// cancellation while they consume their children; the context must
	// stay valid until Close.
	Open(ctx context.Context) error
	// NextBatch produces the next batch, nil at end of stream. The
	// batch is reused: it is valid only until the next call.
	NextBatch() (*relation.Batch, error)
	// Close releases resources. Close is idempotent and safe to call
	// mid-stream (after a context cancellation, for example).
	Close() error
	// Schema describes the produced tuples.
	Schema() schema.Schema
}

// DefaultCheckEvery is the interval, in tuples, of the cooperative
// context checks inside blocking drain loops.
const DefaultCheckEvery = 1024

// drain consumes child into sink a whole batch at a time, polling ctx
// at least every DefaultCheckEvery tuples. It is the shared inner loop
// of every blocking operator.
func drain(ctx context.Context, child Iterator, sink func(relation.Tuple)) error {
	return drainBatches(ctx, child, func(ts []relation.Tuple) error {
		for _, t := range ts {
			sink(t)
		}
		return nil
	})
}

// drainErr is drain with an erroring sink: the drain stops at the
// sink's first error and returns it.
func drainErr(ctx context.Context, child Iterator, sink func(relation.Tuple) error) error {
	return drainBatches(ctx, child, func(ts []relation.Tuple) error {
		for _, t := range ts {
			if err := sink(t); err != nil {
				return err
			}
		}
		return nil
	})
}

// drainBatches is the loop under drain: whole batches go to sink,
// with the cooperative context poll at batch boundaries (still at
// least every DefaultCheckEvery tuples).
func drainBatches(ctx context.Context, child Iterator, sink func([]relation.Tuple) error) error {
	n := 0
	for {
		b, err := child.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		if err := sink(b.Tuples()); err != nil {
			return err
		}
		if n += b.Len(); n >= DefaultCheckEvery {
			n = 0
			if err := ctx.Err(); err != nil {
				return err
			}
		}
	}
}

// Stats counts tuples emitted per operator label, making
// intermediate-result sizes observable (the quadratic-intermediate
// measurement of [25] relies on this). It is safe for concurrent use
// so parallel operators can share one collector across goroutines;
// read it with Get, Total, or Snapshot — never by reaching into the
// map while operators may still be running.
type Stats struct {
	mu      sync.Mutex
	emitted map[string]int64
}

// NewStats returns an empty Stats collector.
func NewStats() *Stats { return &Stats{emitted: make(map[string]int64)} }

// count records n tuples emitted by the labelled operator.
func (s *Stats) count(label string, n int64) {
	if s != nil {
		s.mu.Lock()
		s.emitted[label] += n
		s.mu.Unlock()
	}
}

// Get returns the tuple count recorded for one operator label.
func (s *Stats) Get(label string) int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.emitted[label]
}

// Snapshot returns a copy of the per-operator counts. It is the
// supported way to read the whole collector — safe even while
// parallel operators are still appending — and the representation
// behind the public QueryStats surface.
func (s *Stats) Snapshot() map[string]int64 {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64, len(s.emitted))
	for k, v := range s.emitted {
		out[k] = v
	}
	return out
}

// Total returns the total number of tuples emitted by all operators,
// the engine's measure of intermediate-result volume.
func (s *Stats) Total() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var t int64
	for _, n := range s.emitted {
		t += n
	}
	return t
}

// Run drains the iterator into a set-semantics relation.
func Run(ctx context.Context, it Iterator) (*relation.Relation, error) {
	if err := it.Open(ctx); err != nil {
		return nil, err
	}
	defer it.Close()
	out := relation.New(it.Schema())
	if err := drain(ctx, it, func(t relation.Tuple) { out.Insert(t) }); err != nil {
		return nil, err
	}
	return out, nil
}

// Drain consumes the iterator, returning only the tuple count; used
// by benchmarks that do not need the result.
func Drain(ctx context.Context, it Iterator) (int64, error) {
	if err := it.Open(ctx); err != nil {
		return 0, err
	}
	defer it.Close()
	var n int64
	err := drainBatches(ctx, it, func(ts []relation.Tuple) error {
		n += int64(len(ts))
		return nil
	})
	return n, err
}

// errNotOpen guards against protocol misuse.
func errNotOpen(op string) error { return fmt.Errorf("exec: %s.NextBatch before Open", op) }
