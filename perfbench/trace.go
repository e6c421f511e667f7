package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"divlaws/internal/exec"
	"divlaws/internal/laws"
	"divlaws/internal/optimizer"
	"divlaws/internal/plan"
	"divlaws/internal/spill"
	"divlaws/internal/sql"
)

// span is one timed step of one query. Parent indexes the span that
// caused it, -1 for a root; spans of one query share Query.
type span struct {
	Name   string `json:"name"`
	Query  int64  `json:"query"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory; they are written once, at the end
// of the run. A nil tracer records nothing.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	queries int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newQuery returns a fresh query id; 0 from a nil tracer.
func (t *tracer) newQuery() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.queries++
	return t.queries
}

func (t *tracer) begin(name string, qid int64, parent int32) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Query: qid, Parent: parent, Start: now})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durationsMS groups span durations by name.
func durationsMS(spans []span) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1e6)
	}
	return out
}

func sum(xs []float64) float64 { return mean(xs) * float64(len(xs)) }

// selfTimesMS sums, per span name, each span's duration minus the
// part of its interval that its children cover.
func selfTimesMS(spans []span) map[string]float64 {
	children := map[int32][][2]int64{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]float64{}
	for i, s := range spans {
		iv := children[int32(i)]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, reach := int64(0), s.Start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.Name] += float64(s.End-s.Start-covered) / 1e6
	}
	return out
}

// writeSpans stores the spans and their per-name self times as JSON.
func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(struct {
		SelfMS map[string]float64 `json:"self_ms"`
		Spans  []span             `json:"spans"`
	}{selfTimesMS(spans), spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// replica replays a query through each layer's own calls, in the
// order and with the options of divlaws.DB.Query: parse, parameter
// substitution, bind with NOT EXISTS detection, optimization with
// the always-safe laws and the workload's parallelism, compile under
// its memory budget, open, drain and close.
type replica struct {
	db       *sql.DB
	parallel optimizer.ParallelOptions
	memLimit int64
	spillDir string
}

func newReplica(w *workload, ds *dataset, spillDir string) *replica {
	db := sql.NewDB()
	db.Register("supplies", ds.supRel)
	db.Register("parts", ds.partRel)
	limit := w.memLimit
	if limit == 0 {
		limit = -1
	}
	return &replica{
		db:       db,
		parallel: optimizer.ParallelOptions{Workers: w.workers, Threshold: optimizer.DefaultParallelThreshold},
		memLimit: limit,
		spillDir: spillDir,
	}
}

// layerRecord is what the traced replica measured for one query.
type layerRecord struct {
	q            query
	detected     bool
	rulesFired   int
	parallelized int
	estRows      float64
	ex           execResult
	// unrewrittenMS is the exec time of the same bound plan without
	// law rewrites (divide_where_* classes only).
	unrewrittenMS float64
	// sequentialMS is the exec time of the workers=1 plan, for
	// queries the optimizer parallelized.
	sequentialMS float64
	err          error
}

// execResult is one compiled plan run to the end.
type execResult struct {
	ms    float64 // compile through close
	rows  int64
	moved int64 // Stats.Total: tuples moved by all operators
	skew  float64
	spill spill.Stats
	err   error
}

func (r *replica) run(ctx context.Context, q query, ref *reference, tr *tracer, qid int64, corrupt bool) layerRecord {
	rec := layerRecord{q: q}
	root := tr.begin("divlaws.query", qid, -1)
	sp := tr.begin("sql.parse", qid, root)
	parsed, err := sql.Parse(q.cls.sql)
	tr.end(sp)
	if err != nil {
		tr.end(root)
		rec.err = err
		return rec
	}
	sp = tr.begin("sql.params", qid, root)
	bound, err := sql.SubstituteParams(parsed, argValues(q.args))
	tr.end(sp)
	if err != nil {
		tr.end(root)
		rec.err = err
		return rec
	}
	sp = tr.begin("sql.bind", qid, root)
	node, detected, err := r.db.PlanQueryWithDetection(bound)
	tr.end(sp)
	if err != nil {
		tr.end(root)
		rec.err = err
		return rec
	}
	rec.detected = detected
	sp = tr.begin("optimizer.optimize", qid, root)
	res := optimizer.Optimize(node, optimizer.Options{Parallel: r.parallel})
	tr.end(sp)
	rec.ex = r.exec(ctx, res.Plan, ref, corrupt, tr, qid, root)
	tr.end(root)
	rec.err = rec.ex.err
	rec.rulesFired = len(res.Trace)
	for _, a := range res.Trace {
		if strings.HasPrefix(a.Rule, "Parallelize(") {
			rec.parallelized++
		}
	}
	rec.estRows = optimizer.Rows(res.Plan)
	if rec.err != nil {
		return rec
	}

	// Off the traced path: the same query without the law rewrites,
	// and without parallelism, for the speedup ratios.
	if q.cls == clsWhereColor || q.cls == clsWhereSupplier {
		un := optimizer.Optimize(node, optimizer.Options{Rules: []laws.Rule{}, Parallel: r.parallel})
		x := r.exec(ctx, un.Plan, ref, false, nil, qid, -1)
		rec.unrewrittenMS, rec.err = x.ms, x.err
	}
	if rec.parallelized > 0 && rec.err == nil {
		seq := optimizer.Optimize(node, optimizer.Options{})
		x := r.exec(ctx, seq.Plan, ref, false, nil, qid, -1)
		rec.sequentialMS, rec.err = x.ms, x.err
	}
	return rec
}

// exec compiles, opens, drains and closes one plan, checking its rows
// against the reference.
func (r *replica) exec(ctx context.Context, node plan.Node, ref *reference, corrupt bool, tr *tracer, qid int64, parent int32) execResult {
	var x execResult
	start := time.Now()

	sp := tr.begin("exec.compile", qid, parent)
	stats := exec.NewStats()
	opts := exec.CompileOptions{MemoryLimit: r.memLimit}
	if lim := opts.EffectiveMemoryLimit(); lim > 0 {
		opts.Spill = spill.NewTracker(lim)
	}
	it := exec.CompileWith(node, stats, opts)
	tr.end(sp)

	qctx, cancel := context.WithCancel(ctx)
	defer cancel()
	sp = tr.begin("exec.open", qid, parent)
	err := it.Open(qctx)
	tr.end(sp)

	check := newChecker(ref, corrupt)
	if err == nil {
		sp = tr.begin("exec.drain", qid, parent)
		row := make([]any, node.Schema().Len())
		for {
			t, ok, nerr := it.Next()
			if nerr != nil || !ok {
				err = nerr
				break
			}
			for i, v := range t {
				row[i] = v.Native()
			}
			check.add(row)
		}
		tr.end(sp)
	}
	sp = tr.begin("exec.close", qid, parent)
	if cerr := it.Close(); cerr != nil && err == nil {
		err = cerr
	}
	x.spill = opts.Spill.Snapshot()
	opts.Spill.Close()
	tr.end(sp)

	x.ms = ms(time.Since(start))
	x.rows, x.moved, x.skew = check.d.n, stats.Total(), partitionSkew(stats.Snapshot())
	switch {
	case err != nil:
		x.err = err
	case check.verify() != nil:
		x.err = check.verify()
	case r.spillDir != "" && opts.Spill != nil:
		x.err = checkSpill(x.spill.Peak, x.spill.Limit, r.spillDir)
	}
	return x
}

// partitionSkew is, over the parallel operators of one query, the
// largest max/mean ratio of rows emitted across an operator's
// "…/partN" partitions; 0 when nothing ran partitioned.
func partitionSkew(emitted map[string]int64) float64 {
	parts := map[string][]float64{}
	for label, n := range emitted {
		if i := strings.LastIndex(label, "/part"); i >= 0 {
			parts[label[:i]] = append(parts[label[:i]], float64(n))
		}
	}
	var skew float64
	for _, rows := range parts {
		if m := mean(rows); m > 0 {
			skew = math.Max(skew, quantile(rows, 1)/m)
		}
	}
	return skew
}
