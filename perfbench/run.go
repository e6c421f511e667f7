package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"divlaws"
	"divlaws/internal/server"
)

const (
	// A run sets the engine up at least minSetups times and for at
	// least minSetupSeconds in all; setup_s is the median.
	minSetups       = 5
	minSetupSeconds = 1.0
	// warmupSeconds of checked, untimed queries precede measurement.
	warmupSeconds = 1.0
)

// run sets the workload up, builds its reference, warms up and
// measures either the end-to-end metrics or the traced split.
func run(ctx context.Context, cfg config) (*report, error) {
	w := cfg.w
	ds := generate(w.suppliers, cfg.seed)
	rep := &report{values: map[string]float64{}}
	rep.linef("perfbench: workload=%s seed=%d suppliers=%d supplies_rows=%d parts=%d colors=%d workers=%d memory_limit=%d seconds=%g trace=%t",
		w.name, cfg.seed, w.suppliers, len(ds.supRows), len(ds.partRows), len(ds.colors), w.workers, w.memLimit, cfg.seconds, cfg.trace)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var e *engine
	var setups []float64
	for len(setups) < minSetups || sum(setups) < minSetupSeconds {
		if e != nil {
			e.close()
			e = nil
			runtime.GC()
		}
		start := time.Now()
		var err error
		if e, err = setup(w, ds, tr); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer e.close()
	rep.values["setup_s"] = median(setups)

	o, err := buildQuotient(ds)
	if err != nil {
		return nil, err
	}
	p := drawPools(rand.New(rand.NewSource(cfg.seed)), ds, o.suppliers)
	if err := o.build(ds, p.all(w.classes)); err != nil {
		return nil, err
	}
	if err := checkDetection(ctx, e.db, w); err != nil {
		return nil, err
	}
	rep.linef("reference: %d (class, arguments) pairs, Q1 has %d rows; colours %v, suppliers %v",
		len(o.refs), len(o.quotient), p.colors, p.suppliers)

	sequenceFor := func() *sequence { return newSequence(cfg.seed, p, w) }
	warm := newSequence(cfg.seed+1, p, w)
	if w.serve {
		outs, _, _ := openLoop(ctx, e, warm, o.refs, w, int(warmupSeconds*w.rate), cfg.corrupt, nil)
		rep.count(outs)
	} else {
		start := time.Now()
		for time.Since(start).Seconds() < warmupSeconds {
			q := warm.next()
			rep.count([]outcome{queryEmbedded(ctx, e.db, q, o.refs[q.key], cfg.corrupt, spillDirFor(w, cfg))})
		}
	}

	if cfg.trace {
		rep.defs = perLayer
		err = measureLayers(ctx, cfg, rep, e, ds, o.refs, sequenceFor, tr)
	} else {
		rep.defs = endToEnd
		measureEndToEnd(ctx, cfg, rep, e, o.refs, sequenceFor())
	}
	if err != nil {
		return nil, err
	}
	rep.printMetrics()
	return rep, nil
}

// checkDetection asserts that the NOT EXISTS form is planned as a
// division, as the paper's detector promises.
func checkDetection(ctx context.Context, db *divlaws.DB, w *workload) error {
	for _, c := range w.classes {
		if c != clsNotExists {
			continue
		}
		ex, err := db.Explain(ctx, c.sql)
		if err != nil {
			return err
		}
		if !ex.Detected {
			return errors.New("the NOT EXISTS form of Q1 was not detected as a division")
		}
	}
	return nil
}

// measureEndToEnd times the workload with tracing off.
func measureEndToEnd(ctx context.Context, cfg config, rep *report, e *engine, refs references, seq *sequence) {
	w := cfg.w
	rss := startRSSWindows()
	cpu0 := processCPU()
	var outs []outcome
	var elapsed time.Duration
	if w.serve {
		outs, _, elapsed = openLoop(ctx, e, seq, refs, w, openCount(seq, w, cfg.seconds), cfg.corrupt, nil)
	} else {
		outs, elapsed = closedLoop(ctx, e.db, seq, refs, cfg.seconds, cfg.corrupt, spillDirFor(w, cfg))
	}
	cpu := processCPU() - cpu0
	rep.values["peak_rss_mb"] = rss.finish()
	rep.count(outs)

	var lat, first, lag []float64
	var ok int64
	for _, o := range outs {
		lat = append(lat, ms(o.latency))
		first = append(first, ms(o.firstRow))
		lag = append(lag, ms(o.lag))
		if o.err == nil {
			ok++
		}
	}
	rep.values["cpu_ms_per_query"] = ms(cpu) / float64(max(len(outs), 1))

	// Wall-clock metrics, printed but not gated: on a shared host they
	// spread across runs by more than any bound the benchmark may set.
	n := len(outs)
	rep.linef("samples: %d queries in %.2fs", n, elapsed.Seconds())
	rep.linef("latency_p50_ms %.4f ms", median(lat))
	rep.linef("latency_mean_ms %.4f ms", mean(lat))
	rep.linef("first_row_p50_ms %.4f ms", median(first))
	rep.linef("throughput_qps %.4f 1/s", float64(ok)/elapsed.Seconds())
	if n > 10 {
		q := 1 - 10/float64(n)
		rep.linef("latency_tail_ms %.4f ms at p%.1f, the highest percentile with 10 samples beyond it", quantile(lat, q), 100*q)
	}
	for _, q := range []float64{0.95, 0.99} {
		rep.linef("latency_p%.0f_ms %.4f ms (%d samples beyond it)", 100*q, quantile(lat, q), beyond(lat, q))
	}
	rep.linef("error_ratio %.4f (%d of %d failed)", float64(int64(n)-ok)/float64(max(n, 1)), int64(n)-ok, n)
	if w.serve {
		rep.linef("open loop: %.0f queries/s offered; generator lag p50 %.3f ms, max %.3f ms", w.rate, median(lag), quantile(lag, 1))
	}
	if !rss.reset {
		rep.linef("peak_rss_mb covers the whole process: the high-water mark could not be reset")
	}
	rep.classLines(outs)
}

func spillDirFor(w *workload, cfg config) string {
	if w.memLimit > 0 {
		return cfg.spillDir
	}
	return ""
}

// measureLayers is the traced run. It replays the sequence three
// times for a third of the run each: untraced through DB.Query, the
// baseline; traced through the stepwise replica; and, for serve_mix,
// traced over HTTP.
func measureLayers(ctx context.Context, cfg config, rep *report, e *engine, ds *dataset, refs references, sequenceFor func() *sequence, tr *tracer) error {
	w := cfg.w
	third := cfg.seconds / 3
	spillDir := spillDirFor(w, cfg)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	base, _ := closedLoop(ctx, e.db, sequenceFor(), refs, third, cfg.corrupt, spillDir)
	runtime.ReadMemStats(&after)
	rep.count(base)
	v := rep.values
	v["divlaws.alloc_kb_per_query"] = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(len(base))

	rp := newReplica(w, ds, spillDir)
	seq := sequenceFor()
	var recs []layerRecord
	start := time.Now()
	for len(recs) == 0 || !seq.passStart() || time.Since(start).Seconds() < third {
		q := seq.next()
		rec := rp.run(ctx, q, refs[q.key], tr, tr.newQuery(), cfg.corrupt)
		rep.attempted++
		if rec.err != nil {
			rep.fail(q, rec.err)
		}
		recs = append(recs, rec)
	}
	layerValues(v, recs, tr.snapshot(), base)

	if w.serve {
		m0 := e.srv.Metrics()
		seq := sequenceFor()
		outs, wires, _ := openLoop(ctx, e, seq, refs, w, openCount(seq, w, third), cfg.corrupt, tr)
		m1 := e.srv.Metrics()
		rep.count(outs)
		serverValues(v, outs, wires, tr.snapshot(), m0, m1)
	}
	rep.classLines(base)

	spans := tr.snapshot()
	self := selfTimesMS(spans)
	for _, name := range []string{"sql.parse", "sql.params", "sql.bind", "optimizer.optimize", "exec.compile", "exec.open", "exec.drain", "exec.close", "divlaws.query", "client.request", "server.handler"} {
		if s, ok := self[name]; ok {
			rep.linef("self time %-20s %10.3f ms", name, s)
		}
	}
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.json", w.name, cfg.seed))
	if err := writeSpans(path, spans); err != nil {
		return err
	}
	rep.linef("spans: %d written to %s", len(spans), path)
	return nil
}

// layerValues derives the sql, optimizer, exec, parallel and spill
// metrics from the replica's records and spans, and the trace
// overhead against the untraced baseline.
func layerValues(v map[string]float64, recs []layerRecord, spans []span, base []outcome) {
	d := durationsMS(spans)
	rootSum := sum(d["divlaws.query"])
	share := func(name string) float64 {
		if rootSum == 0 {
			return 0
		}
		return sum(d[name]) / rootSum
	}
	v["sql.parse_us"] = median(d["sql.parse"]) * 1000
	v["sql.bind_ms"] = median(d["sql.bind"])
	v["sql.bind_share"] = share("sql.bind")
	v["optimizer.optimize_us"] = median(d["optimizer.optimize"]) * 1000
	v["exec.compile_us"] = median(d["exec.compile"]) * 1000
	v["exec.open_ms"] = median(d["exec.open"])
	v["exec.open_share"] = share("exec.open")
	v["exec.drain_ms"] = median(d["exec.drain"])
	v["exec.drain_share"] = share("exec.drain")

	var notExists, detected, rows, moved float64
	var fired, parallelized, estErr, rewrite, speedup, skew, spilled, runs, parts, refusals []float64
	var peak float64
	for _, r := range recs {
		if r.q.cls == clsNotExists {
			notExists++
			if r.detected {
				detected++
			}
		}
		if errors.Is(r.err, divlaws.ErrMemoryBudget) {
			refusals = append(refusals, 1)
		}
		fired = append(fired, float64(r.rulesFired))
		parallelized = append(parallelized, float64(r.parallelized))
		rows += float64(r.ex.rows)
		moved += float64(r.ex.moved)
		estErr = append(estErr, math.Abs(math.Log2(math.Max(r.estRows, 1)/math.Max(float64(r.ex.rows), 1))))
		if r.unrewrittenMS > 0 && r.ex.ms > 0 {
			rewrite = append(rewrite, r.unrewrittenMS/r.ex.ms)
		}
		if r.sequentialMS > 0 && r.ex.ms > 0 {
			speedup = append(speedup, r.sequentialMS/r.ex.ms)
		}
		if r.ex.skew > 0 {
			skew = append(skew, r.ex.skew)
		}
		spilled = append(spilled, float64(r.ex.spill.Spilled)/(1<<20))
		runs = append(runs, float64(r.ex.spill.Runs))
		parts = append(parts, float64(r.ex.spill.Partitions))
		peak = math.Max(peak, float64(r.ex.spill.Peak)/(1<<20))
	}
	if notExists > 0 {
		v["sql.detected_ratio"] = detected / notExists
	}
	v["optimizer.rules_fired"] = mean(fired)
	v["optimizer.rewrite_speedup"] = median(rewrite)
	v["optimizer.rows_est_error"] = median(estErr)
	v["optimizer.parallelized"] = mean(parallelized)
	v["exec.rows_out"] = rows / float64(max(len(recs), 1))
	if rows > 0 {
		v["exec.tuples_moved_per_row"] = moved / rows
	}
	v["parallel.speedup_vs_sequential"] = median(speedup)
	v["parallel.partition_skew"] = median(skew)
	v["spill.spilled_mb"] = mean(spilled)
	v["spill.runs"] = mean(runs)
	v["spill.partitions"] = mean(parts)
	v["spill.peak_charged_mb"] = peak
	v["spill.budget_refusals"] = float64(len(refusals))

	var baseMS []float64
	for _, o := range base {
		baseMS = append(baseMS, ms(o.latency))
	}
	if b := median(baseMS); b > 0 {
		v["bench.trace_overhead"] = median(d["divlaws.query"]) / b
	}
}

// serverValues derives the server metrics from the traced HTTP pass
// and the server's counters around it.
func serverValues(v map[string]float64, outs []outcome, wires []wire, spans []span, m0, m1 server.Metrics) {
	var ttfb, elapsed, stream, lag []float64
	var bytes, rows float64
	for i, o := range outs {
		lag = append(lag, ms(o.lag))
		if o.err != nil {
			continue
		}
		ttfb = append(ttfb, ms(wires[i].ttfb))
		elapsed = append(elapsed, wires[i].elapsedMS)
		stream = append(stream, ms(wires[i].stream))
		if o.rows > 0 {
			bytes += float64(wires[i].bytes)
			rows += float64(o.rows)
		}
	}
	v["server.ttfb_ms"] = median(ttfb)
	v["server.handler_ms"] = median(durationsMS(spans)["server.handler"])
	v["server.elapsed_ms"] = median(elapsed)
	v["server.stream_ms"] = median(stream)
	if rows > 0 {
		v["server.bytes_per_row"] = bytes / rows
	}
	if adm := m1.Admitted - m0.Admitted; adm > 0 {
		v["server.queued_ratio"] = float64(m1.Queued-m0.Queued) / float64(adm)
	}
	v["server.rejected_ratio"] = float64(m1.Rejected-m0.Rejected) / float64(max(len(outs), 1))
	if lookups := (m1.StmtCacheHits - m0.StmtCacheHits) + (m1.StmtCacheMisses - m0.StmtCacheMisses); lookups > 0 {
		v["server.stmt_cache_hit_ratio"] = float64(m1.StmtCacheHits-m0.StmtCacheHits) / float64(lookups)
	}
	v["bench.lag_p99_ms"] = quantile(lag, 0.99)
}
