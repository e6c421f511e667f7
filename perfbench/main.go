// Command perfbench is the repository's benchmark: division queries
// timed from SQL text to last row through the shipped engine's public
// surfaces, divlaws.DB.Query and internal/server over loopback HTTP,
// with every result checked against an independent reference.
//
//	bash perfbench/run.sh --workload serve_mix --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it measures the end-to-end metrics with tracing off.
// With --trace 1 it replays the same query sequence through each
// layer's own calls with spans recorded in memory, reports the
// per-layer split, and writes the spans to .bench_build/traces/. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 80, "failed": 0, "metrics": {"cpu_ms_per_query": {"value": 181.2, "unit": "ms"}, ...}}
//
// Any wrong, failed or refused query makes correct false and the exit
// code 1. BENCHMARK.json at the repository root lists the workloads
// and metrics; LAYERS.md beside this file says which end-to-end
// metric each per-layer metric should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// buildDir holds everything a run writes, relative to the checkout.
const buildDir = ".bench_build"

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: serve_mix, quantify_large, quantify_parallel or quantify_spill")
		seed    = flag.Int64("seed", 1, "seed for the data, the query sequence and the argument draws")
		seconds = flag.Float64("seconds", 10, "measured time per run; closed loops finish their last pass")
		trace   = flag.Int("trace", 0, "1: report the per-layer split from a traced replay instead of the end-to-end metrics")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: bad arguments:", err)
		flag.Usage()
		os.Exit(2)
	}
	os.Exit(benchmain(w, *seed, *seconds, *trace == 1, os.Stdout))
}

// benchmain runs one workload and prints its report; it returns the
// process exit code.
func benchmain(w *workload, seed int64, seconds float64, trace bool, stdout io.Writer) int {
	// Spill files go to a directory of this run's own, which must be
	// empty after every query; the environment cannot force spilling
	// or batching on the engine.
	spillDir, err := filepath.Abs(filepath.Join(buildDir, fmt.Sprintf("spill-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(spillDir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(spillDir)
	os.Setenv("TMPDIR", spillDir)
	os.Unsetenv("DIVLAWS_FORCE_SPILL")
	os.Unsetenv("DIVLAWS_FORCE_BATCH")

	cfg := config{w: w, seed: seed, seconds: seconds, trace: trace, spillDir: spillDir,
		traceDir: filepath.Join(buildDir, "traces")}
	rep, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, l := range rep.lines {
		fmt.Fprintln(stdout, l)
	}
	for _, f := range rep.failures {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", f)
	}
	out, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !rep.correct() {
		return 1
	}
	return 0
}

type config struct {
	w        *workload
	seed     int64
	seconds  float64
	trace    bool
	corrupt  bool // alter one row of every result: the oracle must catch it
	spillDir string
	traceDir string
}

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the gated metrics a user of the engine sees, measured
// with tracing off. Latency, time to first row and throughput are
// printed beside them but not gated; see LAYERS.md.
var endToEnd = []metricDef{
	{"cpu_ms_per_query", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics. A metric that does not apply
// to a workload (a server metric on an embedded workload, say) reads 0.
var perLayer = []metricDef{
	{"sql.parse_us", "us", "lower"},
	{"sql.bind_ms", "ms", "lower"},
	{"sql.bind_share", "ratio", "lower"},
	{"sql.detected_ratio", "ratio", "higher"},
	{"optimizer.optimize_us", "us", "lower"},
	{"optimizer.rules_fired", "count", "higher"},
	{"optimizer.rewrite_speedup", "x", "higher"},
	{"optimizer.rows_est_error", "log2", "lower"},
	{"optimizer.parallelized", "count", "higher"},
	{"exec.compile_us", "us", "lower"},
	{"exec.open_ms", "ms", "lower"},
	{"exec.open_share", "ratio", "lower"},
	{"exec.drain_ms", "ms", "lower"},
	{"exec.drain_share", "ratio", "lower"},
	{"exec.rows_out", "count", "higher"},
	{"exec.tuples_moved_per_row", "count", "lower"},
	{"divlaws.alloc_kb_per_query", "KiB", "lower"},
	{"parallel.speedup_vs_sequential", "x", "higher"},
	{"parallel.partition_skew", "ratio", "lower"},
	{"spill.spilled_mb", "MB", "lower"},
	{"spill.runs", "count", "lower"},
	{"spill.partitions", "count", "lower"},
	{"spill.peak_charged_mb", "MB", "lower"},
	{"spill.budget_refusals", "count", "lower"},
	{"server.ttfb_ms", "ms", "lower"},
	{"server.handler_ms", "ms", "lower"},
	{"server.elapsed_ms", "ms", "lower"},
	{"server.stream_ms", "ms", "lower"},
	{"server.bytes_per_row", "B", "lower"},
	{"server.queued_ratio", "ratio", "lower"},
	{"server.rejected_ratio", "ratio", "lower"},
	{"server.stmt_cache_hit_ratio", "ratio", "higher"},
	{"bench.lag_p99_ms", "ms", "lower"},
	{"bench.trace_overhead", "x", "lower"},
}

// report is one run's outcome.
type report struct {
	defs      []metricDef
	values    map[string]float64
	attempted int64
	failures  []string
	failed    int64
	lines     []string // human-readable, printed before the JSON line
}

func (r *report) linef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// count folds checked outcomes into the attempted and failed totals.
func (r *report) count(outs []outcome) {
	for _, o := range outs {
		r.attempted++
		if o.err != nil {
			r.fail(o.q, o.err)
		}
	}
}

func (r *report) fail(q query, err error) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf("%s: %v", q.key, err))
	}
}

func (r *report) correct() bool { return r.failed == 0 && r.attempted > 0 }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) result() any {
	m := make(map[string]metricValue, len(r.defs))
	for _, d := range r.defs {
		m[d.name] = metricValue{Value: r.values[d.name], Unit: d.unit}
	}
	return struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, m}
}

// printMetrics adds one line per metric, by name with its unit.
func (r *report) printMetrics() {
	for _, d := range r.defs {
		r.linef("%-32s %12.4f %s", d.name, r.values[d.name], d.unit)
	}
}

// classLines adds the median latency of each class, for reading.
func (r *report) classLines(outs []outcome) {
	by := map[string][]float64{}
	for _, o := range outs {
		by[o.q.cls.name] = append(by[o.q.cls.name], ms(o.latency))
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s=%.2fms(n=%d)", n, median(by[n]), len(by[n]))
	}
	r.linef("class medians: %s", strings.Join(parts, " "))
}
