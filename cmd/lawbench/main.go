// Command lawbench measures, for every rewrite law, the evaluation
// time of the left-hand-side plan versus the rewritten right-hand-
// side plan over synthetic workloads — the per-law optimization
// effect the paper argues for qualitatively.
//
// Usage:
//
//	lawbench                  # all laws at the default scale
//	lawbench -scale 20000     # bigger workload
//	lawbench -law "Law 9"     # one law
//	lawbench -json -          # machine-readable results on stdout
//	lawbench -json BENCH.json # ... or into a file
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"divlaws/internal/datagen"
	"divlaws/internal/division"
	"divlaws/internal/exec"
	"divlaws/internal/optimizer"
	"divlaws/internal/plan"
	"divlaws/internal/pred"
	"divlaws/internal/relation"
	"divlaws/internal/scenarios"
	"divlaws/internal/schema"
	"divlaws/internal/spill"
	"divlaws/internal/value"
)

// result is one measured plan side, the unit of the committed
// BENCH_<n>.json trajectory files.
type result struct {
	Scenario    string  `json:"scenario"`
	Side        string  `json:"side"` // "lhs"/"rhs", "exec", or "memory"/"spill"/"rejected"
	Scale       int     `json:"scale"`
	Workers     int     `json:"workers"`
	NsPerOp     int64   `json:"ns_op"`
	AllocsPerOp int64   `json:"allocs_op"`
	BytesPerOp  int64   `json:"bytes_op"`
	Rows        int     `json:"rows"`
	Speedup     float64 `json:"speedup,omitempty"` // lhs/rhs, on the rhs entry
	// SpilledBytes reports the out-of-core volume of a "spill" side.
	SpilledBytes int64 `json:"spilled_bytes,omitempty"`
	// Error is set on "rejected" sides: the typed refusal of a budget
	// smaller than the query's irreducible state.
	Error string `json:"error,omitempty"`
}

type report struct {
	Tool        string   `json:"tool"`
	Scale       int      `json:"scale"`
	Workers     int      `json:"workers"`
	Reps        int      `json:"reps"`
	MemoryLimit int64    `json:"memory_limit,omitempty"`
	Results     []result `json:"results"`
}

func main() {
	var (
		scale    = flag.Int("scale", 8000, "approximate dividend size")
		law      = flag.String("law", "", "benchmark a single law by name")
		reps     = flag.Int("reps", 3, "repetitions (minimum time, mean allocs)")
		seed     = flag.Int64("seed", 1, "workload seed")
		workers  = flag.Int("workers", 1, "parallelize divisions in both plan sides across this many goroutines")
		execSw   = flag.Bool("exec", true, "append the exec sweep over the streaming engine's operator classes")
		spillSw  = flag.Bool("spill", true, "append the in-memory vs out-of-core sweep over the blocking operator classes")
		memLimit = flag.Int64("memory-limit", 64<<10, "memory budget in bytes for the spill sweep's out-of-core side")
		jsonDest = flag.String("json", "", `emit machine-readable results to this file ("-" for stdout) instead of the table`)
	)
	flag.Parse()
	if *reps < 1 {
		*reps = 1
	}

	list := scenarios.All()
	if *law != "" {
		s, ok := scenarios.ByName(*law)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown law %q\n", *law)
			os.Exit(1)
		}
		list = []scenarios.Scenario{s}
	}

	rep := report{Tool: "lawbench", Scale: *scale, Workers: *workers, Reps: *reps}
	if *jsonDest == "" {
		fmt.Printf("%-12s %12s %12s %8s  %s\n", "law", "lhs", "rhs", "speedup", "result-rows")
	}
	for _, s := range list {
		lhs := s.Build(*scale, *seed)
		rhs := s.MustApply(lhs)
		if *workers >= 2 {
			// Parallelize every division in both sides so the per-law
			// comparison reflects the intra-operator parallel engine.
			popts := optimizer.ParallelOptions{Workers: *workers, Threshold: 1}
			lhs, _ = optimizer.Parallelize(lhs, popts)
			rhs, _ = optimizer.Parallelize(rhs, popts)
		}
		lhsM := measure(lhs, *reps)
		rhsM := measure(rhs, *reps)
		if lhsM.rows != rhsM.rows {
			fmt.Fprintf(os.Stderr, "%s: REWRITE CHANGED RESULT (%d vs %d rows)\n", s.Name, lhsM.rows, rhsM.rows)
			os.Exit(1)
		}
		speedup := float64(lhsM.best) / float64(rhsM.best)
		rep.Results = append(rep.Results,
			result{Scenario: s.Name, Side: "lhs", Scale: *scale, Workers: *workers,
				NsPerOp: lhsM.best.Nanoseconds(), AllocsPerOp: lhsM.allocs, BytesPerOp: lhsM.bytes, Rows: lhsM.rows},
			result{Scenario: s.Name, Side: "rhs", Scale: *scale, Workers: *workers,
				NsPerOp: rhsM.best.Nanoseconds(), AllocsPerOp: rhsM.allocs, BytesPerOp: rhsM.bytes, Rows: rhsM.rows,
				Speedup: speedup})
		if *jsonDest == "" {
			fmt.Printf("%-12s %12v %12v %7.2fx  %d\n",
				s.Name, lhsM.best.Round(time.Microsecond), rhsM.best.Round(time.Microsecond),
				speedup, lhsM.rows)
		}
	}

	if *execSw && *law == "" {
		if *jsonDest == "" {
			fmt.Printf("\n%-20s %12s  %s\n", "operator class", "exec", "result-rows")
		}
		for _, c := range execClasses(*scale, *seed, *workers) {
			m := measureExec(c.node, *reps)
			rep.Results = append(rep.Results,
				result{Scenario: c.name, Side: "exec", Scale: *scale, Workers: *workers,
					NsPerOp: m.best.Nanoseconds(), AllocsPerOp: m.allocs, BytesPerOp: m.bytes, Rows: m.rows})
			if *jsonDest == "" {
				fmt.Printf("%-20s %12v  %d\n", c.name, m.best.Round(time.Microsecond), m.rows)
			}
		}
	}

	if *spillSw && *law == "" && *memLimit > 0 {
		rep.MemoryLimit = *memLimit
		if *jsonDest == "" {
			fmt.Printf("\n%-20s %12s %12s %8s %10s  %s\n",
				"blocking operator", "in-memory", "spilling", "slowdown", "spilled", "result-rows")
		}
		for _, c := range spillClasses(*scale, *seed) {
			mem, spl, spilled := measureSpillPair(c.name, c.node, *reps, *memLimit)
			if mem.rows != spl.rows {
				fmt.Fprintf(os.Stderr, "%s: SPILL PATH CHANGED RESULT (%d vs %d rows)\n", c.name, mem.rows, spl.rows)
				os.Exit(1)
			}
			slowdown := float64(spl.best) / float64(mem.best)
			rep.Results = append(rep.Results,
				result{Scenario: c.name, Side: "memory", Scale: *scale, Workers: *workers,
					NsPerOp: mem.best.Nanoseconds(), AllocsPerOp: mem.allocs, BytesPerOp: mem.bytes, Rows: mem.rows},
				result{Scenario: c.name, Side: "spill", Scale: *scale, Workers: *workers,
					NsPerOp: spl.best.Nanoseconds(), AllocsPerOp: spl.allocs, BytesPerOp: spl.bytes, Rows: spl.rows,
					Speedup: slowdown, SpilledBytes: spilled})
			if *jsonDest == "" {
				fmt.Printf("%-20s %12v %12v %7.2fx %9dK  %d\n",
					c.name, mem.best.Round(time.Microsecond), spl.best.Round(time.Microsecond),
					slowdown, spilled>>10, mem.rows)
			}
		}
		// One budget-rejected probe: a budget below the divisor's own
		// footprint cannot be saved by spilling; the engine must refuse
		// with the typed budget error, not crash or loop.
		if rej := rejectedProbe(*scale, *seed); rej != "" {
			rep.Results = append(rep.Results,
				result{Scenario: "spill divide", Side: "rejected", Scale: *scale, Workers: *workers, Error: rej})
			if *jsonDest == "" {
				fmt.Printf("%-20s %12s: %s\n", "spill divide", "rejected", rej)
			}
		}
	}

	if *jsonDest != "" {
		out := os.Stdout
		if *jsonDest != "-" {
			f, err := os.Create(*jsonDest)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			out = f
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// measurement aggregates reps runs of one plan: minimum wall time,
// mean allocations and bytes per run.
type measurement struct {
	best   time.Duration
	allocs int64
	bytes  int64
	rows   int
}

func measure(n plan.Node, reps int) measurement {
	m := measurement{best: time.Duration(1<<62 - 1)}
	var ms0, ms1 runtime.MemStats
	for i := 0; i < reps; i++ {
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		out := plan.Eval(n)
		d := time.Since(start)
		runtime.ReadMemStats(&ms1)
		if d < m.best {
			m.best = d
		}
		m.allocs += int64(ms1.Mallocs - ms0.Mallocs)
		m.bytes += int64(ms1.TotalAlloc - ms0.TotalAlloc)
		m.rows = out.Len()
	}
	m.allocs /= int64(reps)
	m.bytes /= int64(reps)
	return m
}

// measureExec is measure over the streaming engine. A single drain
// is microseconds — below single-shot timer resolution on a noisy
// host — so each rep runs enough inner drains to fill a few
// milliseconds and reports per-drain amortized figures; an unmeasured
// warmup drain sizes that inner loop and absorbs first-run effects
// (cold caches, pool population).
func measureExec(n plan.Node, reps int) measurement {
	drain := func() int64 {
		rows, err := exec.Drain(context.Background(), exec.Compile(n, nil))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return rows
	}
	start := time.Now()
	drain()
	iters := int(5 * time.Millisecond / (time.Since(start) + 1))
	if iters < 1 {
		iters = 1
	}
	m := measurement{best: time.Duration(1<<62 - 1)}
	for i := 0; i < reps; i++ {
		var rows int64
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		for j := 0; j < iters; j++ {
			rows = drain()
		}
		d := time.Since(start) / time.Duration(iters)
		runtime.ReadMemStats(&ms1)
		if d < m.best {
			m.best = d
		}
		m.allocs += int64(ms1.Mallocs-ms0.Mallocs) / int64(iters)
		m.bytes += int64(ms1.TotalAlloc-ms0.TotalAlloc) / int64(iters)
		m.rows = int(rows)
	}
	m.allocs /= int64(reps)
	m.bytes /= int64(reps)
	return m
}

// measureSpillPair times one blocking-operator plan with an unlimited
// budget against the same plan under budget bytes, paired per rep so
// machine drift hits both sides equally. A final instrumented drain
// reports how many bytes the budgeted side spilled; zero means the
// budget never forced the operator out of core and the pair is not
// measuring what it claims, so that is reported for the caller's
// sanity check rather than silently dropped.
func measureSpillPair(name string, n plan.Node, reps int, budget int64) (mem, spl measurement, spilled int64) {
	memOpts := exec.CompileOptions{MemoryLimit: -1}
	splOpts := exec.CompileOptions{MemoryLimit: budget}
	drain := func(opts exec.CompileOptions) int64 {
		rows, err := exec.Drain(context.Background(), exec.CompileWith(n, nil, opts))
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		return rows
	}
	start := time.Now()
	drain(memOpts)
	drain(splOpts)
	warm := time.Since(start) / 2
	iters := int(5 * time.Millisecond / (warm + 1))
	if iters < 1 {
		iters = 1
	}
	round := func(opts exec.CompileOptions, m *measurement) {
		var rows int64
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		for j := 0; j < iters; j++ {
			rows = drain(opts)
		}
		d := time.Since(start) / time.Duration(iters)
		runtime.ReadMemStats(&ms1)
		if d < m.best {
			m.best = d
		}
		m.allocs += int64(ms1.Mallocs-ms0.Mallocs) / int64(iters)
		m.bytes += int64(ms1.TotalAlloc-ms0.TotalAlloc) / int64(iters)
		m.rows = int(rows)
	}
	mem = measurement{best: time.Duration(1<<62 - 1)}
	spl = measurement{best: time.Duration(1<<62 - 1)}
	for i := 0; i < reps; i++ {
		round(memOpts, &mem)
		round(splOpts, &spl)
	}
	mem.allocs /= int64(reps)
	mem.bytes /= int64(reps)
	spl.allocs /= int64(reps)
	spl.bytes /= int64(reps)

	tr := spill.NewTracker(budget)
	drain(exec.CompileOptions{MemoryLimit: budget, Spill: tr})
	spilled = tr.Snapshot().Spilled
	tr.Close()
	return mem, spl, spilled
}

// spillClasses builds one workload per blocking operator class whose
// working set at the default scale is several times the default
// sweep budget: external sort, the two grace-hash divisions, the
// grace-hash join, and the budgeted parallel exchange.
func spillClasses(scale int, seed int64) []struct {
	name string
	node plan.Node
} {
	groups := scale / 5
	if groups < 10 {
		groups = 10
	}
	r1, r2 := datagen.DividePair{
		Groups: groups, GroupSize: 4, DivisorSize: 4,
		Domain: 40, HitRate: 0.9, Seed: seed,
	}.Generate()
	g1, g2 := datagen.GreatDividePair{
		Groups: groups, GroupSize: 4, DivisorGroups: 4, DivisorGroupSize: 4,
		Domain: 40, HitRate: 0.9, Seed: seed,
	}.Generate()
	r1s := plan.NewScan("r1", r1)
	r2s := plan.NewScan("r2", r2)
	// Join build side: one unique b per row, far larger than the sweep
	// budget, so the join graces while each probe row matches at most
	// once and the output stays comparable to the input.
	jr := relation.New(schema.New("b", "c"))
	for i := 0; i < groups; i++ {
		jr.Insert(relation.Tuple{value.Int(int64(i)), value.Int(int64(i % 7))})
	}
	jrs := plan.NewScan("jr", jr)
	return []struct {
		name string
		node plan.Node
	}{
		{"spill sort", &plan.Sort{Input: r1s, Keys: []plan.SortKey{{Attr: "b"}, {Attr: "a", Desc: true}}}},
		{"spill divide", &plan.Divide{Dividend: r1s, Divisor: r2s}},
		{"spill great-divide", &plan.GreatDivide{Dividend: plan.NewScan("g1", g1), Divisor: plan.NewScan("g2", g2)}},
		{"spill hash-join", &plan.Join{Left: r1s, Right: jrs}},
		{"spill parallel-divide", &plan.ParallelDivide{Dividend: r1s, Divisor: r2s, Workers: 4}},
	}
}

// rejectedProbe runs a division under a budget smaller than its
// divisor's footprint and returns the typed error message the engine
// refused with; an empty return means the probe unexpectedly ran.
func rejectedProbe(scale int, seed int64) string {
	groups := scale / 5
	if groups < 10 {
		groups = 10
	}
	r1, r2 := datagen.DividePair{
		Groups: groups, GroupSize: 4, DivisorSize: 4,
		Domain: 40, HitRate: 0.9, Seed: seed,
	}.Generate()
	node := &plan.Divide{Dividend: plan.NewScan("r1", r1), Divisor: plan.NewScan("r2", r2)}
	_, err := exec.Drain(context.Background(), exec.CompileWith(node, nil, exec.CompileOptions{MemoryLimit: 64}))
	if err == nil {
		fmt.Fprintln(os.Stderr, "spill divide: 64-byte budget unexpectedly succeeded")
		os.Exit(1)
	}
	if !errors.Is(err, spill.ErrBudget) {
		fmt.Fprintf(os.Stderr, "spill divide: want a typed budget error, got: %v\n", err)
		os.Exit(1)
	}
	return err.Error()
}

// execClasses builds one workload per streaming operator class: the
// pipelined trio (scan, filter, project), the blocking hash-division
// drains, the parallel exchange, top-k, and the probe-side operators —
// joins, semijoins, set operations, products, and the merge-sort
// division, whose probe phases stream whole batches through batched
// hash-table lookups.
func execClasses(scale int, seed int64, workers int) []struct {
	name string
	node plan.Node
} {
	groups := scale / 5
	if groups < 10 {
		groups = 10
	}
	r1, r2 := datagen.DividePair{
		Groups: groups, GroupSize: 4, DivisorSize: 4,
		Domain: 40, HitRate: 0.9, Seed: seed,
	}.Generate()
	// String-keyed twin of (r1, r2): identical relational structure,
	// every key a decorated identifier string — the workload class the
	// wide-hash kernel targets.
	s1, s2 := datagen.DividePair{
		Groups: groups, GroupSize: 4, DivisorSize: 4,
		Domain: 40, HitRate: 0.9, Seed: seed, Strings: true,
	}.Generate()
	g1, g2 := datagen.GreatDividePair{
		Groups: groups, GroupSize: 4, DivisorGroups: 4, DivisorGroupSize: 4,
		Domain: 40, HitRate: 0.9, Seed: seed,
	}.Generate()
	if workers < 1 {
		workers = 1
	}
	pworkers := workers
	if pworkers < 2 {
		pworkers = 4
	}
	r1s := plan.NewScan("r1", r1)
	r2s := plan.NewScan("r2", r2)
	// Join build side: (b, c) keyed on one in-domain and one
	// out-of-domain b value, so the probe drain dominates — mostly
	// misses against a tiny cache-hot table, with enough matches to
	// keep the emit path hot without the output's allocation noise
	// swamping the probe timing.
	jr := relation.New(schema.New("b", "c"))
	for _, b := range []int64{0, 40} {
		jr.Insert(relation.Tuple{value.Int(b), value.Int(b % 3)})
	}
	jrs := plan.NewScan("jr", jr)
	// String-keyed join build side, mirroring jr over s1's key domain
	// (rendered by datagen so the keys actually match s1's).
	js := relation.New(schema.New("b", "c"))
	for _, b := range []int64{0, 40} {
		js.Insert(relation.Tuple{datagen.DividePair{Strings: true}.BValue(b), value.Int(b % 3)})
	}
	jss := plan.NewScan("js", js)
	// Emit-heavy join build side: every in-domain b value matches 8
	// build rows, so each probe row concatenates 8 outputs and the
	// drain is dominated by Tuple.Concat emission, not probing.
	je := relation.New(schema.New("b", "c"))
	for b := int64(0); b < 40; b++ {
		for c := int64(0); c < 8; c++ {
			je.Insert(relation.Tuple{value.Int(b), value.Int(c)})
		}
	}
	jes := plan.NewScan("je", je)
	// Intersect build side: a small same-schema relation, so the
	// class measures the probe drain over r1 rather than the
	// identical-in-both-paths build of a large right input.
	i1, _ := datagen.DividePair{
		Groups: groups/50 + 1, GroupSize: 4, DivisorSize: 4,
		Domain: 40, HitRate: 0.9, Seed: seed,
	}.Generate()
	i1s := plan.NewScan("i1", i1)
	// Union overlap side: 95% of r1's own rows, so the second input
	// mostly dedups away and the class times the probe drain on top of
	// the left input's unavoidable insert phase.
	d1 := relation.New(r1.Schema())
	for i, t := range r1.Tuples() {
		if i%20 != 0 {
			d1.Insert(t)
		}
	}
	d1s := plan.NewScan("d1", d1)
	// Product right side: tiny and schema-disjoint from r1.
	pr := relation.New(schema.New("d"))
	for i := 0; i < 2; i++ {
		pr.Insert(relation.Tuple{value.Int(int64(i))})
	}
	return []struct {
		name string
		node plan.Node
	}{
		{"exec scan", r1s},
		{"exec filter", &plan.Select{Input: r1s, Pred: pred.Compare(pred.Attr("a"), pred.Gt, pred.ConstInt(int64(groups/2)))}},
		{"exec project", &plan.Project{Input: r1s, Attrs: []string{"b"}}},
		{"exec hash-divide", &plan.Divide{Dividend: r1s, Divisor: r2s}},
		{"exec merge-divide", &plan.Divide{Dividend: r1s, Divisor: r2s, Algo: division.AlgoMergeSort}},
		{"exec great-divide", &plan.GreatDivide{Dividend: plan.NewScan("g1", g1), Divisor: plan.NewScan("g2", g2)}},
		{"exec parallel-divide", &plan.ParallelDivide{Dividend: r1s, Divisor: r2s, Workers: pworkers}},
		{"exec topk", &plan.TopK{Input: r1s, Keys: []plan.SortKey{{Attr: "b"}, {Attr: "a", Desc: true}}, K: 100}},
		{"exec union", plan.Union(r1s, d1s)},
		{"exec intersect", plan.Intersect(r1s, i1s)},
		{"exec diff", plan.Diff(r1s, i1s)},
		{"exec hash-join", &plan.Join{Left: r1s, Right: jrs}},
		{"exec semijoin", &plan.SemiJoin{Left: r1s, Right: r2s}},
		{"exec product", &plan.Product{Left: r1s, Right: plan.NewScan("pr", pr)}},
		{"exec hash-divide-str", &plan.Divide{Dividend: plan.NewScan("s1", s1), Divisor: plan.NewScan("s2", s2)}},
		{"exec hash-join-str", &plan.Join{Left: plan.NewScan("s1", s1), Right: jss}},
		{"exec join-emit", &plan.Join{Left: r1s, Right: jes}},
	}
}
