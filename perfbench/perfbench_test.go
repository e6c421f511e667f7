package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark must
// agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if w := want[i]; m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, m, w)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd)
	check("per_layer", f.PerLayer, perLayer)
}

// shortRun runs a workload briefly on a tenth of its data.
func shortRun(t *testing.T, w *workload, trace, corrupt bool) *report {
	t.Helper()
	small := *w
	small.suppliers = w.suppliers / 10
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	rep, err := run(context.Background(), config{
		w: &small, seed: 7, seconds: 0.3, trace: trace, corrupt: corrupt,
		spillDir: dir, traceDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestShortRunsReportEveryMetric runs each workload in both modes and
// checks the result line: correct, and every metric of BENCHMARK.json
// present with its unit, the end-to-end ones non-zero.
func TestShortRunsReportEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	f := readBenchmarkFile(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rep := shortRun(t, w, trace, false)
			if !rep.correct() {
				t.Fatalf("%s trace=%t: %d of %d failed: %v", w.name, trace, rep.failed, rep.attempted, rep.failures)
			}
			data, err := json.Marshal(rep.result())
			if err != nil {
				t.Fatal(err)
			}
			var res struct {
				Correct   bool
				Attempted int64
				Failed    int64
				Metrics   map[string]metricValue
			}
			if err := json.Unmarshal(data, &res); err != nil {
				t.Fatal(err)
			}
			want := f.PerLayer
			if !trace {
				want = f.EndToEnd
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%t: metric %s missing", w.name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%t: %s has unit %q, want %q", w.name, trace, m.Name, got.Unit, m.Unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v", w.name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestCorruptedResultsAreErrors alters one row of every result: the
// reference check must count each query as failed, on every path.
func TestCorruptedResultsAreErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rep := shortRun(t, w, trace, true)
			if rep.correct() || rep.failed != rep.attempted {
				t.Errorf("%s trace=%t: %d of %d corrupted queries counted as failed", w.name, trace, rep.failed, rep.attempted)
			}
		}
	}
}

func TestCheckerCatchesWrongResults(t *testing.T) {
	rows := [][]any{{"s1", "red"}, {"s2", "red"}, {"s2", "blue"}}
	cases := []struct {
		name    string
		ref     *reference
		got     [][]any
		wantErr bool
	}{
		{"same set, other order", referenceOf(rows, false, 0), [][]any{rows[2], rows[0], rows[1]}, false},
		{"missing row", referenceOf(rows, false, 0), rows[:2], true},
		{"ordered, other order", referenceOf(rows, true, 0), [][]any{rows[1], rows[0], rows[2]}, true},
		{"limit subset", referenceOf(rows, false, 2), rows[1:], false},
		{"limit foreign row", referenceOf(rows, false, 2), [][]any{rows[0], {"s9", "red"}}, true},
		{"limit short", referenceOf(rows, false, 2), rows[:1], true},
	}
	for _, c := range cases {
		chk := newChecker(c.ref, false)
		for _, r := range c.got {
			chk.add(r)
		}
		if err := chk.verify(); (err != nil) != c.wantErr {
			t.Errorf("%s: verify() = %v, want error %t", c.name, err, c.wantErr)
		}
	}
}

// TestRowEncodingMatchesWire checks that the canonical row encoding
// is the JSON array the server writes, so wire rows hash like
// scanned ones.
func TestRowEncodingMatchesWire(t *testing.T) {
	for _, row := range [][]any{{"s1", "color3"}, {int64(-4), "a\"b<c>", nil, true}} {
		want, err := json.Marshal(row)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendRow(nil, row); string(got) != string(want) {
			t.Errorf("appendRow(%v) = %s, want %s", row, got, want)
		}
	}
}
