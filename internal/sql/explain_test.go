package sql

import (
	"strings"
	"testing"

	"divlaws/internal/datagen"
	"divlaws/internal/plan"
)

const explainQ1 = `SELECT s#, color
FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p#`

func explainDB() *DB {
	supplies, parts := datagen.SuppliersParts{
		Suppliers: 25, Parts: 15, Colors: 3, AvgSupplied: 7, Seed: 1,
	}.Generate()
	db := NewDB()
	db.Register("supplies", supplies)
	db.Register("parts", parts)
	return db
}

func TestExplainParallelShowsPartitioning(t *testing.T) {
	db := explainDB()
	ex, err := db.Explain(explainQ1, ExplainOptions{
		Optimize: true, AllowDataDependent: true,
		Workers: 4, ParallelThreshold: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex.Report, "ParallelGreatDivide[") {
		t.Errorf("report lacks parallel operator:\n%s", ex.Report)
	}
	if !strings.Contains(ex.Report, "partitioning: hash(") {
		t.Errorf("report lacks partitioning line:\n%s", ex.Report)
	}
	if !strings.Contains(ex.Report, "workers=4") {
		t.Errorf("report lacks worker count:\n%s", ex.Report)
	}

	// The parallelized plan must return the same rows as the plain
	// query path.
	want, err := db.Query(explainQ1)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Eval(ex.Plan); !got.EquivalentTo(want) {
		t.Errorf("parallel plan returned %d rows, want %d", got.Len(), want.Len())
	}
}

// TestExplainParallelDivideShowsHashOnA pins the Law 2 exchange's
// EXPLAIN line to the partitioning the engine runs: hash on the
// quotient attributes A.
func TestExplainParallelDivideShowsHashOnA(t *testing.T) {
	db := explainDB()
	q := `SELECT s# FROM supplies AS s
DIVIDE BY (SELECT p# FROM parts WHERE color = 'red') AS p ON s.p# = p.p#`
	ex, err := db.Explain(q, ExplainOptions{Workers: 4, ParallelThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ParallelDivide[hash, workers=4, hash(s.s#)]", "partitioning: hash(s.s#)"} {
		if !strings.Contains(ex.Report, want) {
			t.Errorf("report lacks %q:\n%s", want, ex.Report)
		}
	}
}

func TestExplainSequentialHasNoPartitioning(t *testing.T) {
	db := explainDB()
	ex, err := db.Explain(explainQ1, ExplainOptions{Optimize: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(ex.Report, "partitioning:") {
		t.Errorf("sequential explain mentions partitioning:\n%s", ex.Report)
	}
	if !strings.Contains(ex.Report, "-- logical plan --") {
		t.Errorf("report lacks logical plan section:\n%s", ex.Report)
	}
}

func TestExplainParallelizeOnly(t *testing.T) {
	db := explainDB()
	ex, err := db.Explain(explainQ1, ExplainOptions{Workers: 2, ParallelThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Without Optimize the law rules must not fire, but the
	// parallelization pass still must.
	for _, line := range strings.Split(ex.Report, "\n") {
		if strings.Contains(line, "applied") && !strings.Contains(line, "Parallelize") {
			t.Errorf("law rule fired without Optimize: %s", line)
		}
	}
	if !strings.Contains(ex.Report, "Parallelize(Law 13") {
		t.Errorf("parallelize pass did not fire:\n%s", ex.Report)
	}
}
