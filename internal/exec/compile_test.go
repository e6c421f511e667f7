package exec

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"divlaws/internal/datagen"
	"divlaws/internal/plan"
	"divlaws/internal/sql"
)

// walkIterators visits it and, through its Iterator-typed fields,
// every operator below it.
func walkIterators(it Iterator, visit func(Iterator)) {
	visit(it)
	iterType := reflect.TypeOf((*Iterator)(nil)).Elem()
	v := reflect.ValueOf(it).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Type() == iterType && f.CanInterface() && !f.IsNil() {
			walkIterators(f.Interface().(Iterator), visit)
		}
	}
}

// TestQ1CompilesSchemaOnlyNodesAway: Q1's optimized plan wraps its
// GreatDivide in a rename chain over an identity projection and
// renames the divisor scan. Those nodes only relabel the schema, so
// none of them may survive compilation, and Q1 must still return what
// plan.Eval returns.
func TestQ1CompilesSchemaOnlyNodesAway(t *testing.T) {
	supplies, parts := datagen.SuppliersParts{
		Suppliers: 25, Parts: 15, Colors: 3, AvgSupplied: 7, Seed: 1,
	}.Generate()
	db := sql.NewDB()
	db.Register("supplies", supplies)
	db.Register("parts", parts)
	ex, err := db.Explain(`SELECT s#, color
FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p#`, sql.ExplainOptions{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	var renames, identities int
	plan.Transform(ex.Plan, func(n plan.Node) plan.Node {
		switch n := n.(type) {
		case *plan.Rename:
			renames++
		case *plan.Project:
			if slices.Equal(n.Attrs, n.Input.Schema().Attrs()) {
				identities++
			}
		}
		return n
	})
	if renames < 2 || identities != 1 {
		t.Fatalf("Q1's plan has %d renames and %d identity projections, want a chain and one:\n%s",
			renames, identities, plan.Format(ex.Plan))
	}

	root := Compile(ex.Plan, nil)
	walkIterators(root.Input, func(it Iterator) {
		switch it.(type) {
		case *RenameIter, *ProjectIter:
			t.Errorf("compiled Q1 keeps a %T", it)
		}
	})
	got, err := Run(context.Background(), root)
	if err != nil {
		t.Fatal(err)
	}
	if want := plan.Eval(ex.Plan); !got.Equal(want) {
		t.Fatalf("compiled Q1 = %v, want %v", got, want)
	}
}
