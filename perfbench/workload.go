package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"divlaws/internal/datagen"
	"divlaws/internal/relation"
)

// The SQL classes. Every workload draws its queries from these; the
// engine sees only the text and the arguments.
const (
	qDivide = "SELECT s#, color FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p#"

	qSmallDivide = "SELECT s# FROM supplies AS s DIVIDE BY (\n  SELECT p# FROM parts WHERE color = ?) AS p\nON s.p# = p.p#"

	qNotExists = `SELECT DISTINCT s#, color
FROM supplies AS s1, parts AS p1
WHERE NOT EXISTS (
  SELECT * FROM parts AS p2
  WHERE p2.color = p1.color AND NOT EXISTS (
    SELECT * FROM supplies AS s2
    WHERE s2.p# = p2.p# AND s2.s# = s1.s#))`

	qExistsColor = "SELECT p#, color FROM parts AS p WHERE p.color = ? AND EXISTS (SELECT * FROM supplies AS s WHERE s.p# = p.p# AND s.s# = ?)"
)

// argKind names the pool a class draws its arguments from.
type argKind int

const (
	noArgs argKind = iota
	colorArg
	supplierArg
	colorSupplierArgs
)

// class is one query shape of a workload mix.
type class struct {
	name string
	sql  string
	args argKind
	// ordered marks classes with ORDER BY: their row sequence is
	// checked, not only their row set.
	ordered bool
	// limit > 0 marks a LIMIT without ORDER BY: any limit-sized
	// subset of the unlimited result is correct.
	limit int
	// weight is the class's share of a serve_mix pass.
	weight int
}

var (
	clsGreatDivide      = &class{name: "great_divide", sql: qDivide}
	clsNotExists        = &class{name: "not_exists", sql: qNotExists}
	clsSmallDivide      = &class{name: "small_divide", sql: qSmallDivide, args: colorArg}
	clsWhereColor       = &class{name: "divide_where_color", sql: qDivide + " WHERE color = ?", args: colorArg}
	clsWhereSupplier    = &class{name: "divide_where_supplier", sql: qDivide + " WHERE s# = ?", args: supplierArg}
	clsDivideTopK       = &class{name: "divide_topk", sql: qDivide + " ORDER BY s# LIMIT 10", ordered: true}
	clsDivideLimit      = &class{name: "divide_limit", sql: qDivide + " LIMIT 5", limit: 5}
	clsQuotientSort     = &class{name: "quotient_sort", sql: qDivide + " ORDER BY color, s#", ordered: true}
	clsTableSort        = &class{name: "table_sort", sql: "SELECT s#, p# FROM supplies ORDER BY p#, s#", ordered: true}
	clsServeDivide      = &class{name: "divide", sql: qDivide, weight: 3}
	clsServeLimit       = &class{name: "divide_limit", sql: qDivide + " LIMIT 5", limit: 5, weight: 2}
	clsServeParamColor  = &class{name: "param_color", sql: qSmallDivide, args: colorArg, weight: 3}
	clsServeTopK        = &class{name: "topk", sql: qDivide + " ORDER BY s# LIMIT 10", ordered: true, weight: 1}
	clsServeScan        = &class{name: "scan", sql: "SELECT p#, color FROM parts", weight: 1}
	clsServeExistsColor = &class{name: "exists_color", sql: qExistsColor, args: colorSupplierArgs, weight: 1}
)

var quantifyClasses = []*class{
	clsGreatDivide, clsNotExists, clsSmallDivide, clsWhereColor,
	clsWhereSupplier, clsDivideTopK, clsDivideLimit, clsQuotientSort,
}

// workload is one benchmark configuration: data size, engine options
// and query mix.
type workload struct {
	name      string
	suppliers int
	workers   int
	memLimit  int64
	// serve drives the engine through internal/server over loopback
	// HTTP as an open loop at rate queries/s; otherwise one client
	// runs a closed loop over divlaws.DB.Query.
	serve   bool
	rate    float64
	classes []*class
}

// Data shape shared by all workloads: datagen.SuppliersParts with 40
// parts in 8 colours, 20 parts per supplier on average.
const (
	numParts    = 40
	numColors   = 8
	avgSupplied = 20
	// supplierPool is how many quotient suppliers a run draws its
	// s# = ? arguments from; colour arguments range over every colour
	// that has parts, so a run's cost does not hinge on a few draws.
	supplierPool = 4
)

var workloads = []*workload{
	{name: "serve_mix", suppliers: 2000, workers: 1, serve: true, rate: 20, classes: []*class{
		clsServeDivide, clsServeLimit, clsServeParamColor, clsServeTopK, clsServeScan, clsServeExistsColor,
	}},
	{name: "quantify_large", suppliers: 20000, workers: 1, classes: quantifyClasses},
	{name: "quantify_parallel", suppliers: 20000, workers: 2, classes: quantifyClasses},
	{name: "quantify_spill", suppliers: 20000, workers: 1, memLimit: 1 << 20,
		classes: append(append([]*class(nil), quantifyClasses...), clsTableSort)},
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// dataset is one seed's generated suppliers-and-parts database, in
// the row form the public API takes and the relation form the
// stepwise replica and the reference evaluator take.
type dataset struct {
	supRows, partRows [][]any
	supRel, partRel   *relation.Relation
	colors            []string // colours that have at least one part
}

func generate(suppliers int, seed int64) *dataset {
	sup, parts := datagen.SuppliersParts{
		Suppliers: suppliers, Parts: numParts, Colors: numColors,
		AvgSupplied: avgSupplied, Seed: seed,
	}.Generate()
	ds := &dataset{supRows: sup.Rows(), partRows: parts.Rows(), supRel: sup, partRel: parts}
	seen := map[string]bool{}
	for _, r := range ds.partRows {
		c := r[1].(string)
		if !seen[c] {
			seen[c] = true
			ds.colors = append(ds.colors, c)
		}
	}
	sort.Strings(ds.colors)
	return ds
}

// query is one request: a class with its drawn arguments.
type query struct {
	cls  *class
	args []any
	key  string // class name plus arguments: the reference's key
}

func newQuery(c *class, args ...any) query {
	return query{cls: c, args: args, key: fmt.Sprint(c.name, args)}
}

// pools are the argument values a run draws from, fixed per seed so
// that the reference covers every (class, arguments) pair.
type pools struct {
	colors, suppliers []string
}

func drawPools(rng *rand.Rand, ds *dataset, quotientSuppliers []string) pools {
	p := pools{colors: ds.colors}
	for _, i := range rng.Perm(len(quotientSuppliers))[:min(supplierPool, len(quotientSuppliers))] {
		p.suppliers = append(p.suppliers, quotientSuppliers[i])
	}
	return p
}

// instantiate draws the arguments of one query of class c. Colours
// rotate, from the seeded offset turn, so that every run spends its
// colour-dependent work evenly across the colours; suppliers are
// drawn at random.
func (p pools) instantiate(c *class, rng *rand.Rand, turn int) query {
	color := p.colors[turn%len(p.colors)]
	switch c.args {
	case colorArg:
		return newQuery(c, color)
	case supplierArg:
		return newQuery(c, p.suppliers[rng.Intn(len(p.suppliers))])
	case colorSupplierArgs:
		return newQuery(c, color, p.suppliers[rng.Intn(len(p.suppliers))])
	}
	return newQuery(c)
}

// all lists every (class, arguments) pair the pools can produce.
func (p pools) all(classes []*class) []query {
	var out []query
	for _, c := range classes {
		switch c.args {
		case noArgs:
			out = append(out, newQuery(c))
		case colorArg:
			for _, col := range p.colors {
				out = append(out, newQuery(c, col))
			}
		case supplierArg:
			for _, s := range p.suppliers {
				out = append(out, newQuery(c, s))
			}
		case colorSupplierArgs:
			for _, col := range p.colors {
				for _, s := range p.suppliers {
					out = append(out, newQuery(c, col, s))
				}
			}
		}
	}
	return out
}

// sequence yields the run's queries pass by pass. A pass holds each
// class once (serve_mix: weight times) in a seeded order, so a run
// that ends on a pass boundary always has the same class mix.
type sequence struct {
	rng     *rand.Rand
	turns   map[*class]int // queries of each class drawn so far, plus an offset
	pools   pools
	classes []*class
	pass    []query
	pos     int
}

func newSequence(seed int64, p pools, w *workload) *sequence {
	s := &sequence{rng: rand.New(rand.NewSource(seed)), pools: p, turns: map[*class]int{}}
	offset := s.rng.Intn(len(p.colors))
	for _, c := range w.classes {
		s.turns[c] = offset
		for i := 0; i < max(c.weight, 1); i++ {
			s.classes = append(s.classes, c)
		}
	}
	return s
}

func (s *sequence) passLen() int { return len(s.classes) }

// passStart reports whether the next query opens a new pass.
func (s *sequence) passStart() bool { return s.pos == len(s.pass) }

// next returns the next query, drawing a new pass when one ends.
func (s *sequence) next() query {
	if s.passStart() {
		s.pass = s.pass[:0]
		for _, i := range s.rng.Perm(len(s.classes)) {
			c := s.classes[i]
			s.pass = append(s.pass, s.pools.instantiate(c, s.rng, s.turns[c]))
			s.turns[c]++
		}
		s.pos = 0
	}
	q := s.pass[s.pos]
	s.pos++
	return q
}
