package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"

	"divlaws"
	"divlaws/internal/plan"
	"divlaws/internal/relation"
	"divlaws/internal/sql"
	"divlaws/internal/value"
)

// appendRow encodes a result row canonically as the JSON array the
// server writes for it, so rows reached through Rows.Scan, the ndjson
// wire, a relation or the generated data hash alike.
func appendRow(dst []byte, row []any) []byte {
	dst = append(dst, '[')
	for i, v := range row {
		if i > 0 {
			dst = append(dst, ',')
		}
		switch x := v.(type) {
		case nil:
			dst = append(dst, "null"...)
		case string:
			if jsonPlain(x) {
				dst = append(dst, '"')
				dst = append(dst, x...)
				dst = append(dst, '"')
				continue
			}
			b, _ := json.Marshal(x) // a string always marshals
			dst = append(dst, b...)
		case int64:
			dst = strconv.AppendInt(dst, x, 10)
		case bool:
			dst = strconv.AppendBool(dst, x)
		default:
			b, err := json.Marshal(x)
			if err != nil {
				b = []byte(fmt.Sprintf("%q", fmt.Sprint(x)))
			}
			dst = append(dst, b...)
		}
	}
	return append(dst, ']')
}

// jsonPlain reports whether encoding/json writes s between quotes
// unchanged.
func jsonPlain(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

func rowHash(buf []byte) uint64 {
	h := fnv.New64a()
	h.Write(buf)
	return h.Sum64()
}

// digest summarizes a result: its size, an order-independent hash of
// its rows and a hash of their sequence.
type digest struct {
	n   int64
	sum uint64
	seq uint64
}

// sameSet reports whether two digests describe the same row set.
func (d digest) sameSet(e digest) bool { return d.n == e.n && d.sum == e.sum }

// checker folds a result stream into a digest. For LIMIT classes it
// also checks each row's membership in the unlimited reference.
type checker struct {
	ref     *reference
	d       digest
	buf     []byte
	foreign int64 // rows absent from the unlimited reference
	corrupt bool  // alter the first row: proves the check bites
}

func newChecker(ref *reference, corrupt bool) *checker {
	return &checker{ref: ref, corrupt: corrupt, d: digest{seq: 14695981039346656037}}
}

func (c *checker) add(row []any) {
	c.buf = appendRow(c.buf[:0], row)
	c.addEncoded(c.buf)
}

// addEncoded folds one row already in the canonical encoding.
func (c *checker) addEncoded(enc []byte) {
	if c.corrupt {
		c.corrupt = false
		enc = append(enc[:len(enc):len(enc)], ' ')
	}
	h := rowHash(enc)
	c.d.n++
	c.d.sum += h
	c.d.seq = (c.d.seq ^ h) * 1099511628211
	if c.ref != nil && c.ref.limit > 0 {
		if _, ok := c.ref.members[h]; !ok {
			c.foreign++
		}
	}
}

// verify reports why the streamed result differs from the reference.
func (c *checker) verify() error {
	r := c.ref
	switch {
	case r == nil:
		return fmt.Errorf("no reference")
	case r.limit > 0:
		if want := min(int64(r.limit), r.want.n); c.d.n != want || c.foreign > 0 {
			return fmt.Errorf("got %d rows (%d outside the reference), want %d", c.d.n, c.foreign, want)
		}
	case !c.d.sameSet(r.want):
		return fmt.Errorf("got %d rows (hash %x), want %d (hash %x)", c.d.n, c.d.sum, r.want.n, r.want.sum)
	case r.ordered && c.d.seq != r.want.seq:
		return fmt.Errorf("rows in the wrong order")
	}
	return nil
}

// reference is the expected result of one (class, arguments) pair.
type reference struct {
	want    digest
	ordered bool
	limit   int
	members map[uint64]struct{} // row hashes, for LIMIT classes
}

func referenceOf(rows [][]any, ordered bool, limit int) *reference {
	c := newChecker(nil, false)
	r := &reference{ordered: ordered, limit: limit}
	if limit > 0 {
		r.members = make(map[uint64]struct{}, len(rows))
	}
	for _, row := range rows {
		c.add(row)
		if limit > 0 {
			r.members[rowHash(c.buf)] = struct{}{}
		}
	}
	r.want = c.d
	return r
}

// references maps query keys to expected results.
type references map[string]*reference

// evalReference runs text through the reference interpreter: the
// bound plan, without NOT EXISTS detection or law rewrites,
// materialized by plan.Eval.
func evalReference(ds *dataset, text string, args ...any) ([][]any, error) {
	db := sql.NewDB()
	db.Register("supplies", ds.supRel)
	db.Register("parts", ds.partRel)
	q, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	q, err = sql.SubstituteParams(q, argValues(args))
	if err != nil {
		return nil, err
	}
	node, err := db.Bind(q)
	if err != nil {
		return nil, err
	}
	return plan.Eval(node).Rows(), nil
}

// unoptimizedReference runs text on a sequential, unbudgeted DB with
// the law rewrites off, for queries whose bound plan is too slow for
// plan.Eval (the correlated NOT EXISTS form).
func unoptimizedReference(ds *dataset, text string) ([][]any, error) {
	db := divlaws.Open(divlaws.WithoutOptimizer(), divlaws.WithMemoryLimit(-1))
	sup, err := divlaws.NewRelation([]string{"s#", "p#"}, ds.supRows)
	if err != nil {
		return nil, err
	}
	parts, err := divlaws.NewRelation([]string{"p#", "color"}, ds.partRows)
	if err != nil {
		return nil, err
	}
	db.MustRegister("supplies", sup)
	db.MustRegister("parts", parts)
	rows, err := db.Query(context.Background(), text)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	var out [][]any
	for rows.Next() {
		row := make([]any, len(rows.Columns()))
		if err := rows.Scan(ptrs(row)...); err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, rows.Err()
}

func argValues(args []any) []value.Value {
	out := make([]value.Value, len(args))
	for i, a := range args {
		out[i] = relation.ToValue(a)
	}
	return out
}

func ptrs(row []any) []any {
	p := make([]any, len(row))
	for i := range row {
		p[i] = &row[i]
	}
	return p
}

// oracle holds a run's references and the quotient they derive from.
type oracle struct {
	refs      references
	quotient  [][]any // Q1: (s#, color)
	suppliers []string
}

// buildQuotient computes the Q1 reference with plan.Eval. The
// supplier pool is drawn from its suppliers, so that the WHERE s# = ?
// class has rows to return.
func buildQuotient(ds *dataset) (*oracle, error) {
	q1, err := evalReference(ds, qDivide)
	if err != nil {
		return nil, fmt.Errorf("reference Q1: %w", err)
	}
	o := &oracle{refs: references{}, quotient: q1}
	seen := map[string]bool{}
	for _, r := range q1 {
		if s := r[0].(string); !seen[s] {
			seen[s] = true
			o.suppliers = append(o.suppliers, s)
		}
	}
	sort.Strings(o.suppliers)
	if len(o.suppliers) == 0 {
		return nil, fmt.Errorf("reference Q1 is empty")
	}
	return o, nil
}

// build computes the reference of every (class, arguments) pair the
// run can issue. Base divisions come from the reference interpreter,
// the NOT EXISTS form from an unoptimized DB; filters, orders and
// limits are applied here in Go to Q1 or to the generated data. It
// then asserts the paper's equivalences on this data: Q1 ≡ Q3, and
// small_divide(c) ≡ π_s#(divide_where_color(c)).
func (o *oracle) build(ds *dataset, qs []query) error {
	for _, q := range qs {
		if _, ok := o.refs[q.key]; ok {
			continue
		}
		rows, err := o.expected(ds, q)
		if err != nil {
			return fmt.Errorf("reference %s: %w", q.key, err)
		}
		if q.cls.sql == qSmallDivide {
			small := referenceOf(rows, false, 0)
			where := referenceOf(projectRows(filterRows(o.quotient, 1, q.args[0]), 0), false, 0)
			if !small.want.sameSet(where.want) {
				return fmt.Errorf("small_divide(%v) and divide_where_color(%v) disagree: %d vs %d suppliers",
					q.args[0], q.args[0], small.want.n, where.want.n)
			}
		}
		o.refs[q.key] = referenceOf(rows, q.cls.ordered, q.cls.limit)
	}
	q1 := referenceOf(o.quotient, false, 0)
	if q3 := o.refs[newQuery(clsNotExists).key]; q3 != nil && !q1.want.sameSet(q3.want) {
		return fmt.Errorf("Q1 and Q3 disagree on the generated data: %d vs %d rows", q1.want.n, q3.want.n)
	}
	return nil
}

func (o *oracle) expected(ds *dataset, q query) ([][]any, error) {
	switch q.cls {
	case clsGreatDivide, clsServeDivide, clsDivideLimit, clsServeLimit:
		return o.quotient, nil
	case clsNotExists:
		return unoptimizedReference(ds, qNotExists)
	case clsSmallDivide, clsServeParamColor:
		return evalReference(ds, qSmallDivide, q.args...)
	case clsWhereColor:
		return filterRows(o.quotient, 1, q.args[0]), nil
	case clsWhereSupplier:
		return filterRows(o.quotient, 0, q.args[0]), nil
	case clsDivideTopK, clsServeTopK:
		rows := sortedRows(o.quotient, 0)
		return rows[:min(10, len(rows))], nil
	case clsQuotientSort:
		return sortedRows(o.quotient, 1, 0), nil
	case clsTableSort:
		return sortedRows(ds.supRows, 1, 0), nil
	case clsServeScan:
		return ds.partRows, nil
	case clsServeExistsColor:
		supplied := map[string]bool{}
		for _, r := range ds.supRows {
			if r[0] == q.args[1] {
				supplied[r[1].(string)] = true
			}
		}
		var out [][]any
		for _, r := range ds.partRows {
			if r[1] == q.args[0] && supplied[r[0].(string)] {
				out = append(out, r)
			}
		}
		return out, nil
	}
	return nil, fmt.Errorf("no reference path for class %s", q.cls.name)
}

func filterRows(rows [][]any, col int, v any) [][]any {
	var out [][]any
	for _, r := range rows {
		if r[col] == v {
			out = append(out, r)
		}
	}
	return out
}

func projectRows(rows [][]any, col int) [][]any {
	out := make([][]any, len(rows))
	for i, r := range rows {
		out[i] = []any{r[col]}
	}
	return out
}

// sortedRows orders string rows by the key columns, breaking ties on
// the whole row as the engine's canonical order does.
func sortedRows(rows [][]any, keys ...int) [][]any {
	out := append([][]any(nil), rows...)
	less := func(a, b []any) int {
		for _, k := range keys {
			if c := compareStrings(a[k], b[k]); c != 0 {
				return c
			}
		}
		for k := range a {
			if c := compareStrings(a[k], b[k]); c != 0 {
				return c
			}
		}
		return 0
	}
	sort.Slice(out, func(i, j int) bool { return less(out[i], out[j]) < 0 })
	return out
}

func compareStrings(a, b any) int {
	x, y := a.(string), b.(string)
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	}
	return 0
}
