package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"divlaws"
	"divlaws/internal/server"
)

// engine is one set-up instance of the shipped engine: a DB with the
// workload's options and, for serve_mix, an in-process server over it
// on a loopback listener.
type engine struct {
	db     *divlaws.DB
	srv    *server.Server
	hs     *http.Server
	url    string
	served chan error
}

// dbOptions are the workload's engine options. An unbudgeted
// workload asks for an explicitly unlimited budget, so the
// environment cannot turn spilling on.
func dbOptions(w *workload) []divlaws.Option {
	limit := w.memLimit
	if limit == 0 {
		limit = -1
	}
	return []divlaws.Option{divlaws.WithWorkers(w.workers), divlaws.WithMemoryLimit(limit)}
}

// setup builds the relations through the public API, registers them
// and, for serve_mix, starts the server and waits until /healthz
// answers. trace, when set, wraps the handler with a span per
// request.
func setup(w *workload, ds *dataset, trace *tracer) (*engine, error) {
	sup, err := divlaws.NewRelation([]string{"s#", "p#"}, ds.supRows)
	if err != nil {
		return nil, err
	}
	parts, err := divlaws.NewRelation([]string{"p#", "color"}, ds.partRows)
	if err != nil {
		return nil, err
	}
	e := &engine{db: divlaws.Open(dbOptions(w)...)}
	if err := e.db.Register("supplies", sup); err != nil {
		return nil, err
	}
	if err := e.db.Register("parts", parts); err != nil {
		return nil, err
	}
	if !w.serve {
		return e, nil
	}
	e.srv = server.New(e.db, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.hs = &http.Server{Handler: traceHandler(e.srv, trace)}
	e.url = "http://" + ln.Addr().String()
	e.served = make(chan error, 1)
	go func() { e.served <- e.hs.Serve(ln) }()
	if err := waitHealthy(e.url); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func waitHealthy(url string) error {
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := client.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("server at %s not healthy after 10s", url)
}

// close stops the server, if any, and waits for it to exit.
func (e *engine) close() {
	if e.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = e.hs.Shutdown(ctx) // a timeout still closes the listener
	if err := <-e.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "perfbench: server:", err)
	}
	e.hs = nil
}

// outcome is one query as the client saw it.
type outcome struct {
	q        query
	latency  time.Duration // from due (open loop) or send (closed loop) to the last row
	firstRow time.Duration // until the first row, or the end of an empty result
	lag      time.Duration // how late the open-loop generator sent it
	rows     int64
	err      error
}

// queryEmbedded runs q through DB.Query and checks its rows against
// the reference. spillDir, when set, must be empty once the query
// has closed.
func queryEmbedded(ctx context.Context, db *divlaws.DB, q query, ref *reference, corrupt bool, spillDir string) outcome {
	out := outcome{q: q}
	start := time.Now()
	rows, err := db.Query(ctx, q.cls.sql, q.args...)
	if err != nil {
		out.err = err
		out.latency = time.Since(start)
		return out
	}
	check := newChecker(ref, corrupt)
	var row []any
	var dest []any
	first := true
	for rows.Next() {
		if first {
			out.firstRow, first = time.Since(start), false
			row = make([]any, len(rows.Columns()))
			dest = ptrs(row)
		}
		if err := rows.Scan(dest...); err != nil {
			out.err = err
			break
		}
		check.add(row)
	}
	if first {
		out.firstRow = time.Since(start)
	}
	if err := rows.Err(); err != nil && out.err == nil {
		out.err = err
	}
	if err := rows.Close(); err != nil && out.err == nil {
		out.err = err
	}
	out.latency = time.Since(start)
	out.rows = check.d.n
	if out.err == nil {
		out.err = check.verify()
	}
	if out.err == nil && spillDir != "" {
		s := rows.Stats().Spill
		out.err = checkSpill(s.PeakBytes, s.Limit, spillDir)
	}
	return out
}

// checkSpill asserts the out-of-core invariants after a query: the
// charged peak stayed within the budget and no spill file outlived
// the query.
func checkSpill(peak, limit int64, dir string) error {
	if peak > limit {
		return fmt.Errorf("spill: peak charge %d exceeds the budget %d", peak, limit)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("spill: %w", err)
	}
	if len(ents) > 0 {
		return fmt.Errorf("spill: %d entries left in %s", len(ents), dir)
	}
	return nil
}

// closedLoop runs the sequence through DB.Query, one query at a time,
// until seconds have passed and a pass is complete.
func closedLoop(ctx context.Context, db *divlaws.DB, seq *sequence, refs references, seconds float64, corrupt bool, spillDir string) ([]outcome, time.Duration) {
	var outs []outcome
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for len(outs) == 0 || !seq.passStart() || time.Now().Before(deadline) {
		q := seq.next()
		outs = append(outs, queryEmbedded(ctx, db, q, refs[q.key], corrupt, spillDir))
	}
	return outs, time.Since(start)
}
