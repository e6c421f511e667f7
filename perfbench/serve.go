package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"divlaws/internal/server"
)

// Open-loop client shape: at most two goroutines over at most two
// connections.
const clientConns = 2

// Headers that carry the client's span to the traced handler.
const (
	hdrQuery = "X-Bench-Query"
	hdrSpan  = "X-Bench-Span"
)

// traceHandler wraps the server with a span around ServeHTTP, the
// child of the client span named in the request headers. With a nil
// tracer it returns h unchanged.
func traceHandler(h http.Handler, tr *tracer) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		qid, err1 := strconv.ParseInt(r.Header.Get(hdrQuery), 10, 64)
		parent, err2 := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 32)
		if err1 != nil || err2 != nil {
			h.ServeHTTP(w, r)
			return
		}
		id := tr.begin("server.handler", qid, int32(parent))
		defer tr.end(id)
		h.ServeHTTP(w, r)
	})
}

// wire is what one request saw on the ndjson stream.
type wire struct {
	ttfb, stream time.Duration // until the response header; header to trailer
	elapsedMS    float64       // the trailer's server-side time
	bytes        int64
}

// openCount is how many requests fill seconds at the workload's
// rate, rounded up to whole colour rotations, so every run issues the
// same mix of classes and colours.
func openCount(seq *sequence, w *workload, seconds float64) int {
	round := seq.passLen() * len(seq.pools.colors)
	return int(math.Ceil(seconds*w.rate/float64(round))) * round
}

// openLoop sends the next n queries of the sequence to the server on
// a fixed schedule of the workload's rate. Each request is timed from
// when it was due, so a stall also delays the requests queued behind
// it; lag records how late each was sent.
func openLoop(ctx context.Context, e *engine, seq *sequence, refs references, w *workload, n int, corrupt bool, tr *tracer) ([]outcome, []wire, time.Duration) {
	qs := make([]query, n)
	for i := range qs {
		qs[i] = seq.next()
	}
	outs := make([]outcome, n)
	wires := make([]wire, n)
	transport := &http.Transport{MaxConnsPerHost: clientConns, MaxIdleConnsPerHost: clientConns, DisableCompression: true}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}

	period := time.Duration(float64(time.Second) / w.rate)
	start := time.Now().Add(10 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < clientConns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * period)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				outs[i], wires[i] = request(ctx, client, e.url, qs[i], refs[qs[i].key], due, tr.newQuery(), corrupt, tr)
			}
		}()
	}
	wg.Wait()
	return outs, wires, time.Since(start)
}

// request sends one query and reads its ndjson stream to the end,
// checking the rows against the reference.
func request(ctx context.Context, client *http.Client, url string, q query, ref *reference, due time.Time, qid int64, corrupt bool, tr *tracer) (outcome, wire) {
	out := outcome{q: q}
	var wr wire
	sent := time.Now()
	out.lag = sent.Sub(due)
	span := int32(-1)
	if tr != nil {
		span = tr.begin("client.request", qid, -1)
		defer tr.end(span)
	}
	finish := func(err error) (outcome, wire) {
		now := time.Now()
		out.err = err
		out.latency = now.Sub(due)
		if out.firstRow == 0 {
			out.firstRow = out.latency
		}
		return out, wr
	}
	body, err := json.Marshal(server.Request{Query: q.cls.sql, Args: q.args})
	if err != nil {
		return finish(err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/query", bytes.NewReader(body))
	if err != nil {
		return finish(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tr != nil {
		req.Header.Set(hdrQuery, strconv.FormatInt(qid, 10))
		req.Header.Set(hdrSpan, strconv.FormatInt(int64(span), 10))
	}
	resp, err := client.Do(req)
	if err != nil {
		return finish(err)
	}
	defer resp.Body.Close()
	header := time.Now()
	wr.ttfb = header.Sub(sent)
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return finish(fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg)))
	}
	check := newChecker(ref, corrupt)
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	var sawHeader bool
	for {
		line, err := br.ReadSlice('\n')
		wr.bytes += int64(len(line))
		if errors.Is(err, io.EOF) && len(line) == 0 {
			return finish(errors.New("stream ended without a trailer"))
		}
		if err != nil && !errors.Is(err, io.EOF) {
			return finish(fmt.Errorf("reading the stream: %w", err))
		}
		// Row lines are hashed as the raw JSON array; only the header,
		// trailer and error lines are decoded.
		if raw, ok := rowBytes(line); ok {
			if out.firstRow == 0 {
				out.firstRow = time.Since(due)
			}
			check.addEncoded(raw)
			continue
		}
		var l server.Line
		if err := json.Unmarshal(line, &l); err != nil {
			return finish(fmt.Errorf("bad stream line: %w", err))
		}
		switch {
		case l.Header != nil:
			sawHeader = true
		case l.Trailer != nil:
			wr.stream = time.Since(header)
			wr.elapsedMS = l.Trailer.ElapsedMS
			out.rows = check.d.n
			switch {
			case !sawHeader:
				return finish(errors.New("stream without a header"))
			case l.Trailer.Rows != check.d.n:
				return finish(fmt.Errorf("trailer counts %d rows, stream carried %d", l.Trailer.Rows, check.d.n))
			case q.cls.ordered && !l.Trailer.Ordered:
				return finish(errors.New("ordered query streamed without the ordering guarantee"))
			}
			return finish(check.verify())
		case l.Error != "":
			return finish(fmt.Errorf("stream error: %s", l.Error))
		default:
			return finish(fmt.Errorf("unexpected stream line %q", line))
		}
	}
}

// rowBytes returns the JSON array of a row line, {"row":[...]}.
func rowBytes(line []byte) ([]byte, bool) {
	const prefix = `{"row":`
	line = bytes.TrimRight(line, "\n")
	if !bytes.HasPrefix(line, []byte(prefix)) || !bytes.HasSuffix(line, []byte("}")) {
		return nil, false
	}
	return line[len(prefix) : len(line)-1], true
}
