package main

import (
	"context"
	"fmt"
	"hash/maphash"
	"sync"
	"time"

	"dfdbm"
	"dfdbm/internal/relation"
)

// digest is an order-independent fingerprint of a relation's tuples:
// the tuple count and the wrapping sum of a hash of each tuple's bytes.
// The core engine's page layout depends on worker timing, so answers
// are compared as multisets of tuple bytes.
type digest struct {
	tuples int
	sum    uint64
}

var hashSeed = maphash.MakeSeed()

func digestOf(r *relation.Relation) (digest, error) {
	var d digest
	err := r.EachPage(func(pg *relation.Page) error {
		pg.EachRaw(func(raw []byte) bool {
			d.tuples++
			d.sum += maphash.Bytes(hashSeed, raw)
			return true
		})
		return nil
	})
	return d, err
}

// sample is one request as the client saw it. Times are offsets from
// the start of the measured window.
type sample struct {
	id    int // span request id: generator<<32 | sequence number
	req   int // index into plan.requests
	write bool
	open  bool // sent by an open-loop generator
	// due is when the request was scheduled (open loop) or when the
	// previous request completed (closed loop); ready is when the
	// session was free to send it: max(due, previous completion).
	due, ready, sent, done time.Duration
	failed                 bool
	// Stage breakdown from the server's Stats frame.
	admitWait, dispatch, exec, stream time.Duration
	deferred                          bool
	resultBytes                       int64
}

// latency is the user-visible latency: from the due time in an open
// loop, from the send in a closed one.
func (s *sample) latency() time.Duration {
	if s.open {
		return s.done - s.due
	}
	return s.done - s.sent
}

// driveResult is what one generator goroutine produced.
type driveResult struct {
	samples    []sample
	spans      []span
	mismatches []string
}

// drive runs every generator of p on its own session for the window and
// returns the merged samples. With tr set, each request is recorded as
// a span tree: the client round trip with the server's stages as
// children.
func drive(p *plan, clients []*dfdbm.Client, window time.Duration, tr *tracer) (*driveResult, time.Duration) {
	results := make([]driveResult, len(p.gens))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range p.gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local *tracer
			if tr != nil {
				local = tr.fork(start)
			}
			results[i] = runGenerator(&p.gens[i], i, p, clients[i], start, window, local)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var out driveResult
	var spans tracer
	for _, r := range results {
		out.samples = append(out.samples, r.samples...)
		out.mismatches = append(out.mismatches, r.mismatches...)
		spans.adopt(r.spans)
	}
	out.spans = spans.spans
	return &out, elapsed
}

// runGenerator is one session's generator loop. It sends one request at a
// time: an open-loop request whose due time passed while the previous
// one was in flight is sent late and its latency counts the wait.
func runGenerator(d *generator, id int, p *plan, c *dfdbm.Client, start time.Time, window time.Duration, tr *tracer) driveResult {
	var out driveResult
	var due, prevDone time.Duration
	for i := 0; ; i++ {
		open := d.rate > 0
		if open {
			due = time.Duration(float64(i) / d.rate * float64(time.Second))
			if due >= window {
				break
			}
			if wait := due - time.Since(start); wait > 0 {
				time.Sleep(wait)
			}
		} else {
			if prevDone >= window {
				break
			}
			due = prevDone
		}
		q := d.next()
		r := &p.requests[q]
		s := sample{id: id<<32 | i, req: q, write: r.write, open: open, due: due, ready: max(due, prevDone)}
		s.sent = time.Since(start)
		res, err := c.Query(context.Background(), r.text)
		s.done = time.Since(start)
		prevDone = s.done
		if err != nil {
			s.failed = true
			out.samples = append(out.samples, s)
			continue
		}
		st := res.Stats
		s.admitWait, s.dispatch, s.exec, s.stream = st.AdmitWait, st.Sched, st.Exec, st.Stream
		s.deferred, s.resultBytes = st.Deferred, st.ResultBytes
		out.samples = append(out.samples, s)
		if tr != nil {
			tr.served(&s)
		}
		if !r.write {
			if got, err := digestOf(res.Relation); err != nil || got != r.ref {
				out.mismatches = append(out.mismatches, fmt.Sprintf("%s: answer differs from the serial reference (%d tuples, want %d; err %v)",
					r.text, got.tuples, r.ref.tuples, err))
			}
		}
	}
	if tr != nil {
		out.spans = tr.spans
	}
	return out
}

// warm runs the plan's warm-up requests once, outside any measurement.
func warm(p *plan, c *dfdbm.Client) error {
	for _, q := range p.warm {
		if _, err := c.Query(context.Background(), p.requests[q].text); err != nil {
			return fmt.Errorf("warm-up %s: %w", p.requests[q].text, err)
		}
	}
	return nil
}
