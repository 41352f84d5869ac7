package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Times are offsets from the tracer's epoch.
type span struct {
	name       string
	parent     int // index of the parent span in the same slice, -1 for a root
	req        int // request the span belongs to
	start, end time.Duration
}

// tracer keeps spans in memory. It is not safe for concurrent use:
// each load goroutine records into its own fork.
type tracer struct {
	epoch time.Time
	// offset shifts times measured from another origin (a generator's
	// window start) onto the epoch.
	offset time.Duration
	spans  []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// fork returns an empty tracer on the same epoch whose recorded times
// are offsets from origin.
func (t *tracer) fork(origin time.Time) *tracer {
	return &tracer{epoch: t.epoch, offset: origin.Sub(t.epoch)}
}

// adopt appends spans recorded by a fork, re-basing parent indexes.
func (t *tracer) adopt(spans []span) {
	base := len(t.spans)
	for _, s := range spans {
		if s.parent >= 0 {
			s.parent += base
		}
		t.spans = append(t.spans, s)
	}
}

func (t *tracer) begin(name string, parent, req int) int {
	t.spans = append(t.spans, span{name: name, parent: parent, req: req, start: time.Since(t.epoch), end: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].end = time.Since(t.epoch) }

func (t *tracer) record(name string, parent, req int, start, end time.Duration) int {
	t.spans = append(t.spans, span{name: name, parent: parent, req: req, start: start + t.offset, end: end + t.offset})
	return len(t.spans) - 1
}

// served records one served request: the client round trip as the root
// and the server's stages from its Stats frame as children. The server
// reports stage durations, not instants, so the children are laid back
// to back from the send.
func (t *tracer) served(s *sample) {
	req := s.id
	root := t.record("client.Query", -1, req, s.sent, s.done)
	at := s.sent
	for _, st := range []struct {
		name string
		d    time.Duration
	}{{"server.admit_wait", s.admitWait}, {"server.dispatch", s.dispatch}, {"server.exec", s.exec}, {"server.stream", s.stream}} {
		t.record(st.name, root, req, at, at+st.d)
		at += st.d
	}
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].start < spans[ks[b]].start })
		covered, reach := time.Duration(0), s.start
		for _, k := range ks {
			lo, hi := max(spans[k].start, reach), min(spans[k].end, s.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// layerTimes groups span self times by span name.
type layerTimes map[string][]time.Duration

func aggregate(spans []span) layerTimes {
	self := selfTimes(spans)
	lt := layerTimes{}
	for i, s := range spans {
		lt[s.name] = append(lt[s.name], self[i])
	}
	return lt
}

// mean returns the mean self time of the named spans, in units of unit.
func (lt layerTimes) mean(name string, unit time.Duration) float64 {
	if len(lt[name]) == 0 {
		return 0
	}
	return float64(lt.sum(name)) / float64(len(lt[name])) / float64(unit)
}

// sum returns the total self time of the named spans.
func (lt layerTimes) sum(name string) time.Duration {
	var sum time.Duration
	for _, d := range lt[name] {
		sum += d
	}
	return sum
}

// writeSpans writes the spans as JSON lines: id, parent, request, name,
// start and end in microseconds from the epoch, and self time.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	self := selfTimes(spans)
	for i, s := range spans {
		err := enc.Encode(struct {
			ID     int     `json:"id"`
			Parent int     `json:"parent"`
			Req    int     `json:"req"`
			Name   string  `json:"name"`
			Start  float64 `json:"start_us"`
			End    float64 `json:"end_us"`
			Self   float64 `json:"self_us"`
		}{i, s.parent, s.req, s.name, us(s.start), us(s.end), us(self[i])})
		if err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
