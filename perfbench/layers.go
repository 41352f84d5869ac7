package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"dfdbm/internal/catalog"
	"dfdbm/internal/core"
	"dfdbm/internal/query"
	"dfdbm/internal/relation"
	"dfdbm/internal/wal"
	"dfdbm/internal/wire"
	"dfdbm/internal/workload"
)

// The layer replays time one call into each layer's public functions
// per span, on the live catalog while the server is idle. They run the
// same calls the served path makes, in the same order, so their self
// times split the server's Exec stage and the client's decode.

// replayStats are the replay measurements that are not span times.
type replayStats struct {
	requests  int
	allocs    uint64 // heap allocations made by the core engine, summed
	wireBytes int64  // encoded result frames, summed
}

// replayReads replays served reads through parse, bind, the core
// engine (with the server's options), the result snapshot, wire encode
// and decode, and client reassembly, then runs the serial reference on
// the same bound tree. ids are the served requests' span ids.
func replayReads(tr *tracer, cat *catalog.Catalog, eng *core.Engine, p *plan, reqs, ids []int) (replayStats, error) {
	var st replayStats
	var m0, m1 runtime.MemStats
	for k, q := range reqs {
		id, text := ids[k], p.requests[q].text
		root := tr.begin("replay", -1, id)
		s := tr.begin("query.Parse", root, id)
		node, err := query.Parse(text)
		tr.end(s)
		if err != nil {
			return st, err
		}
		s = tr.begin("query.Bind", root, id)
		tree, err := query.Bind(node, cat)
		tr.end(s)
		if err != nil {
			return st, err
		}
		runtime.ReadMemStats(&m0)
		s = tr.begin("core.ExecuteContext", root, id)
		res, err := eng.ExecuteContext(context.Background(), tree)
		tr.end(s)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return st, err
		}
		st.allocs += m1.Mallocs - m0.Mallocs
		s = tr.begin("server.snapshot", root, id)
		pages, attrs, err := snapshot(res.Relation)
		tr.end(s)
		if err != nil {
			return st, err
		}
		s = tr.begin("wire.WriteVersion", root, id)
		frames, err := encodeResult(res.Relation, pages, attrs)
		tr.end(s)
		if err != nil {
			return st, err
		}
		st.wireBytes += int64(len(frames))
		s = tr.begin("wire.ReadVersion", root, id)
		decoded, err := decodeFrames(frames)
		tr.end(s)
		if err != nil {
			return st, err
		}
		s = tr.begin("relation.decode", root, id)
		rel, err := reassemble(decoded)
		tr.end(s)
		tr.end(root)
		if err != nil {
			return st, err
		}
		if got, err := digestOf(rel); err != nil || got != p.requests[q].ref {
			return st, fmt.Errorf("replay of %s: answer differs from the serial reference", text)
		}
		s = tr.begin("query.ExecuteSerial", -1, id)
		_, err = query.ExecuteSerial(cat, tree, 0)
		tr.end(s)
		if err != nil {
			return st, err
		}
		st.requests++
	}
	return st, nil
}

// snapshot copies a result into wire-ready page blobs, as the server
// does inside the scheduled execution (EachPage + Page.Marshal).
func snapshot(rel *relation.Relation) ([][]byte, []wire.SchemaAttr, error) {
	schema := rel.Schema()
	attrs := make([]wire.SchemaAttr, schema.NumAttrs())
	for i := range attrs {
		a := schema.Attr(i)
		attrs[i] = wire.SchemaAttr{Name: a.Name, Type: uint8(a.Type), Width: uint32(a.Width)}
	}
	blobs := make([][]byte, 0, rel.NumPages())
	err := rel.EachPage(func(pg *relation.Page) error {
		blobs = append(blobs, pg.Marshal())
		return nil
	})
	return blobs, attrs, err
}

// encodeResult writes the result frames the server streams: one result
// page frame per page (the first carrying name, page size and schema)
// and the closing stats frame.
func encodeResult(rel *relation.Relation, pages [][]byte, attrs []wire.SchemaAttr) ([]byte, error) {
	var buf bytes.Buffer
	head := &wire.ResultPage{Seq: 0, Last: true, Name: rel.Name(), PageSize: uint32(rel.PageSize()), Schema: attrs}
	if len(pages) == 0 {
		if err := wire.WriteVersion(&buf, head, wire.Version); err != nil {
			return nil, err
		}
	}
	for i, blob := range pages {
		f := &wire.ResultPage{Seq: uint32(i), Last: i == len(pages)-1, Page: blob}
		if i == 0 {
			f.Name, f.PageSize, f.Schema = head.Name, head.PageSize, head.Schema
		}
		if err := wire.WriteVersion(&buf, f, wire.Version); err != nil {
			return nil, err
		}
	}
	err := wire.WriteVersion(&buf, &wire.Stats{Engine: "core", Tuples: int64(rel.Cardinality()), Pages: int64(len(pages))}, wire.Version)
	return buf.Bytes(), err
}

// decodeFrames reads result frames up to the stats frame.
func decodeFrames(b []byte) ([]*wire.ResultPage, error) {
	r := bytes.NewReader(b)
	var out []*wire.ResultPage
	for {
		f, err := wire.ReadVersion(r, wire.Version)
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		switch f := f.(type) {
		case *wire.ResultPage:
			out = append(out, f)
		case *wire.Stats:
			return out, nil
		default:
			return nil, fmt.Errorf("unexpected %s frame", f.Type())
		}
	}
}

// reassemble rebuilds the result relation from its page frames, as the
// client does (relation.UnmarshalPage + AppendPage).
func reassemble(frames []*wire.ResultPage) (*relation.Relation, error) {
	if len(frames) == 0 {
		return nil, fmt.Errorf("no result frames")
	}
	head := frames[0]
	attrs := make([]relation.Attr, len(head.Schema))
	for i, a := range head.Schema {
		attrs[i] = relation.Attr{Name: a.Name, Type: relation.Type(a.Type), Width: int(a.Width)}
	}
	schema, err := relation.NewSchema(attrs...)
	if err != nil {
		return nil, err
	}
	rel, err := relation.New(head.Name, schema, int(head.PageSize))
	if err != nil {
		return nil, err
	}
	for _, f := range frames {
		if len(f.Page) == 0 {
			continue
		}
		pg, err := relation.UnmarshalPage(f.Page)
		if err != nil {
			return nil, err
		}
		if err := rel.AppendPage(pg); err != nil {
			return nil, err
		}
	}
	return rel, nil
}

// Query classes of the Section 3.2 mix, by number of joins.
var classes = []struct {
	name    string
	queries []int // indexes into workload.QueryTexts
}{
	{"restrict", []int{0, 1}},
	{"join1", []int{2, 3, 4}},
	{"join2", []int{5, 6}},
	{"join3", []int{7}},
	{"join4", []int{8}},
	{"join5", []int{9}},
}

// classReps is how many times each paper query is replayed per engine.
const classReps = 5

// classStats compares the core engine with the serial reference per
// query class, and sums the Section 3.3 traffic counts over one run of
// the mix.
type classStats struct {
	coreMs, speedup          map[string]float64
	pagesMoved, packets, arb int64
}

// replayClasses runs each paper query on the serial reference and on
// the core engine, alternating, classReps times, and checks that the
// two agree. Span request ids start at base.
func replayClasses(tr *tracer, cat *catalog.Catalog, eng *core.Engine, base int) (*classStats, error) {
	texts := workload.QueryTexts()
	trees := make([]*query.Tree, len(texts))
	cs := &classStats{coreMs: map[string]float64{}, speedup: map[string]float64{}}
	for i, text := range texts {
		tree, err := query.Bind(query.MustParse(text), cat)
		if err != nil {
			return nil, err
		}
		trees[i] = tree
		ref, err := query.ExecuteSerial(cat, tree, 0)
		if err != nil {
			return nil, err
		}
		res, err := eng.ExecuteContext(context.Background(), tree)
		if err != nil {
			return nil, err
		}
		if !res.Relation.EqualMultiset(ref) {
			return nil, fmt.Errorf("core engine answer to %s differs from the serial reference", text)
		}
		cs.pagesMoved += res.Stats.PagesMoved
		cs.packets += res.Stats.InstructionPackets
		cs.arb += res.Stats.ArbitrationBytes
	}
	for _, c := range classes {
		var serial, par time.Duration
		for rep := 0; rep < classReps; rep++ {
			for _, q := range c.queries {
				id := base + q*classReps + rep
				s := tr.begin("query.ExecuteSerial", -1, id)
				_, err := query.ExecuteSerial(cat, trees[q], 0)
				tr.end(s)
				if err != nil {
					return nil, err
				}
				serial += tr.spans[s].end - tr.spans[s].start
				s = tr.begin("core.ExecuteContext", -1, id)
				_, err = eng.ExecuteContext(context.Background(), trees[q])
				tr.end(s)
				if err != nil {
					return nil, err
				}
				par += tr.spans[s].end - tr.spans[s].start
			}
		}
		n := float64(classReps * len(c.queries))
		cs.coreMs[c.name] = float64(par) / n / float64(time.Millisecond)
		cs.speedup[c.name] = float64(serial) / float64(par)
	}
	return cs, nil
}

// walReplay is what replaying the write schedule on a fresh data
// directory measured.
type walReplay struct {
	appendUs    []float64 // per write: wal.AppendRecord + Log.Append self time
	checkpoints int
	recovery    time.Duration
}

// replayWAL replays writes the way the server's durable path runs them
// (execute the append's input, wal.AppendRecord, Log.Append, then
// Record.Apply; auto-checkpoint past ckptEvery) on a fresh heap-backed
// data directory with frames buffer frames, then times recovery of
// that directory with wal.Open. Span request ids start at base.
func replayWAL(tr *tracer, dir string, writes []string, frames int, engOpts core.Options, base int) (*walReplay, error) {
	cat, err := workload.BuildDatabase(dbConfig)
	if err != nil {
		return nil, err
	}
	opts := wal.Options{Fsync: wal.FsyncCommit, Heap: &wal.HeapOptions{Frames: frames}}
	l, _, _, err := wal.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	defer l.Close()
	if err := l.Checkpoint(cat); err != nil {
		return nil, err
	}
	e := core.New(cat, engOpts)
	wr := &walReplay{}
	for i, text := range writes {
		id := base + i
		root := tr.begin("wal.write", -1, id)
		node, err := query.Parse(text)
		if err != nil {
			return nil, err
		}
		rec := &wal.Record{Type: wal.RecDelete, Rel: node.Rel}
		var appendRecord int
		if node.Kind == query.OpAppend {
			dst, err := cat.Get(node.Rel)
			if err != nil {
				return nil, err
			}
			src, err := query.Bind(node.Inputs[0], cat)
			if err != nil {
				return nil, err
			}
			s := tr.begin("core.ExecuteContext", root, id)
			res, err := e.ExecuteContext(context.Background(), src)
			tr.end(s)
			if err != nil {
				return nil, err
			}
			appendRecord = tr.begin("wal.AppendRecord", root, id)
			rec, err = wal.AppendRecord(dst, res.Relation)
			tr.end(appendRecord)
			if err != nil {
				return nil, err
			}
		} else {
			rec.Pred = node.Pred.String()
		}
		s := tr.begin("wal.Log.Append", root, id)
		_, err = l.Append(rec)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		d := tr.spans[s].end - tr.spans[s].start
		if node.Kind == query.OpAppend {
			d += tr.spans[appendRecord].end - tr.spans[appendRecord].start
		}
		wr.appendUs = append(wr.appendUs, us(d))
		s = tr.begin("wal.Record.Apply", root, id)
		_, err = rec.Apply(cat)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		if l.SizeSinceCheckpoint() >= ckptEvery {
			s = tr.begin("wal.Log.Checkpoint", root, id)
			err = l.Checkpoint(cat)
			tr.end(s)
			if err != nil {
				return nil, err
			}
			wr.checkpoints++
		}
		tr.end(root)
	}
	if err := l.Close(); err != nil {
		return nil, err
	}
	start := time.Now()
	l2, _, _, err := wal.Open(dir, opts)
	wr.recovery = time.Since(start)
	if err != nil {
		return nil, err
	}
	return wr, l2.Close()
}
