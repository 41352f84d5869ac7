package main

import (
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"time"

	"dfdbm/internal/catalog"
	"dfdbm/internal/core"
)

// replayLimit bounds how many served reads the traced run replays, and
// walReplayWrites how many writes of the durable-rw schedule it replays
// on a fresh data directory.
const (
	replayLimit     = 200
	walReplayWrites = 300
)

// Span request ids of the replays that do not replay a served request.
const (
	classBase = 1 << 40
	walBase   = 2 << 40
)

// layerRun is the traced phase's extra work and what it recorded.
type layerRun struct {
	seconds int
	seed    int64

	tr     *tracer // shared epoch
	served []span  // client round trips with server stages
	reads  *tracer // replayed served reads
	paper  *tracer // paper-mix classes on serial and core
	walT   *tracer // write schedule replayed on a fresh data directory

	rs replayStats
	cs *classStats
	wr *walReplay
}

// replay runs the layer replays while the server is idle: the first
// served reads on the live catalog, the ten paper queries per class on
// the oracle, and the write schedule on a fresh data directory.
func (lr *layerRun) replay(p *plan, ph *phaseResult, sys *system, oracle *catalog.Catalog, dir string) error {
	cfg := sys.srv.Config()
	opts := core.Options{Granularity: cfg.Granularity, Workers: cfg.Workers, PageSize: cfg.PageSize}
	cat := sys.db.Catalog()
	eng := core.New(cat, opts)
	var reqs, ids []int
	for _, s := range ph.res.samples {
		if !s.write && !s.failed && len(reqs) < replayLimit {
			reqs = append(reqs, s.req)
			ids = append(ids, s.id)
		}
	}
	// One untimed pass over a few requests fills the fresh engine's page
	// pool, as the served engine's was.
	if _, err := replayReads(&tracer{epoch: lr.tr.epoch}, cat, eng, p, reqs[:min(len(reqs), 10)], ids); err != nil {
		return err
	}
	var err error
	lr.reads = &tracer{epoch: lr.tr.epoch}
	if lr.rs, err = replayReads(lr.reads, cat, eng, p, reqs, ids); err != nil {
		return err
	}
	// The class comparison runs on the oracle: the fixed, resident
	// database, so it measures the engines alone and its Section 3.3
	// counts are exact on every workload.
	lr.paper = &tracer{epoch: lr.tr.epoch}
	if lr.cs, err = replayClasses(lr.paper, oracle, core.New(oracle, opts), classBase); err != nil {
		return err
	}
	lr.walT = &tracer{epoch: lr.tr.epoch}
	writes := writeTexts(lr.seed, min(walReplayWrites, int(math.Ceil(writeRate*float64(lr.seconds)))))
	lr.wr, err = replayWAL(lr.walT, filepath.Join(filepath.Dir(dir), "wal-replay"), writes, rwFrames, opts, walBase)
	return err
}

// spans returns every span the traced phase recorded.
func (lr *layerRun) spans() []span {
	var all tracer
	all.adopt(lr.served)
	for _, t := range []*tracer{lr.reads, lr.paper, lr.walT} {
		if t != nil {
			all.adopt(t.spans)
		}
	}
	return all.spans
}

// perLayer computes and prints the per-layer metrics of the traced
// phase tp (with end-to-end results te). The end-to-end diagnostics
// come from the untraced phase bp (with end-to-end results base), which
// is also the reference for the tracing overhead.
func perLayer(tp *phaseResult, te *e2eMetrics, bp *phaseResult, base *e2eMetrics) []metric {
	lr := tp.layers
	reads := aggregate(lr.reads.spans)

	// Served stages per request, from the Stats frames. The scheduler
	// metrics cover every request; the stage reconciliation covers reads.
	var admit []float64
	var dispatch, deferred, n float64
	var rd struct{ n, rtt, admit, dispatch, exec, stream, residual float64 }
	for _, s := range tp.res.samples {
		if s.failed {
			continue
		}
		n++
		admit = append(admit, us(s.admitWait))
		dispatch += us(s.dispatch)
		if s.deferred {
			deferred++
		}
		if s.write {
			continue
		}
		r := s.done - s.sent
		rd.n++
		rd.rtt += us(r)
		rd.admit += us(s.admitWait)
		rd.dispatch += us(s.dispatch)
		rd.exec += us(s.exec)
		rd.stream += us(s.stream)
		// Unclamped: stage clocks and the client's clock differ, so a
		// small negative residual is a measurement, not an error.
		rd.residual += us(r - s.admitWait - s.dispatch - s.exec - s.stream)
	}
	for _, v := range []*float64{&rd.rtt, &rd.admit, &rd.dispatch, &rd.exec, &rd.stream, &rd.residual} {
		*v /= rd.n
	}
	clientDecode := reads.mean("wire.ReadVersion", time.Microsecond) + reads.mean("relation.decode", time.Microsecond)

	ms := []metric{
		{"read_p99_ms", base.readP99, "ms"},
		{"cpu_ms_per_query", base.cpuPerQuery, "ms"},
		{"query.parse_us", reads.mean("query.Parse", time.Microsecond), "us"},
		{"query.bind_us", reads.mean("query.Bind", time.Microsecond), "us"},
		{"query.serial_ms", reads.mean("query.ExecuteSerial", time.Millisecond), "ms"},
		{"sched.admit_wait_p50_us", percentile(admit, 0.50), "us"},
		{"sched.admit_wait_p99_us", percentile(admit, 0.99), "us"},
		{"sched.dispatch_us", dispatch / n, "us"},
		{"sched.deferred_frac", deferred / n, "frac"},
		{"core.exec_ms", reads.mean("core.ExecuteContext", time.Millisecond), "ms"},
		{"core.speedup_vs_serial", float64(reads.sum("query.ExecuteSerial")) / float64(reads.sum("core.ExecuteContext")), "x"},
		{"core.allocs_per_query", float64(lr.rs.allocs) / float64(lr.rs.requests), "count"},
	}
	for _, c := range classes {
		ms = append(ms, metric{"core.exec_ms." + c.name, lr.cs.coreMs[c.name], "ms"})
	}
	for _, c := range classes {
		ms = append(ms, metric{"core.speedup." + c.name, lr.cs.speedup[c.name], "x"})
	}
	ms = append(ms,
		metric{"core.pages_moved", float64(lr.cs.pagesMoved), "count"},
		metric{"core.instruction_packets", float64(lr.cs.packets), "count"},
		metric{"core.arbitration_bytes", float64(lr.cs.arb), "bytes"},
		metric{"server.exec_ms", rd.exec / 1000, "ms"},
		metric{"server.snapshot_us", reads.mean("server.snapshot", time.Microsecond), "us"},
		metric{"server.stream_us", rd.stream, "us"},
		metric{"server.residual_us", rd.residual, "us"},
		metric{"recon.unattributed_us", rd.residual - clientDecode, "us"},
		metric{"wire.encode_us", reads.mean("wire.WriteVersion", time.Microsecond), "us"},
		metric{"wire.decode_us", reads.mean("wire.ReadVersion", time.Microsecond), "us"},
		metric{"wire.bytes_per_query", float64(lr.rs.wireBytes) / float64(lr.rs.requests), "bytes"},
		metric{"relation.decode_us", reads.mean("relation.decode", time.Microsecond), "us"},
	)
	walApp := lr.wr.appendUs
	ckptMs := aggregate(lr.walT.spans).mean("wal.Log.Checkpoint", time.Millisecond)
	c := tp.counters
	perWrite := func(v int64) float64 {
		if tp.writes == 0 {
			return math.NaN()
		}
		return float64(v) / float64(tp.writes)
	}
	perQuery := func(v int64) float64 {
		if !tp.heap {
			return math.NaN()
		}
		return float64(v) / n
	}
	hitRate := math.NaN()
	if tp.heap && c["bufpool.hits"]+c["bufpool.misses"] > 0 {
		hitRate = float64(c["bufpool.hits"]) / float64(c["bufpool.hits"]+c["bufpool.misses"])
	}
	bytesPerUser := math.NaN()
	if tp.userBytes > 0 {
		bytesPerUser = float64(c["wal.bytes"]) / float64(tp.userBytes)
	}
	spaceAmp := math.NaN()
	if bp.heap {
		spaceAmp = bp.spaceAmp
	}
	recovery := tp.recovery.Seconds()
	if !tp.heap {
		recovery = lr.wr.recovery.Seconds()
	}
	ms = append(ms,
		metric{"wal.append_p50_us", percentile(walApp, 0.50), "us"},
		metric{"wal.append_p99_us", percentile(walApp, 0.99), "us"},
		metric{"wal.fsyncs_per_write", perWrite(c["wal.fsyncs"]), "ratio"},
		metric{"wal.bytes_per_user_byte", bytesPerUser, "ratio"},
		metric{"wal.checkpoints", float64(c["wal.checkpoints"]), "count"},
		metric{"wal.checkpoint_ms", ckptMs, "ms"},
		metric{"wal.recovery_s", recovery, "s"},
		metric{"heap.hit_rate", hitRate, "frac"},
		metric{"heap.misses_per_query", perQuery(c["bufpool.misses"]), "ratio"},
		metric{"heap.evictions_per_query", perQuery(c["bufpool.evictions"]), "ratio"},
		metric{"heap.writebacks_per_write", perWrite(c["bufpool.writebacks"]), "ratio"},
		metric{"gen.late_p99_ms", base.genLateP99, "ms"},
		metric{"gen.offered_qps", openOnly(base.offered), "1/s"},
		metric{"gen.achieved_qps", openOnly(base.achieved), "1/s"},
		metric{"trace.overhead_read_p50", te.readP50/base.readP50 - 1, "frac"},
		metric{"trace.overhead_qps", te.qps/base.qps - 1, "frac"},
		metric{"space_amp", spaceAmp, "ratio"},
		metric{"failed_frac", base.failedFrac, "frac"},
	)

	fmt.Println("per layer:")
	for _, m := range ms {
		if math.IsNaN(m.value) {
			fmt.Printf("  %-28s %14s %-6s %s\n", m.name, "absent", m.unit, absentReason(m.name, tp.heap))
			continue
		}
		fmt.Printf("  %-28s %14.4f %s\n", m.name, m.value, m.unit)
	}
	fmt.Println("where a read's time goes (mean per read, client round trip against server stages):")
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"rtt", rd.rtt}, {"admit_wait", rd.admit}, {"dispatch", rd.dispatch}, {"exec", rd.exec}, {"stream", rd.stream},
		{"residual (unclamped)", rd.residual}, {"  client decode (replay)", clientDecode}, {"  unattributed", rd.residual - clientDecode},
	} {
		fmt.Printf("  %-26s %12.1f us %6.1f%%\n", r.name, r.v, 100*r.v/rd.rtt)
	}
	fmt.Printf("exec split (replay, mean per read, us): bind %.1f + core %.1f + snapshot %.1f; parse on the session %.1f; wire encode %.1f\n",
		reads.mean("query.Bind", time.Microsecond), reads.mean("core.ExecuteContext", time.Microsecond),
		reads.mean("server.snapshot", time.Microsecond), reads.mean("query.Parse", time.Microsecond),
		reads.mean("wire.WriteVersion", time.Microsecond))
	fmt.Printf("tracing overhead: read_p50_ms %.4f traced vs %.4f untraced, qps %.1f traced vs %.1f untraced\n",
		te.readP50, base.readP50, te.qps, base.qps)
	if tp.heap {
		fmt.Printf("recovery: reopen replayed %d log records in %.3f s; WAL replay: %d writes, %d checkpoints\n",
			tp.replayed, tp.recovery.Seconds(), len(lr.wr.appendUs), lr.wr.checkpoints)
	}
	return ms
}

// absentReason says why a per-layer metric has no value on a workload.
// The JSON summary carries 0 for it.
func absentReason(name string, heap bool) string {
	switch {
	case !heap && (strings.HasPrefix(name, "heap.") || name == "space_amp"):
		return "resident relations: no data directory or buffer pool"
	case strings.HasPrefix(name, "wal."), name == "heap.writebacks_per_write":
		return "read-only workload: no acknowledged writes"
	case strings.HasPrefix(name, "gen."):
		return "closed loop: no arrival schedule"
	}
	return "not measured on this workload"
}

// openOnly maps the open-loop rates of a workload without open-loop
// generators, which are 0, to absent.
func openOnly(v float64) float64 {
	if v == 0 {
		return math.NaN()
	}
	return v
}
