// Command perfbench is dfdbm's end-to-end benchmark. It serves the
// paper's 15-relation database in process over loopback TCP through
// dfdbm.Serve and dfdbm.Dial, drives one workload against it, checks
// every answer, and prints the end-to-end metrics. With --trace 1 it
// runs the workload twice, untraced and traced, replays the traced
// requests one layer call at a time, and prints the per-layer metrics.
// The last line of standard output is a JSON summary. See README.md.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload paper-mix --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"dfdbm"
	"dfdbm/internal/catalog"
	"dfdbm/internal/query"
	"dfdbm/internal/workload"
)

// setupReps is how many times an untraced run sets the system up; it
// reports the median and serves from the last one.
const setupReps = 21

// genLagShare is the share of the open-loop requests' p99 latency that
// the generator's own lateness p99 may reach before the run is marked
// invalid: beyond it, the generator, not the server, shaped the tail.
const genLagShare = 0.5

func main() {
	name := flag.String("workload", "", "workload: paper-mix, point-lookup or durable-rw")
	seed := flag.Int64("seed", 1, "seed of the generated query texts and arrival times")
	seconds := flag.Int("seconds", 10, "length of each measured window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	flag.Parse()
	var wl *workloadSpec
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload paper-mix|point-lookup|durable-rw [--seed N] [--seconds S] [--trace 0|1]")
		os.Exit(2)
	}
	scratch := filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	code := run(wl, *seed, *seconds, *trace == 1, scratch)
	os.RemoveAll(scratch)
	os.Exit(code)
}

// run executes one benchmark run and prints its report; it returns the
// process exit code.
func run(wl *workloadSpec, seed int64, seconds int, traced bool, scratch string) int {
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%v\n", wl.name, seed, seconds, traced)
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return fail(err)
	}
	// The oracle is a resident copy of the database, built outside any
	// timing: serial reference answers and the durable-rw shadow come
	// from it, never from the system under test.
	oracle, err := workload.BuildDatabase(dbConfig)
	if err != nil {
		return fail(err)
	}
	window := time.Duration(seconds) * time.Second
	dir := filepath.Join(scratch, "data")

	reps := setupReps
	if traced {
		reps = 1
	}
	p, err := wl.plan(seed, seconds, oracle)
	if err != nil {
		return fail(err)
	}
	base, err := runPhase(wl, p, oracle, window, reps, dir, nil)
	if err != nil {
		return fail(err)
	}
	e := endToEnd(base, window)
	printEndToEnd(e, base)
	if !traced {
		return finish(base.mismatches, e.attempted, e.failed, []metric{
			{"setup_s", e.setup, "s"},
			{"qps", e.qps, "1/s"},
			{"read_p50_ms", e.readP50, "ms"},
			{"mem_peak_mb", e.memPeak, "MB"},
		})
	}

	p, err = wl.plan(seed, seconds, oracle)
	if err != nil {
		return fail(err)
	}
	tp, err := runPhase(wl, p, oracle, window, 1, dir, &layerRun{seconds: seconds, seed: seed})
	if err != nil {
		return fail(err)
	}
	te := endToEnd(tp, window)
	fmt.Println("traced phase:")
	printEndToEnd(te, tp)
	ms := perLayer(tp, te, base, e)
	path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-seed%d.jsonl", wl.name, seed))
	spans := tp.layers.spans()
	if err := writeSpans(path, spans); err != nil {
		return fail(err)
	}
	fmt.Printf("spans: %d written to %s\n", len(spans), path)
	return finish(append(base.mismatches, tp.mismatches...), te.attempted, te.failed, ms)
}

// metric is one named, unit-carrying value of the JSON summary.
type metric struct {
	name  string
	value float64
	unit  string
}

// finish prints the JSON summary as the last line of standard output.
// Any answer mismatch makes the run incorrect and the exit code 1.
func finish(mismatches []string, attempted, failed int, ms []metric) int {
	for _, m := range mismatches {
		fmt.Println("MISMATCH:", m)
	}
	out := map[string]map[string]any{}
	for _, m := range ms {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(mismatches) == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   out,
	})
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	if len(mismatches) > 0 {
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	return 1
}

// system is one served instance of the database.
type system struct {
	db      *dfdbm.DB
	log     *dfdbm.WAL // nil for resident workloads
	srv     *dfdbm.QueryServer
	clients []*dfdbm.Client
}

// start builds the database, initialises and reopens the data
// directory for heap-backed workloads, starts the server and dials one
// session per load goroutine: everything setup_s times.
func start(wl *workloadSpec, dir string, o *dfdbm.Observer) (*system, error) {
	db, _, err := dfdbm.PaperBenchmark(dbConfig)
	if err != nil {
		return nil, err
	}
	sys := &system{db: db}
	if wl.frames > 0 {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		opts := dfdbm.WALOptions{Fsync: dfdbm.FsyncCommit, Heap: &dfdbm.HeapOptions{Frames: wl.frames}}
		l, _, _, err := dfdbm.OpenWAL(dir, opts)
		if err != nil {
			return nil, err
		}
		if err := l.Checkpoint(db.Catalog()); err != nil {
			l.Close()
			return nil, err
		}
		if err := l.Close(); err != nil {
			return nil, err
		}
		opts.Obs = o
		l, sys.db, _, err = dfdbm.OpenWAL(dir, opts)
		if err != nil {
			return nil, err
		}
		sys.log = l
		if sys.db == nil {
			sys.close()
			return nil, fmt.Errorf("reopened %s holds no database", dir)
		}
	}
	sys.srv, err = dfdbm.Serve(sys.db, dfdbm.ServeConfig{
		Runners: nproc, MaxRunners: nproc, Workers: nproc, WAL: sys.log, CheckpointEvery: ckptEvery,
	})
	if err != nil {
		sys.close()
		return nil, err
	}
	for i := 0; i < nproc; i++ {
		c, err := dfdbm.Dial(sys.srv.Addr(), dfdbm.ClientConfig{Name: fmt.Sprintf("perfbench-%d", i)})
		if err != nil {
			sys.close()
			return nil, err
		}
		sys.clients = append(sys.clients, c)
	}
	return sys, nil
}

// close stops everything start started.
func (s *system) close() {
	for _, c := range s.clients {
		c.Close()
	}
	s.clients = nil
	if s.srv != nil {
		s.srv.Close()
	}
	if s.log != nil {
		s.log.Close()
	}
}

// phaseResult is one served run of a workload.
type phaseResult struct {
	setups   []time.Duration
	res      *driveResult
	elapsed  time.Duration
	cpu      time.Duration // process CPU time (user + system) over the window
	gens     []generator
	heap     bool
	spaceAmp float64
	// recovery is how long wal.Open took to reopen the post-run data
	// directory without a final checkpoint; replayed counts the log
	// records it replayed.
	recovery   time.Duration
	replayed   int
	writes     int   // acknowledged writes
	userBytes  int64 // tuple bytes the acknowledged appends added
	mismatches []string
	counters   map[string]int64 // bufpool.* and wal.* deltas over the window (traced heap runs)
	layers     *layerRun
}

// runPhase sets the system up reps times (timing each and serving from
// the last), warms it, drives the window, and checks the outcome. With
// lr set it is the traced phase: a metrics-only observer reads the
// storage counters, spans are recorded, and the layer replays run
// while the server is idle.
func runPhase(wl *workloadSpec, p *plan, oracle *catalog.Catalog, window time.Duration, reps int, dir string, lr *layerRun) (*phaseResult, error) {
	ph := &phaseResult{gens: p.gens, heap: wl.frames > 0, layers: lr}
	var sys *system
	var metrics *dfdbm.Metrics
	for k := 0; k < reps; k++ {
		var o *dfdbm.Observer
		if lr != nil && wl.frames > 0 {
			metrics = dfdbm.NewMetrics(time.Second)
			o = dfdbm.NewObserver(nil, metrics)
		}
		t0 := time.Now()
		s, err := start(wl, dir, o)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		ph.setups = append(ph.setups, time.Since(t0))
		if k < reps-1 {
			s.close()
			continue
		}
		sys = s
	}
	defer sys.close()
	if err := warm(p, sys.clients[0]); err != nil {
		return nil, err
	}
	counters := func() map[string]int64 {
		m := map[string]int64{}
		if metrics != nil {
			for _, n := range []string{"bufpool.hits", "bufpool.misses", "bufpool.evictions", "bufpool.writebacks", "wal.fsyncs", "wal.bytes", "wal.records", "wal.checkpoints"} {
				m[n] = metrics.Counter(n)
			}
		}
		return m
	}
	before := counters()
	var tr *tracer
	if lr != nil {
		lr.tr = newTracer()
		tr = lr.tr
	}
	cpu0 := cpuTime()
	ph.res, ph.elapsed = drive(p, sys.clients, window, tr)
	ph.cpu = cpuTime() - cpu0
	ph.mismatches = ph.res.mismatches
	ph.counters = counters()
	for n, v := range before {
		ph.counters[n] -= v
	}
	if lr != nil {
		lr.served = ph.res.spans
		if err := lr.replay(p, ph, sys, oracle, dir); err != nil {
			return nil, err
		}
	}
	for _, c := range sys.clients {
		c.Close()
	}
	sys.clients = nil
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sys.srv.Shutdown(ctx); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}
	if ph.heap {
		if err := checkDurable(wl, p, oracle, sys, dir, ph); err != nil {
			return nil, err
		}
	}
	return ph, nil
}

// checkDurable runs the storage checks after a heap-backed run: space
// amplification; for writes, r11..r14 against a shadow that replays
// the acknowledged writes serially on a resident copy; and a reopen
// without a final checkpoint, so recovery replays the log tail, whose
// relations must be byte-identical to the live ones.
func checkDurable(wl *workloadSpec, p *plan, oracle *catalog.Catalog, sys *system, dir string, ph *phaseResult) error {
	size, err := dirBytes(dir)
	if err != nil {
		return err
	}
	ph.spaceAmp = float64(size) / float64(sys.db.TotalBytes())

	var acked []string
	for _, s := range ph.res.samples {
		if s.write && !s.failed {
			acked = append(acked, p.requests[s.req].text)
		}
	}
	ph.writes = len(acked)
	if len(acked) > 0 {
		shadow, userBytes, err := shadowReplay(oracle, acked)
		if err != nil {
			return err
		}
		ph.userBytes = userBytes
		for _, name := range written {
			live, err := sys.db.Get(name)
			if err != nil {
				return err
			}
			want, err := shadow.Get(name)
			if err != nil {
				return err
			}
			if !live.EqualMultiset(want) {
				ph.mismatches = append(ph.mismatches, fmt.Sprintf("%s after %d acknowledged writes: %d tuples, shadow has %d",
					name, len(acked), live.Cardinality(), want.Cardinality()))
			}
		}
	}

	live, err := pageImages(sys.db.Catalog())
	if err != nil {
		return err
	}
	if err := sys.log.Close(); err != nil {
		return err
	}
	sys.log = nil
	t0 := time.Now()
	l, db, rv, err := dfdbm.OpenWAL(dir, dfdbm.WALOptions{Fsync: dfdbm.FsyncCommit, Heap: &dfdbm.HeapOptions{Frames: wl.frames}})
	ph.recovery = time.Since(t0)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer l.Close()
	ph.replayed = rv.Replayed
	if db == nil {
		return fmt.Errorf("reopen of %s found no database", dir)
	}
	got, err := pageImages(db.Catalog())
	if err != nil {
		return err
	}
	for name, pages := range live {
		if !samePages(pages, got[name]) {
			ph.mismatches = append(ph.mismatches, fmt.Sprintf("%s after recovery (%d records replayed) is not byte-identical to the live relation", name, rv.Replayed))
		}
	}
	if len(got) != len(live) {
		ph.mismatches = append(ph.mismatches, fmt.Sprintf("recovery found %d relations, live had %d", len(got), len(live)))
	}
	return l.Close()
}

// written are the relations the durable-rw writes change.
var written = []string{"r11", "r12", "r13", "r14"}

// shadowReplay applies the acknowledged writes, in order, with the
// serial executor to a resident copy of the database. It returns the
// copy and the tuple bytes the appends added.
func shadowReplay(oracle *catalog.Catalog, acked []string) (*catalog.Catalog, int64, error) {
	shadow := catalog.New()
	for _, name := range oracle.Names() {
		r, err := oracle.Get(name)
		if err != nil {
			return nil, 0, err
		}
		for _, w := range written {
			if w == name {
				r = r.Clone(name)
			}
		}
		shadow.Put(r)
	}
	var added int64
	for _, text := range acked {
		tree, err := query.Bind(query.MustParse(text), shadow)
		if err != nil {
			return nil, 0, err
		}
		dst, err := shadow.Get(tree.Root().Rel)
		if err != nil {
			return nil, 0, err
		}
		n := dst.Cardinality()
		if _, err := query.ExecuteSerial(shadow, tree, 0); err != nil {
			return nil, 0, fmt.Errorf("shadow %s: %w", text, err)
		}
		if d := dst.Cardinality() - n; d > 0 {
			added += int64(d * dst.Schema().TupleLen())
		}
	}
	return shadow, added, nil
}

// pageImages returns every relation's pages in wire form.
func pageImages(cat *catalog.Catalog) (map[string][][]byte, error) {
	out := map[string][][]byte{}
	for _, name := range cat.Names() {
		r, err := cat.Get(name)
		if err != nil {
			return nil, err
		}
		blobs, _, err := snapshot(r)
		if err != nil {
			return nil, err
		}
		out[name] = blobs
	}
	return out, nil
}

func samePages(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if string(a[i]) != string(b[i]) {
			return false
		}
	}
	return true
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// e2eMetrics are the end-to-end results of one phase.
type e2eMetrics struct {
	setup                                float64 // s, median over setups
	qps, qpsWindow                       float64
	readP50, readP99, writeP50, writeP99 float64 // ms; NaN when the phase has no such requests
	reads, writes, attempted, failed     int
	failedFrac                           float64
	cpuPerQuery                          float64 // ms of process CPU time per completed request
	memPeak                              float64 // MB
	genLateP50, genLateP99               float64 // ms
	openLateP99, openP99                 float64 // ms: generator lateness and latency p99 of open-loop requests; NaN without any
	offered, achieved                    float64 // open-loop requests per second; 0 without open-loop generators
}

func endToEnd(ph *phaseResult, window time.Duration) *e2eMetrics {
	e := &e2eMetrics{setup: median(durations(ph.setups, time.Second))}
	var readLat, writeLat, late, openLate, openLat []float64
	completedOpen := 0
	for _, s := range ph.res.samples {
		e.attempted++
		lat := math.Inf(1) // a failed request misses every latency percentile
		if s.failed {
			e.failed++
		} else {
			lat = ms(s.latency())
		}
		if s.write {
			e.writes++
			writeLat = append(writeLat, lat)
		} else {
			e.reads++
			readLat = append(readLat, lat)
		}
		l := ms(s.sent - s.ready)
		late = append(late, l)
		if s.open {
			openLate = append(openLate, l)
			openLat = append(openLat, lat)
			if !s.failed {
				completedOpen++
			}
		}
	}
	secs := ph.elapsed.Seconds()
	e.qpsWindow = float64(e.attempted-e.failed) / secs
	e.qps = sliced(ph.res.samples, window)
	e.cpuPerQuery = ms(ph.cpu) / float64(max(e.attempted-e.failed, 1))
	e.readP50, e.readP99 = percentile(readLat, 0.50), percentile(readLat, 0.99)
	e.writeP50, e.writeP99 = percentile(writeLat, 0.50), percentile(writeLat, 0.99)
	e.failedFrac = float64(e.failed) / float64(max(e.attempted, 1))
	e.genLateP50, e.genLateP99 = percentile(late, 0.50), percentile(late, 0.99)
	e.openLateP99, e.openP99 = percentile(openLate, 0.99), percentile(openLat, 0.99)
	for _, d := range ph.gens {
		e.offered += d.rate
	}
	if e.offered > 0 {
		e.achieved = float64(completedOpen) / secs
	}
	e.memPeak = vmHWM()
	return e
}

// sliceLen is the sub-window over which qps is counted. It is reported
// as the interquartile mean over the window's slices, so interference
// from the shared host that lasts less than a quarter of the window
// does not move it.
const sliceLen = time.Second

// sliced returns the interquartile mean over the window's slices of the
// requests completed per second.
func sliced(samples []sample, window time.Duration) float64 {
	done := make([]float64, int(window/sliceLen))
	for _, s := range samples {
		if k := int(s.done / sliceLen); !s.failed && k < len(done) {
			done[k]++
		}
	}
	return iqm(done) / sliceLen.Seconds()
}

// iqm returns the mean of the values between the first and third
// quartiles, NaN for no values.
func iqm(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	s = s[len(s)/4 : len(s)-len(s)/4]
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

func (e *e2eMetrics) valid() bool {
	return math.IsNaN(e.openLateP99) || e.openLateP99 <= genLagShare*e.openP99
}

func printEndToEnd(e *e2eMetrics, ph *phaseResult) {
	row := func(name string, v float64, unit, note string) {
		if math.IsNaN(v) {
			fmt.Printf("  %-16s %14s %-5s %s\n", name, "absent", unit, note)
			return
		}
		fmt.Printf("  %-16s %14.4f %-5s %s\n", name, v, unit, note)
	}
	setups := make([]string, len(ph.setups))
	for i, d := range ph.setups {
		setups[i] = fmt.Sprintf("%.3f", d.Seconds())
	}
	fmt.Println("end to end:")
	row("setup_s", e.setup, "s", "median of "+strings.Join(setups, ", "))
	row("qps", e.qps, "1/s", fmt.Sprintf("interquartile mean of %v slices; whole window %.4f (%d completed in %.2f s)",
		sliceLen, e.qpsWindow, e.attempted-e.failed, ph.elapsed.Seconds()))
	row("read_p50_ms", e.readP50, "ms", fmt.Sprintf("%d reads", e.reads))
	row("read_p99_ms", e.readP99, "ms", "")
	note := fmt.Sprintf("%d writes", e.writes)
	if e.writes == 0 {
		note = "read-only workload"
	}
	row("write_p50_ms", e.writeP50, "ms", note)
	row("write_p99_ms", e.writeP99, "ms", "")
	row("failed_frac", e.failedFrac, "frac", fmt.Sprintf("%d of %d attempted", e.failed, e.attempted))
	amp, ampNote := math.NaN(), "resident relations, no data directory"
	if ph.heap {
		amp, ampNote = ph.spaceAmp, "data-directory bytes over catalog bytes at the end of the run"
	}
	row("space_amp", amp, "ratio", ampNote)
	row("cpu_ms_per_query", e.cpuPerQuery, "ms", "process CPU time, client and server, per completed request")
	row("mem_peak_mb", e.memPeak, "MB", "VmHWM")
	fmt.Println("generator:")
	if e.offered > 0 {
		row("offered_qps", e.offered, "1/s", "open-loop schedule")
		row("achieved_qps", e.achieved, "1/s", "open-loop requests completed")
	}
	row("gen.late_p50_ms", e.genLateP50, "ms", "send minus the instant the session was free to send")
	row("gen.late_p99_ms", e.genLateP99, "ms", "")
	valid := "valid"
	if !e.valid() {
		valid = fmt.Sprintf("INVALID: open-loop generator lateness p99 %.3f ms exceeds %.0f%% of those requests' latency p99 %.3f ms",
			e.openLateP99, 100*genLagShare, e.openP99)
	}
	fmt.Println("  run:", valid)
}

func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the nearest-rank q-quantile, NaN for no values.
func percentile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(vs []float64) float64 { return percentile(vs, 0.5) }

// vmHWM returns the process's peak resident set size in MB.
func vmHWM() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			var kb float64
			if _, err := fmt.Sscan(f[1], &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// cpuTime returns the CPU time the process has used, user plus system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
