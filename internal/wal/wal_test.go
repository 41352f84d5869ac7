package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dfdbm/internal/catalog"
	"dfdbm/internal/heap"
	"dfdbm/internal/obs"
	"dfdbm/internal/query"
	"dfdbm/internal/relalg"
	"dfdbm/internal/relation"
)

func evSchema() *relation.Schema {
	return relation.MustSchema(
		relation.Attr{Name: "id", Type: relation.Int32},
		relation.Attr{Name: "tag", Type: relation.String, Width: 6},
	)
}

// seedCatalog builds the deterministic starting catalog every wal test
// recovers back to: one relation "ev" with 8 tuples.
func seedCatalog(t testing.TB) *catalog.Catalog {
	t.Helper()
	r := relation.MustNew("ev", evSchema(), 128)
	for i := 0; i < 8; i++ {
		if err := r.Insert(relation.Tuple{relation.IntVal(int64(i)), relation.StringVal("seed")}); err != nil {
			t.Fatal(err)
		}
	}
	c := catalog.New()
	c.Put(r)
	return c
}

// testOp is a logical write op that can be applied both to a
// heap-backed catalog (through AppendRecord + Apply, exactly like the
// server) and to a fully resident reference catalog. Byte-identity of
// the two after any op sequence is the storage subsystem's core
// invariant.
type testOp struct {
	kind     string // "append" or "delete"
	start, n int    // append: first id and tuple count
	pred     string // delete: predicate text
}

// testOps is the shared op sequence: appends and deletes that exercise
// multi-page payloads, compaction, and predicate replay.
func testOps() []testOp {
	return []testOp{
		{kind: "append", start: 100, n: 5},
		{kind: "delete", pred: "id < 2"},
		{kind: "append", start: 200, n: 30}, // several pages
		{kind: "delete", pred: `(id >= 200) and (id < 210)`},
		{kind: "append", start: 300, n: 3},
		{kind: "delete", pred: "tag = \"seed\""},
	}
}

func buildSrc(t testing.TB, start, n int) *relation.Relation {
	t.Helper()
	src := relation.MustNew("src", evSchema(), 128)
	for i := 0; i < n; i++ {
		if err := src.Insert(relation.Tuple{relation.IntVal(int64(start + i)), relation.StringVal("wal")}); err != nil {
			t.Fatal(err)
		}
	}
	return src
}

// opRecord builds op's redo record against cat's live state
// (AppendRecord's physical images depend on the destination's current
// page layout).
func opRecord(t testing.TB, cat *catalog.Catalog, op testOp) *Record {
	t.Helper()
	if op.kind == "delete" {
		return &Record{Type: RecDelete, Rel: "ev", Pred: op.pred}
	}
	dst, err := cat.Get("ev")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := AppendRecord(dst, buildSrc(t, op.start, op.n))
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// applyOp builds op's redo record, logs it, and applies it — the same
// log-then-apply order the server uses. It returns the log error.
func applyOp(t testing.TB, l *Log, cat *catalog.Catalog, op testOp) error {
	t.Helper()
	rec := opRecord(t, cat, op)
	if _, err := l.Append(rec); err != nil {
		return err
	}
	if _, err := rec.Apply(cat); err != nil {
		t.Fatalf("apply %s: %v", op.kind, err)
	}
	return nil
}

// applyReference applies op to a resident catalog without the log:
// appends insert tuple by tuple and deletes run relalg.Delete in
// place, the paths the heap-backed redo images must reproduce.
func applyReference(t testing.TB, cat *catalog.Catalog, op testOp) {
	t.Helper()
	dst, err := cat.Get("ev")
	if err != nil {
		t.Fatal(err)
	}
	if op.kind == "delete" {
		root, err := query.Parse(fmt.Sprintf("delete(ev, %s)", op.pred))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := relalg.Delete(dst, root.Pred); err != nil {
			t.Fatal(err)
		}
		return
	}
	err = buildSrc(t, op.start, op.n).Each(func(tu relation.Tuple) bool {
		err = dst.Insert(tu)
		return err == nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// referenceCatalog is the seed with ops applied by applyReference.
func referenceCatalog(t testing.TB, ops []testOp) *catalog.Catalog {
	t.Helper()
	c := seedCatalog(t)
	for _, op := range ops {
		applyReference(t, c, op)
	}
	return c
}

func saveBytes(t testing.TB, c *catalog.Catalog) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// prefixStates returns the resident reference's Save bytes after each
// prefix of ops: prefixStates[k] is seed + ops[:k].
func prefixStates(t testing.TB, ops []testOp) [][]byte {
	t.Helper()
	out := make([][]byte, 0, len(ops)+1)
	for k := 0; k <= len(ops); k++ {
		out = append(out, saveBytes(t, referenceCatalog(t, ops[:k])))
	}
	return out
}

// requirePagesEqual asserts got (heap-backed) and want (resident) hold
// byte-identical pages — the "identical to in-memory Relation by
// construction" contract, checked at the marshalled-page level so slot
// layout drift cannot hide behind tuple-level equality.
func requirePagesEqual(t testing.TB, got, want *relation.Relation) {
	t.Helper()
	if got.NumPages() != want.NumPages() {
		t.Fatalf("page count %d, want %d", got.NumPages(), want.NumPages())
	}
	if got.Cardinality() != want.Cardinality() {
		t.Fatalf("cardinality %d, want %d", got.Cardinality(), want.Cardinality())
	}
	for i := 0; i < want.NumPages(); i++ {
		gp, err := got.CopyPage(i)
		if err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
		if !bytes.Equal(gp.Marshal(), want.Page(i).Marshal()) {
			t.Fatalf("page %d differs between heap file and resident reference", i)
		}
	}
}

// heapOptions sizes the buffer pool: 0 is the default budget, which
// holds every test relation; a handful of frames forces eviction and
// write-back churn.
func heapOptions(frames int) Options {
	return Options{Heap: &HeapOptions{Frames: frames}}
}

// openSeeded opens dir, seeding and checkpointing a fresh directory.
func openSeeded(t testing.TB, dir string, opts Options) (*Log, *catalog.Catalog) {
	t.Helper()
	l, cat, rv, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rv.Fresh {
		cat = seedCatalog(t)
		if err := l.Checkpoint(cat); err != nil {
			t.Fatal(err)
		}
	}
	return l, cat
}

// TestRoundtripRecovery logs the op sequence with a pool that holds
// the whole relation, closes without flushing (a crash, as far as the
// heap files know), and recovers byte-identically.
func TestRoundtripRecovery(t *testing.T) { runRoundtripRecovery(t, 0) }

// runRoundtripRecovery is the log/close/recover round trip over a
// buffer pool of the given size.
func runRoundtripRecovery(t *testing.T, frames int) {
	dir := t.TempDir()
	l, cat := openSeeded(t, dir, heapOptions(frames))
	ops := testOps()
	lastDelete := -1
	for i, op := range ops {
		if err := applyOp(t, l, cat, op); err != nil {
			t.Fatal(err)
		}
		if op.kind == "delete" {
			lastDelete = i
		}
	}
	rel, err := cat.Get("ev")
	if err != nil {
		t.Fatal(err)
	}
	if !rel.Stored() {
		t.Fatal("checkpointed relation is not heap-backed")
	}
	ref := referenceCatalog(t, ops)
	want := saveBytes(t, ref)
	if got := saveBytes(t, cat); !bytes.Equal(got, want) {
		t.Fatal("live heap-backed catalog differs from resident reference")
	}
	lastLSN := l.LastLSN()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Close does not flush dirty frames: reopening is a genuine
	// recovery, replaying the log tail into the heap file.
	l2, cat2, rv, err := Open(dir, heapOptions(frames))
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rv.Fresh {
		t.Fatal("recovery reported a fresh directory")
	}
	// A delete rewrites the heap file with its own LSN as base, so
	// only the records after the last delete replay.
	if want := len(ops) - 1 - lastDelete; rv.Replayed != want {
		t.Fatalf("replayed %d records, want %d", rv.Replayed, want)
	}
	if rv.TornTail {
		t.Fatal("clean shutdown reported a torn tail")
	}
	if l2.LastLSN() != lastLSN {
		t.Fatalf("recovered LastLSN %d, want %d", l2.LastLSN(), lastLSN)
	}
	if got := saveBytes(t, cat2); !bytes.Equal(got, want) {
		t.Fatal("recovered catalog is not byte-identical to the reference")
	}
	wantRel, _ := ref.Get("ev")
	gotRel, _ := cat2.Get("ev")
	requirePagesEqual(t, gotRel, wantRel)

	// Appends continue with dense LSNs after recovery.
	lsn, err := l2.Append(opRecord(t, cat2, testOp{kind: "append", start: 900, n: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != lastLSN+1 {
		t.Fatalf("post-recovery LSN %d, want %d", lsn, lastLSN+1)
	}
}

func TestGroupCommitSharesFsync(t *testing.T) {
	const writers = 8
	reg := obs.NewRegistry(time.Second)
	o := obs.New(nil, reg)
	dir := t.TempDir()

	l, cat := openSeeded(t, dir, Options{Obs: o})
	recs := make([]*Record, writers)
	for w := range recs {
		recs[w] = opRecord(t, cat, testOp{kind: "append", start: 1000 + 10*w, n: 2})
	}

	// Hold the flusher on its first post-seed batch until every writer
	// is either inside that batch or queued behind it, forcing the
	// stragglers into one shared fsync.
	var gateOnce sync.Once
	testFlushGate = func(l *Log, batch []*appendReq) {
		gateOnce.Do(func() {
			for {
				l.mu.Lock()
				n := len(l.queue)
				l.mu.Unlock()
				if n+len(batch) >= writers {
					break
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
	defer func() { testFlushGate = nil }()

	var wg sync.WaitGroup
	var mu sync.Mutex
	lsns := map[uint64]bool{}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lsn, err := l.Append(recs[w])
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			lsns[lsn] = true
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Dense, unique LSNs 2..writers+1 (the checkpoint record took 1).
	if len(lsns) != writers {
		t.Fatalf("%d unique LSNs for %d writers", len(lsns), writers)
	}
	for lsn := uint64(2); lsn <= writers+1; lsn++ {
		if !lsns[lsn] {
			t.Fatalf("LSN %d missing: not dense", lsn)
		}
	}
	// The gate guarantees the writers landed in at most two batches
	// (the held one plus everything queued behind it), so fsyncs must
	// be strictly fewer than records: that is group commit.
	records := reg.Counter("wal.records")
	fsyncs := reg.Counter("wal.fsyncs")
	if records != writers+1 {
		t.Fatalf("wal.records = %d, want %d", records, writers+1)
	}
	if fsyncs >= records {
		t.Fatalf("group commit did not batch: %d fsyncs for %d records", fsyncs, records)
	}
	if max := reg.FindHistogram("wal.group_commit_size").Max(); max < 2 {
		t.Fatalf("largest group commit was %d records, want >= 2", max)
	}
}

func TestRotationAndPrune(t *testing.T) {
	reg := obs.NewRegistry(time.Second)
	dir := t.TempDir()
	// Tiny segments force rotation every record or two.
	l, cat := openSeeded(t, dir, Options{SegmentSize: 512, Obs: obs.New(nil, reg)})
	for i := 0; i < 10; i++ {
		if err := applyOp(t, l, cat, testOp{kind: "append", start: 1000 + 10*i, n: 4}); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := listSegments(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("only %d segments after 10 oversized appends", len(segs))
	}

	// Checkpoint prunes everything the heap files now cover but the
	// last segment.
	if err := l.Checkpoint(cat); err != nil {
		t.Fatal(err)
	}
	after, err := listSegments(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 1 {
		t.Fatalf("%d segments survive a covering checkpoint, want 1", len(after))
	}
	if pruned := reg.Counter("wal.segments_pruned"); int(pruned) != len(segs)-1 {
		t.Fatalf("wal.segments_pruned = %d, want %d", pruned, len(segs)-1)
	}
	want := saveBytes(t, cat)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, cat2, rv, err := Open(dir, Options{SegmentSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rv.Replayed != 0 {
		t.Fatalf("replayed %d records after a covering checkpoint, want 0", rv.Replayed)
	}
	if got := saveBytes(t, cat2); !bytes.Equal(got, want) {
		t.Fatal("recovered catalog differs after rotation + prune")
	}
}

func TestCheckpointSkipsWhenClean(t *testing.T) {
	reg := obs.NewRegistry(time.Second)
	dir := t.TempDir()
	l, cat := openSeeded(t, dir, Options{Obs: obs.New(nil, reg)})
	defer l.Close()

	before := l.LastLSN()
	if err := l.Checkpoint(cat); err != nil {
		t.Fatal(err)
	}
	if after := l.LastLSN(); after != before {
		t.Fatalf("no-op checkpoint logged a record (LSN %d -> %d)", before, after)
	}
	if skipped := reg.Counter("wal.checkpoints_skipped"); skipped != 1 {
		t.Fatalf("wal.checkpoints_skipped = %d, want 1", skipped)
	}

	// A write makes the next checkpoint real again.
	if err := applyOp(t, l, cat, testOp{kind: "append", start: 500, n: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(cat); err != nil {
		t.Fatal(err)
	}
	if ckpts := reg.Counter("wal.checkpoints"); ckpts != 2 {
		t.Fatalf("wal.checkpoints = %d, want 2", ckpts)
	}
}

func TestTornTailTruncated(t *testing.T) {
	reg := obs.NewRegistry(time.Second)
	dir := t.TempDir()
	l, cat := openSeeded(t, dir, Options{})
	for _, op := range testOps() {
		if err := applyOp(t, l, cat, op); err != nil {
			t.Fatal(err)
		}
	}
	want := saveBytes(t, cat)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// A crash mid-write: the last segment gains half a record.
	segs, err := listSegments(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	last := segs[len(segs)-1].path
	full := encode(&Record{Type: RecDelete, Rel: "ev", Pred: "id < 0", LSN: 999})
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(full[:len(full)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	sizeBefore, _ := os.Stat(last)

	l2, cat2, rv, err := Open(dir, Options{Obs: obs.New(nil, reg)})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if !rv.TornTail {
		t.Fatal("torn tail not detected")
	}
	if rv.TruncatedBytes != int64(len(full)/2) {
		t.Fatalf("truncated %d bytes, want %d", rv.TruncatedBytes, len(full)/2)
	}
	if got := saveBytes(t, cat2); !bytes.Equal(got, want) {
		t.Fatal("recovered catalog differs after torn-tail truncation")
	}
	if n := reg.Counter("wal.torn_tail_truncations"); n != 1 {
		t.Fatalf("wal.torn_tail_truncations = %d, want 1", n)
	}
	sizeAfter, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if sizeAfter.Size() != sizeBefore.Size()-int64(len(full)/2) {
		t.Fatalf("segment not truncated: %d -> %d", sizeBefore.Size(), sizeAfter.Size())
	}
}

// TestCrashPointMatrix walks the crash injector across every write and
// every fsync of the op sequence, in both clean-fail and torn-write
// shapes, with a pool that holds the whole relation, and asserts the
// recovered catalog is always exactly a prefix of the acknowledged
// writes: everything acked survives, nothing is ever half-applied.
func TestCrashPointMatrix(t *testing.T) { runCrashPointMatrix(t, 0) }

// runCrashPointMatrix is the crash-point walk over a buffer pool of the
// given size. Recovery must land on the acked prefix, or the acked
// prefix plus the single in-flight record the crash interrupted
// (durable but unacknowledged — atomic either way).
func runCrashPointMatrix(t *testing.T, frames int) {
	ops := testOps()
	states := prefixStates(t, ops)

	type point struct {
		name string
		inj  *Injector
	}
	var points []point
	// Record writes: 1 is the checkpoint record, 2.. are the ops.
	for n := int64(1); n <= int64(len(ops))+1; n++ {
		points = append(points,
			point{fmt.Sprintf("write%d-fail", n), &Injector{FailWrite: n}},
			point{fmt.Sprintf("write%d-torn", n), &Injector{FailWrite: n, Torn: true}},
		)
	}
	for n := int64(1); n <= int64(len(ops))+1; n++ {
		points = append(points, point{fmt.Sprintf("sync%d-fail", n), &Injector{FailSync: n}})
	}

	for _, pt := range points {
		t.Run(pt.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := heapOptions(frames)
			opts.Injector = pt.inj
			l, _, rv, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !rv.Fresh {
				t.Fatal("expected fresh directory")
			}
			cat := seedCatalog(t)
			acked := 0
			crashed := false
			if err := l.Checkpoint(cat); err != nil {
				if !Injected(err) {
					t.Fatalf("checkpoint failed for a non-injected reason: %v", err)
				}
				crashed = true
			}
			if !crashed {
				for _, op := range ops {
					if err := applyOp(t, l, cat, op); err != nil {
						if !Injected(err) {
							t.Fatalf("append failed for a non-injected reason: %v", err)
						}
						crashed = true
						break
					}
					acked++
				}
			}
			if !crashed && acked == len(ops) {
				t.Fatal("injector never fired; crash point out of range")
			}
			l.Close()

			_, cat2, rv2, err := Open(dir, heapOptions(frames))
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			if rv2.Fresh {
				if acked != 0 {
					t.Fatalf("fresh recovery but %d writes were acked", acked)
				}
				return
			}
			got := saveBytes(t, cat2)
			if !bytes.Equal(got, states[acked]) &&
				(acked+1 >= len(states) || !bytes.Equal(got, states[acked+1])) {
				t.Fatalf("recovered state is not the acked prefix (%d acked): %s", acked, rv2)
			}
		})
	}
}

// TestWALCorruptionEveryFlipAndTruncation is the log half of the
// corruption property test: for every single-byte flip and every
// truncation of the live segment, recovery must never panic and never
// produce anything but a clean prefix of the logged writes — and
// Inspect must stay total too.
func TestWALCorruptionEveryFlipAndTruncation(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive corruption sweep")
	}
	// Small ops keep the segment short enough to flip every byte, and
	// FsyncNone keeps the thousands of recovery runs off the disk's
	// flush path (crash atomicity is not under test here — decoding is).
	ops := []testOp{
		{kind: "append", start: 100, n: 3},
		{kind: "delete", pred: "id < 2"},
		{kind: "append", start: 200, n: 2},
	}
	states := prefixStates(t, ops)

	src := t.TempDir()
	l, cat := openSeeded(t, src, Options{Fsync: FsyncNone})
	// The seed checkpoint's heap files are every mutated copy's
	// recovery base: they cover LSN 0, so replay reads the whole log.
	heapFiles := map[string][]byte{}
	ents, err := os.ReadDir(filepath.Join(src, "heap"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, "heap", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		heapFiles[e.Name()] = b
	}
	for _, op := range ops {
		if err := applyOp(t, l, cat, op); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(filepath.Join(src, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("expected a single segment, got %d", len(segs))
	}
	segBytes, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	segName := filepath.Base(segs[0].path)

	check := func(t *testing.T, mutated []byte, what string) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("recovery panicked on %s: %v", what, r)
			}
		}()
		dir := t.TempDir()
		for _, sub := range []string{"wal", "heap"} {
			if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
				t.Fatal(err)
			}
		}
		for name, b := range heapFiles {
			if err := os.WriteFile(filepath.Join(dir, "heap", name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, "wal", segName), mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Inspect(dir, nil); err != nil && errors.Is(err, ErrCorrupt) {
			t.Fatalf("Inspect returned hard corruption on %s: %v", what, err)
		}
		l, cat, _, err := Open(dir, Options{Fsync: FsyncNone})
		if err != nil {
			// A refusal is allowed; silence with a wrong state is not.
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open on %s: unexpected error class: %v", what, err)
			}
			return
		}
		got := saveBytes(t, cat)
		l.Close()
		for _, want := range states {
			if bytes.Equal(got, want) {
				return
			}
		}
		t.Fatalf("recovery of %s produced a state that is no prefix of the log", what)
	}

	for i := range segBytes {
		for _, bit := range []byte{0x01, 0x80} {
			mutated := bytes.Clone(segBytes)
			mutated[i] ^= bit
			check(t, mutated, fmt.Sprintf("flip byte %d ^ %#x", i, bit))
		}
	}
	for n := 0; n < len(segBytes); n++ {
		check(t, segBytes[:n], fmt.Sprintf("truncation to %d bytes", n))
	}
}

func TestInspect(t *testing.T) {
	dir := t.TempDir()
	l, cat := openSeeded(t, dir, Options{SegmentSize: 512})
	ops := testOps()
	for _, op := range ops {
		if err := applyOp(t, l, cat, op); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var seen []uint64
	rp, err := Inspect(dir, func(seg string, off int64, rec *Record) {
		seen = append(seen, rec.LSN)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rp.Clean() {
		t.Fatalf("clean directory inspected dirty: %+v", rp)
	}
	if rp.Records != len(ops)+1 || rp.FirstLSN != 1 || rp.LastLSN != uint64(len(ops))+1 {
		t.Fatalf("report records=%d first=%d last=%d, want %d/1/%d",
			rp.Records, rp.FirstLSN, rp.LastLSN, len(ops)+1, len(ops)+1)
	}
	if len(rp.Segments) < 2 {
		t.Fatalf("expected multiple segments, got %d", len(rp.Segments))
	}
	if len(rp.Heap) != 1 || rp.Heap[0].Err != nil {
		t.Fatalf("heap file report wrong: %+v", rp.Heap)
	}
	for i, lsn := range seen {
		if lsn != uint64(i)+1 {
			t.Fatalf("inspect order broken: record %d has LSN %d", i, lsn)
		}
	}

	// Torn tail shows up as a last-segment error, earlier segments clean.
	segs, _ := listSegments(filepath.Join(dir, "wal"))
	f, err := os.OpenFile(segs[len(segs)-1].path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{1, 2, 3})
	f.Close()
	rp2, err := Inspect(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rp2.Clean() {
		t.Fatal("torn tail inspected clean")
	}
	if last := rp2.Segments[len(rp2.Segments)-1]; last.Err == "" {
		t.Fatal("torn tail not attributed to the last segment")
	}
}

// TestInterruptedInitIsFresh reopens data directories whose first
// initialisation stopped before its seed checkpoint committed a heap
// manifest: after Open alone, with the first segment's header torn,
// and with the seed's heap files written but no manifest. Each holds
// no log record, so each must reopen Fresh, take the seed, and then
// recover it.
func TestInterruptedInitIsFresh(t *testing.T) {
	cases := []struct {
		name  string
		crash func(t *testing.T, dir string)
	}{
		{"open-then-close", func(*testing.T, string) {}},
		{"torn-segment-header", func(t *testing.T, dir string) {
			if err := os.Truncate(filepath.Join(dir, "wal", segName(1)), segHeaderLen/2); err != nil {
				t.Fatal(err)
			}
		}},
		{"heap-files-without-manifest", func(t *testing.T, dir string) {
			hs, err := heap.OpenStore(filepath.Join(dir, "heap"), 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			rel, _ := seedCatalog(t).Get("ev")
			if err := hs.Adopt(rel, 0); err != nil {
				t.Fatal(err)
			}
			if err := hs.Close(); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, _, rv, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !rv.Fresh {
				t.Fatal("first open of an empty directory is not fresh")
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			tc.crash(t, dir)

			l2, cat, rv, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !rv.Fresh || cat != nil {
				t.Fatalf("interrupted initialisation reopened as %q with a catalog, want fresh", rv)
			}
			seed := seedCatalog(t)
			want := saveBytes(t, seed)
			if err := l2.Checkpoint(seed); err != nil {
				t.Fatal(err)
			}
			if err := l2.Close(); err != nil {
				t.Fatal(err)
			}

			l3, cat, rv, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer l3.Close()
			if rv.Fresh || cat == nil {
				t.Fatal("seeded directory reopened fresh")
			}
			if got := saveBytes(t, cat); !bytes.Equal(got, want) {
				t.Fatal("recovered seed differs from the seed")
			}
		})
	}
}

// dirTree maps every path under root to its contents ("/" for a
// directory), so a test can assert that an operation changed nothing.
func dirTree(t *testing.T, root string) map[string]string {
	t.Helper()
	tree := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			tree[path] = "/"
			return nil
		}
		b, err := os.ReadFile(path)
		tree[path] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestOpenRefusesUnreadableDir covers what heap-only recovery cannot
// read: log records with no heap manifest to replay them onto, a
// whole-catalog checkpoint file of the retired snapshot layout, and a
// checksummed record of the retired logical-append type. Open must
// fail with ErrCorrupt naming the cause, and remove or rewrite nothing
// — never reseed over acknowledged writes, never truncate them away.
func TestOpenRefusesUnreadableDir(t *testing.T) {
	cases := []struct {
		name, cause string
		damage      func(t *testing.T, dir string)
	}{
		{"records-without-manifest", "no heap manifest", func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, "heap", "manifest")); err != nil {
				t.Fatal(err)
			}
		}},
		{"snapshot-layout-checkpoint", "checkpoint.db", func(t *testing.T, dir string) {
			// The retired layout kept LSN-named whole-catalog .db files in
			// the root and no heap directory.
			if err := os.RemoveAll(filepath.Join(dir, "heap")); err != nil {
				t.Fatal(err)
			}
			if err := seedCatalog(t).SaveFile(filepath.Join(dir, "checkpoint.db")); err != nil {
				t.Fatal(err)
			}
		}},
		{"retired-record-type", "unknown record type 1", func(t *testing.T, dir string) {
			segs, err := listSegments(filepath.Join(dir, "wal"))
			if err != nil {
				t.Fatal(err)
			}
			last := segs[len(segs)-1].path
			f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.Write(encode(&Record{Type: 1, LSN: uint64(len(testOps())) + 2})); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, cat := openSeeded(t, dir, Options{})
			for _, op := range testOps() {
				if err := applyOp(t, l, cat, op); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			tc.damage(t, dir)
			before := dirTree(t, dir)

			l2, cat2, _, err := Open(dir, Options{})
			if err == nil {
				l2.Close()
				t.Fatalf("Open served the directory (catalog %v), want a refusal", cat2 != nil)
			}
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), tc.cause) {
				t.Fatalf("Open error %q, want ErrCorrupt naming %q", err, tc.cause)
			}
			if after := dirTree(t, dir); !reflect.DeepEqual(after, before) {
				t.Fatal("refused Open changed the directory")
			}
		})
	}
}

// TestAppendRecordRefusesResident pins that a resident (unstored)
// destination gets an error, not a record: only heap files take redo.
func TestAppendRecordRefusesResident(t *testing.T) {
	dst, err := seedCatalog(t).Get("ev")
	if err != nil {
		t.Fatal(err)
	}
	if rec, err := AppendRecord(dst, buildSrc(t, 0, 1)); err == nil {
		t.Fatalf("AppendRecord on a resident relation built a %s record", rec.Type)
	}
}

// TestHardCrashExitCode pins the injector's in-process kill -9: Hard
// exits with 137 through the stubbed exit hook.
func TestHardCrashExitCode(t *testing.T) {
	var code int
	in := &Injector{FailWrite: 1, Hard: true, exit: func(c int) { code = c; panic("exited") }}
	func() {
		defer func() { recover() }()
		in.onWrite(nil, []byte{1, 2})
	}()
	if code != 137 {
		t.Fatalf("hard crash exit code %d, want 137", code)
	}
}
