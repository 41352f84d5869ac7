package wal

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"dfdbm/internal/obs"
)

// TestHeapRoundtripRecovery is the round trip through a 4-frame pool,
// so replay installs pages through eviction and write-back.
func TestHeapRoundtripRecovery(t *testing.T) { runRoundtripRecovery(t, 4) }

// TestHeapCheckpointSkipsReplay pins the per-relation base-LSN skip: a
// checkpoint advances the heap file's recovery horizon, so reopening
// replays only records logged after it.
func TestHeapCheckpointSkipsReplay(t *testing.T) {
	dir := t.TempDir()
	l, cat := openSeeded(t, dir, heapOptions(4))
	ops := testOps()
	for i, op := range ops {
		if err := applyOp(t, l, cat, op); err != nil {
			t.Fatal(err)
		}
		if i == 2 {
			if err := l.Checkpoint(cat); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := saveBytes(t, cat)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, cat2, rv, err := Open(dir, heapOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	if rv.Replayed >= len(ops) {
		t.Fatalf("replayed %d records despite a mid-sequence checkpoint", rv.Replayed)
	}
	if got := saveBytes(t, cat2); !bytes.Equal(got, want) {
		t.Fatal("recovered catalog differs after checkpointed recovery")
	}
}

// TestHeapCrashPointMatrix is the crash-point walk through a 4-frame
// pool, so crashes land while eviction write-backs are in flight.
func TestHeapCrashPointMatrix(t *testing.T) { runCrashPointMatrix(t, 4) }

// TestHeapPropertyShadow is the randomized storage property test: a
// heap-backed catalog behind a 4-frame buffer pool (well below the
// working set, so eviction and write-back churn constantly) and a
// fully resident shadow catalog receive the same random interleaving
// of appends, deletes, scans, and checkpoints. After every op the
// heap-backed relation must hold byte-identical pages; after a crash
// (unflushed Close) and recovery, still identical.
func TestHeapPropertyShadow(t *testing.T) {
	const opsN = 80
	rng := rand.New(rand.NewSource(42))
	dir := t.TempDir()
	l, cat := openSeeded(t, dir, heapOptions(4))
	shadow := seedCatalog(t)

	next := 1000
	for i := 0; i < opsN; i++ {
		var op testOp
		switch k := rng.Intn(10); {
		case k < 5: // append 1..40 tuples
			op = testOp{kind: "append", start: next, n: 1 + rng.Intn(40)}
			next += op.n
		case k < 7: // range delete
			lo := rng.Intn(next)
			op = testOp{kind: "delete", pred: fmt.Sprintf("(id >= %d) and (id < %d)", lo, lo+1+rng.Intn(50))}
		case k < 8: // checkpoint mid-stream
			if err := l.Checkpoint(cat); err != nil {
				t.Fatal(err)
			}
			continue
		default: // full scan under pin/unpin
			rel, _ := cat.Get("ev")
			want, _ := shadow.Get("ev")
			requirePagesEqual(t, rel, want)
			continue
		}
		if err := applyOp(t, l, cat, op); err != nil {
			t.Fatal(err)
		}
		applyReference(t, shadow, op)

		rel, _ := cat.Get("ev")
		want, _ := shadow.Get("ev")
		requirePagesEqual(t, rel, want)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash-equivalent close, then recovery: still byte-identical.
	_, cat2, _, err := Open(dir, heapOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	rel, err := cat2.Get("ev")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := shadow.Get("ev")
	requirePagesEqual(t, rel, want)
}

// TestHeapEvictionPressure builds a relation well past the frame
// budget and proves the pool actually evicted (the larger-than-memory
// acceptance signal) while scans stay correct.
func TestHeapEvictionPressure(t *testing.T) {
	reg := obs.NewRegistry(time.Second)
	dir := t.TempDir()
	opts := heapOptions(2)
	opts.Obs = obs.New(nil, reg)
	l, cat := openSeeded(t, dir, opts)
	defer l.Close()

	shadow := seedCatalog(t)
	for i := 0; i < 6; i++ {
		op := testOp{kind: "append", start: 1000 + 100*i, n: 30}
		if err := applyOp(t, l, cat, op); err != nil {
			t.Fatal(err)
		}
		applyReference(t, shadow, op)
	}
	rel, _ := cat.Get("ev")
	if rel.NumPages() <= 2 {
		t.Fatalf("relation has %d pages; does not exceed the 2-frame pool", rel.NumPages())
	}
	want, _ := shadow.Get("ev")
	requirePagesEqual(t, rel, want)
	if ev := reg.Counter("bufpool.evictions"); ev == 0 {
		t.Fatal("bufpool.evictions = 0 for a working set above the frame budget")
	}
	if h := reg.Counter("bufpool.hits"); h == 0 {
		t.Fatal("bufpool.hits = 0; scans never hit the pool")
	}
}

// TestHeapInspectAudit covers the wal-inspect heap audit: a clean
// directory reports per-relation heap files, and payload corruption
// surfaces as a file error without panicking.
func TestHeapInspectAudit(t *testing.T) {
	dir := t.TempDir()
	l, cat := openSeeded(t, dir, heapOptions(4))
	for _, op := range testOps() {
		if err := applyOp(t, l, cat, op); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Checkpoint(cat); err != nil {
		t.Fatal(err)
	}
	wantTuples := 0
	if rel, err := cat.Get("ev"); err == nil {
		wantTuples = rel.Cardinality()
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	rp, err := Inspect(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rp.Clean() {
		t.Fatalf("clean heap directory inspected dirty: %+v", rp)
	}
	if len(rp.Heap) != 1 || rp.Heap[0].Rel != "ev" {
		t.Fatalf("heap audit missing relation: %+v", rp.Heap)
	}
	if rp.Heap[0].Tuples != wantTuples {
		t.Fatalf("audit counted %d tuples, want %d", rp.Heap[0].Tuples, wantTuples)
	}
	if rp.Heap[0].Bytes <= 0 {
		t.Fatal("audit reported a zero-byte heap file")
	}

	// Flip one payload byte in the heap file: audit must attribute the
	// corruption to the file, and Clean must go false.
	path := rp.Heap[0].Path
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Data slots start at 4096; byte 20 of the first slot sits inside
	// its page payload (16-byte slot header, then the blob).
	blob[4096+20] ^= 0x40
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	rp2, err := Inspect(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rp2.Clean() {
		t.Fatal("corrupt heap file inspected clean")
	}
	if len(rp2.Heap) != 1 || rp2.Heap[0].Err == nil {
		t.Fatalf("corruption not attributed to the heap file: %+v", rp2.Heap)
	}
}
