package wal

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"dfdbm/internal/obs"
)

// BenchmarkAppend measures one sequential writer: under FsyncCommit
// this is the fsync-per-write floor that group commit exists to beat;
// under FsyncNone it is the pure framing + page-cache write cost.
func BenchmarkAppend(b *testing.B) {
	for _, pol := range []FsyncPolicy{FsyncCommit, FsyncNone} {
		b.Run("fsync="+pol.String(), func(b *testing.B) {
			l, cat := openSeeded(b, b.TempDir(), Options{Fsync: pol})
			defer l.Close()
			rec := opRecord(b, cat, testOp{kind: "append", n: 8})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.Append(cloneRecord(rec)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGroupCommit measures W concurrent writers sharing fsyncs
// through the group-commit batcher. Reported fsyncs/op shows the
// batching factor: with one writer every append pays a full fsync;
// with many, a batch amortizes one fsync across its members.
func BenchmarkGroupCommit(b *testing.B) {
	for _, writers := range []int{1, 2, 8, 32} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			reg := obs.NewRegistry(time.Second)
			l, cat := openSeeded(b, b.TempDir(), Options{Fsync: FsyncCommit, Obs: obs.New(nil, reg)})
			defer l.Close()
			rec := opRecord(b, cat, testOp{kind: "append", n: 8})
			start := reg.Counter("wal.fsyncs")
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N / writers
			if per == 0 {
				per = 1
			}
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						if _, err := l.Append(cloneRecord(rec)); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			ops := float64(per * writers)
			b.ReportMetric(float64(reg.Counter("wal.fsyncs")-start)/ops, "fsyncs/op")
		})
	}
}

// BenchmarkRecovery measures cold wal.Open over a log with n records
// past the heap files' base LSN — the replay cost a restart pays per
// log length. The log repeats one append-pages record, so every replay
// decodes and installs the same page images into a stable relation.
func BenchmarkRecovery(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			l, cat := openSeeded(b, dir, Options{Fsync: FsyncNone})
			rec := opRecord(b, cat, testOp{kind: "append", n: 8})
			for i := 0; i < n; i++ {
				if _, err := l.Append(cloneRecord(rec)); err != nil {
					b.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l2, cat, rv, err := Open(dir, Options{Fsync: FsyncNone})
				if err != nil {
					b.Fatal(err)
				}
				if cat == nil || rv.Replayed != n {
					b.Fatalf("replayed %d records, want %d", rv.Replayed, n)
				}
				if err := l2.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// cloneRecord copies a record so one prepared record can be logged
// repeatedly (Append assigns each copy its own LSN).
func cloneRecord(r *Record) *Record {
	c := *r
	return &c
}
