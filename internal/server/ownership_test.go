package server

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"dfdbm/internal/catalog"
	"dfdbm/internal/core"
	"dfdbm/internal/query"
	"dfdbm/internal/relation"
	"dfdbm/internal/wal"
)

// pageBytes is the marshalled content of every page of rel, in order.
func pageBytes(rel *relation.Relation) ([]byte, error) {
	var out []byte
	err := rel.EachPage(func(pg *relation.Page) error {
		out = pg.AppendMarshal(out)
		return nil
	})
	return out, err
}

// TestResultPageOwnershipUnderWrites serves the scan-root read r1 — the
// query whose answer the engine's sink must copy out of catalog pages
// or buffer-pool frames — beside a writer running append(r11, r1) and
// deletes on r11, on a resident server and on a heap-backed server
// whose 8-frame pool keeps evicting. Read answers are recycled into the
// engine's page pool after streaming and write answers are copied under
// admission exclusion, so every read must stay byte-identical to the
// serial reference, every write answer byte-identical to the same write
// applied to a private reference catalog, and the served catalog must
// end byte-identical to that reference.
func TestResultPageOwnershipUnderWrites(t *testing.T) {
	for _, frames := range []int{0, 8} {
		name := "resident"
		if frames > 0 {
			name = fmt.Sprintf("heap-%dframes", frames)
		}
		t.Run(name, func(t *testing.T) {
			var cat *catalog.Catalog
			cfg := Config{Runners: 4, Workers: 2}
			if frames > 0 {
				var l *wal.Log
				l, cat = openDurable(t, t.TempDir(), wal.Options{Heap: &wal.HeapOptions{Frames: frames}})
				t.Cleanup(func() { l.Close() })
				cfg.WAL, cfg.CheckpointEvery = l, -1
			} else {
				cat, _ = testDB(t, 0.05)
			}
			s := startServer(t, cat, cfg)
			ref, _ := testDB(t, 0.05)
			want, err := query.ExecuteSerial(ref, bindText(t, ref, "r1"), 0)
			if err != nil {
				t.Fatal(err)
			}
			wantR1, err := pageBytes(want)
			if err != nil {
				t.Fatal(err)
			}

			var wg sync.WaitGroup
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					c, err := Dial(s.Addr(), ClientConfig{})
					if err != nil {
						t.Error(err)
						return
					}
					defer c.Close()
					for n := 0; n < 30; n++ {
						res, err := c.Query(context.Background(), "r1")
						if err != nil {
							t.Errorf("read %d: %v", n, err)
							return
						}
						if got, _ := pageBytes(res.Relation); !bytes.Equal(got, wantR1) {
							t.Errorf("read %d of r1 differs from the serial reference", n)
							return
						}
					}
				}()
			}

			// One writer, each write acknowledged before the next, so the
			// reference catalog can replay the same writes in order.
			refEng := core.New(ref, core.Options{Workers: 1})
			c, err := Dial(s.Addr(), ClientConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			for n := 0; n < 8; n++ {
				for _, w := range []string{"append(r11, r1)", fmt.Sprintf("delete(r11, val < %d)", 100+50*n)} {
					res, err := c.Query(context.Background(), w)
					if err != nil {
						t.Fatalf("%s: %v", w, err)
					}
					refRes, err := refEng.Execute(bindText(t, ref, w))
					if err != nil {
						t.Fatal(err)
					}
					got, _ := pageBytes(res.Relation)
					exp, err := pageBytes(refRes.Relation)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, exp) {
						t.Fatalf("write %d %s: answer differs from the reference", n, w)
					}
				}
			}
			wg.Wait()
			if !bytes.Equal(catBytes(t, cat), catBytes(t, ref)) {
				t.Fatal("served catalog differs from the reference after the reads and writes")
			}
		})
	}
}

func bindText(t *testing.T, cat *catalog.Catalog, text string) *query.Tree {
	t.Helper()
	tree, err := query.Bind(query.MustParse(text), cat)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}
