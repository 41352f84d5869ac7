package core

import (
	"bytes"
	"testing"

	"dfdbm/internal/catalog"
	"dfdbm/internal/heap"
	"dfdbm/internal/query"
	"dfdbm/internal/relation"
)

// relBytes is the marshalled content of every page of rel, in order.
func relBytes(t *testing.T, rel *relation.Relation) []byte {
	t.Helper()
	var out []byte
	if err := rel.EachPage(func(pg *relation.Page) error {
		out = pg.AppendMarshal(out)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func bind(t *testing.T, cat *catalog.Catalog, text string) *query.Tree {
	t.Helper()
	tree, err := query.Bind(query.MustParse(text), cat)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestPagePoolPutIgnoresBorrowedPages pins the page-ownership rule the
// server's recycling rests on. Put into the engine's pool is a no-op
// for a catalog page, a pinned buffer-pool frame and a page decoded by
// UnmarshalPage. A scan-root query forwards exactly such borrowed
// pages to the result sink, so the sink must copy them: the answer is
// made of pool pages, none of them a catalog page, and all of them
// recycle. Reusing the recycled pages leaves the catalog unchanged.
func TestPagePoolPutIgnoresBorrowedPages(t *testing.T) {
	for _, stored := range []bool{false, true} {
		name := "resident"
		if stored {
			name = "heap"
		}
		t.Run(name, func(t *testing.T) {
			cat, _ := testDB(t, 0.02, 1000)
			r1, err := cat.Get("r1")
			if err != nil {
				t.Fatal(err)
			}
			if stored {
				st, err := heap.OpenStore(t.TempDir(), 4, nil)
				if err != nil {
					t.Fatal(err)
				}
				defer st.Close()
				if err := st.Adopt(r1, 0); err != nil {
					t.Fatal(err)
				}
			}
			before := relBytes(t, r1)
			eng := New(cat, Options{Workers: 2, PageSize: 1000})
			pool := eng.Pool()

			res, err := eng.Execute(bind(t, cat, "r1"))
			if err != nil {
				t.Fatal(err)
			}
			borrowed := map[*relation.Page]bool{}
			r0 := pool.Stats().Recycled
			if err := r1.EachPage(func(pg *relation.Page) error {
				borrowed[pg] = true
				pool.Put(pg) // a catalog page, or a frame pinned right now
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			decoded, err := relation.UnmarshalPage(r1.Page(0).Marshal())
			if err != nil {
				t.Fatal(err)
			}
			pool.Put(decoded)
			if got := pool.Stats().Recycled - r0; got != 0 {
				t.Fatalf("Put recycled %d borrowed pages, want 0", got)
			}

			pages := res.Relation.Pages()
			if len(pages) != r1.NumPages() {
				t.Fatalf("answer has %d pages, r1 has %d", len(pages), r1.NumPages())
			}
			for i, pg := range pages {
				if borrowed[pg] {
					t.Fatalf("answer page %d is r1's own page: the sink did not copy it", i)
				}
				pool.Put(pg)
			}
			if got := pool.Stats().Recycled - r0; got != int64(len(pages)) {
				t.Fatalf("recycled %d of %d answer pages: the answer holds pages the engine does not own", got, len(pages))
			}

			// Refill the recycled pages, then check r1 is untouched.
			for _, text := range []string{"restrict(r1, val < 500)", "r1"} {
				if _, err := eng.Execute(bind(t, cat, text)); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(relBytes(t, r1), before) {
				t.Fatal("r1 changed after its answer pages were recycled and reused")
			}
		})
	}
}

// TestPagePoolCatalogedResultIsRetained: an answer put into the catalog
// is shared by every later scan, so its pages stop being pool pages —
// a restrict over it (whose workers recycle unary operand pages) must
// leave it intact.
func TestPagePoolCatalogedResultIsRetained(t *testing.T) {
	cat, _ := testDB(t, 0.02, 1000)
	eng := New(cat, Options{Workers: 2, PageSize: 1000})
	res, err := eng.Execute(bind(t, cat, "restrict(r1, val < 800)"))
	if err != nil {
		t.Fatal(err)
	}
	kept := res.Relation.Clone("kept")
	cat.Put(res.Relation)
	name := res.Relation.Name()
	for i := 0; i < 3; i++ {
		if _, err := eng.Execute(bind(t, cat, "restrict("+name+", val < 400)")); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(relBytes(t, res.Relation), relBytes(t, kept)) {
		t.Fatal("a cataloged answer changed after scans recycled its pages")
	}
}
