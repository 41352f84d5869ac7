package relation

import (
	"runtime"
	"testing"
	"unsafe"
)

// backing returns the address of a page's payload array.
func backing(p *Page) *byte { return unsafe.SliceData(p.data) }

// TestPageFillKeepsBackingArray: a page from NewPage or a PagePool is
// allocated at full capacity, so filling it — tuple by tuple, by
// compression, or through a paginator — never reallocates the payload.
func TestPageFillKeepsBackingArray(t *testing.T) {
	const pageSize, tupleLen = DefaultPageSize, 100
	raw := make([]byte, tupleLen)
	fill := func(t *testing.T, p *Page) {
		t.Helper()
		if cap(p.data) != p.capBytes {
			t.Fatalf("empty page has payload capacity %d, want %d", cap(p.data), p.capBytes)
		}
		before := backing(p)
		for !p.Full() {
			if err := p.AppendRaw(raw); err != nil {
				t.Fatal(err)
			}
		}
		if backing(p) != before {
			t.Fatal("filling the page reallocated its payload")
		}
	}
	t.Run("NewPage", func(t *testing.T) { fill(t, MustNewPage(pageSize, tupleLen)) })

	pool := NewPagePool()
	t.Run("PoolFresh", func(t *testing.T) {
		pg := pool.MustGet(pageSize, tupleLen)
		fill(t, pg)
		pool.Put(pg)
	})
	t.Run("PoolRecycled", func(t *testing.T) {
		// sync.Pool may drop the recycled page; either way the page
		// handed out is at full capacity.
		fill(t, pool.MustGet(pageSize, tupleLen))
	})
	t.Run("FillFrom", func(t *testing.T) {
		dst, src := MustNewPage(pageSize, tupleLen), MustNewPage(pageSize, tupleLen)
		fill(t, src)
		before := backing(dst)
		if _, err := dst.FillFrom(src); err != nil {
			t.Fatal(err)
		}
		if !dst.Full() || backing(dst) != before {
			t.Fatalf("FillFrom: full=%v, payload moved=%v", dst.Full(), backing(dst) != before)
		}
	})
	t.Run("Paginator", func(t *testing.T) {
		g, err := NewPooledPaginator(pageSize, tupleLen, pool)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.Add(raw); err != nil {
			t.Fatal(err)
		}
		first := backing(g.cur)
		for {
			full, err := g.Add(raw)
			if err != nil {
				t.Fatal(err)
			}
			if full != nil {
				if backing(full) != first {
					t.Fatal("paginator page reallocated its payload while filling")
				}
				return
			}
		}
	})
}

// bytesPerCall reports the heap bytes fn allocates per call.
func bytesPerCall(n int, fn func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return (m1.TotalAlloc - m0.TotalAlloc) / uint64(n)
}

// TestGeometryCheckAllocatesNoPage: relation.New and NewPaginator only
// validate the page shape; neither may build (and so allocate) a
// 16 KiB page payload.
func TestGeometryCheckAllocatesNoPage(t *testing.T) {
	s := paperSchema(t)
	var sink any
	if b := bytesPerCall(64, func() { sink = MustNew("r", s, DefaultPageSize) }); b >= DefaultPageSize/4 {
		t.Errorf("relation.New allocates %d bytes per call: it builds a page", b)
	}
	if b := bytesPerCall(64, func() {
		g, err := NewPaginator(DefaultPageSize, s.TupleLen())
		if err != nil {
			t.Fatal(err)
		}
		sink = g
	}); b >= DefaultPageSize/4 {
		t.Errorf("NewPaginator allocates %d bytes per call: it builds a page", b)
	}
	_ = sink
}

// TestUnmarshalPageExactSize: a decoded page owns a payload the size of
// its tuples, not of its capacity, allocated once (the Page plus one
// unzeroed copy).
func TestUnmarshalPageExactSize(t *testing.T) {
	p := MustNewPage(DefaultPageSize, 100)
	if err := p.AppendRaw(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	blob := p.Marshal()
	q, err := UnmarshalPage(blob)
	if err != nil {
		t.Fatal(err)
	}
	if c := cap(q.data); c >= DefaultPageSize/4 {
		t.Errorf("one-tuple page decoded with payload capacity %d", c)
	}
	if q.Capacity() != p.Capacity() || q.TupleCount() != 1 {
		t.Errorf("decoded page: capacity %d, %d tuples; want %d, 1", q.Capacity(), q.TupleCount(), p.Capacity())
	}
	var sink *Page
	allocs := testing.AllocsPerRun(100, func() { sink, _ = UnmarshalPage(blob) })
	if allocs != 2 {
		t.Errorf("UnmarshalPage makes %.1f allocations, want 2 (page and payload)", allocs)
	}
	_ = sink
}

// TestAppendMarshalMatchesMarshal: AppendMarshal appends exactly the
// Marshal bytes, so a reused buffer carries the same wire form.
func TestAppendMarshalMatchesMarshal(t *testing.T) {
	p := MustNewPage(1000, 100)
	for i := 0; i < 3; i++ {
		raw := make([]byte, 100)
		raw[0] = byte(i + 1)
		if err := p.AppendRaw(raw); err != nil {
			t.Fatal(err)
		}
	}
	buf := []byte("prefix")
	buf = p.AppendMarshal(buf)
	if string(buf[:6]) != "prefix" || string(buf[6:]) != string(p.Marshal()) {
		t.Fatal("AppendMarshal differs from Marshal")
	}
	if allocs := testing.AllocsPerRun(100, func() { buf = p.AppendMarshal(buf[:0]) }); allocs != 0 {
		t.Errorf("AppendMarshal into a large-enough buffer allocates %.1f times", allocs)
	}
}
