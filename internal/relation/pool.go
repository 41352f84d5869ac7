package relation

import (
	"sync"
	"sync/atomic"
)

// PagePool recycles Page structs and their payload buffers by size
// class. The engines allocate intermediate pages at a furious rate —
// every operator hop produces fresh pages that die as soon as the
// consumer has read them — so recycling them removes the dominant
// allocation on the hot execution path.
//
// Ownership discipline: only pages obtained from a pool (Get, Own) are
// ever recycled (Put); Put on any other page — a catalog page, a
// buffer-pool frame, a page decoded by UnmarshalPage, a page retained
// by Relation.AppendPage or a catalog — is a no-op, because those pages
// are aliased by live readers. Whoever holds a pool page and is its
// last reader may Put it. A nil *PagePool is valid and degrades to
// plain allocation.
type PagePool struct {
	classes  sync.Map // pageClass -> *sync.Pool
	hits     int64    // atomic: Gets served from the pool
	misses   int64    // atomic: Gets that allocated fresh
	recycled int64    // atomic: Puts accepted
	budget   int64    // atomic: planner materialization budget in bytes (0 = default)
}

type pageClass struct{ size, tupleLen int }

// NewPagePool returns an empty pool.
func NewPagePool() *PagePool { return &PagePool{} }

// DefaultPoolBudget is the page-memory budget, in bytes, that the
// adaptive planner assumes when none has been set on the pool: an
// intermediate estimated to fit within it may be materialized in memory
// instead of pipelined page by page.
const DefaultPoolBudget = 4 << 20

// SetBudget sets the pool's page-memory budget in bytes. Zero or
// negative restores the default. The budget is advisory — it steers the
// planner's pipeline-vs-materialize decision, it does not cap Get.
func (p *PagePool) SetBudget(bytes int64) {
	if p == nil {
		return
	}
	atomic.StoreInt64(&p.budget, bytes)
}

// Budget returns the pool's page-memory budget in bytes. A nil pool, or
// a pool with no budget set, reports DefaultPoolBudget.
func (p *PagePool) Budget() int64 {
	if p == nil {
		return DefaultPoolBudget
	}
	if b := atomic.LoadInt64(&p.budget); b > 0 {
		return b
	}
	return DefaultPoolBudget
}

// PoolStats is a point-in-time copy of a pool's counters.
type PoolStats struct {
	Hits     int64 // pages served from the pool
	Misses   int64 // pages freshly allocated
	Recycled int64 // pages returned for reuse
}

// Stats returns the pool's counters, read atomically. A nil pool
// reports zeros.
func (p *PagePool) Stats() PoolStats {
	if p == nil {
		return PoolStats{}
	}
	return PoolStats{
		Hits:     atomic.LoadInt64(&p.hits),
		Misses:   atomic.LoadInt64(&p.misses),
		Recycled: atomic.LoadInt64(&p.recycled),
	}
}

// Get returns an empty page of the given size class, reusing a recycled
// page when one is available. On a nil pool it simply allocates.
func (p *PagePool) Get(pageSize, tupleLen int) (*Page, error) {
	if p == nil {
		return NewPage(pageSize, tupleLen)
	}
	if c, ok := p.classes.Load(pageClass{pageSize, tupleLen}); ok {
		if pg, _ := c.(*sync.Pool).Get().(*Page); pg != nil {
			atomic.AddInt64(&p.hits, 1)
			pg.pooled = true
			return pg, nil
		}
	}
	pg, err := NewPage(pageSize, tupleLen)
	if err != nil {
		return nil, err
	}
	atomic.AddInt64(&p.misses, 1)
	pg.pooled = true
	return pg, nil
}

// Own returns pg itself when it is a pool page, and otherwise a pool
// page holding a copy of its tuples, leaving pg untouched. A producer
// handing pages to a consumer that will Put them calls Own first, so a
// page it merely borrowed — a catalog page, a pinned buffer-pool frame
// — is neither recycled nor read after the borrow ends.
func (p *PagePool) Own(pg *Page) *Page {
	if pg.pooled {
		return pg
	}
	out := p.MustGet(pg.size, pg.tupleLen)
	out.data = append(out.data, pg.data...)
	return out
}

// MustGet is Get but panics on error; for size classes already
// validated by the caller.
func (p *PagePool) MustGet(pageSize, tupleLen int) *Page {
	pg, err := p.Get(pageSize, tupleLen)
	if err != nil {
		panic(err)
	}
	return pg
}

// Put returns a page to the pool for reuse. Only pages that came from a
// pool are accepted — Put on a catalog or retained page is a no-op —
// and a page is marked non-pooled on the way in, so a double Put cannot
// hand the same page out twice.
func (p *PagePool) Put(pg *Page) {
	if p == nil || pg == nil || !pg.pooled {
		return
	}
	pg.pooled = false
	pg.data = pg.data[:0]
	key := pageClass{pg.size, pg.tupleLen}
	c, ok := p.classes.Load(key)
	if !ok {
		c, _ = p.classes.LoadOrStore(key, &sync.Pool{})
	}
	c.(*sync.Pool).Put(pg)
	atomic.AddInt64(&p.recycled, 1)
}
