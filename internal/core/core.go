// Package core implements the paper's primary contribution as a working
// concurrent query engine: data-flow execution of relational-algebra
// query trees, with the operand granularity — relation, page, or tuple —
// selectable per run.
//
// The mapping from the paper's machine to Go is direct. Every non-leaf
// query-tree node gets an instruction controller goroutine (the paper's
// IC) that applies the firing rule of the granularity in force and emits
// instruction packets; a bounded channel is the arbitration network, its
// capacity the number of memory cells; a pool of worker goroutines is
// the instruction-processor (IP) pool; result pages stream back through
// per-node event queues (the distribution network) and are compressed
// into full pages before travelling up the tree, exactly as the paper's
// ICs compress arriving partial pages.
//
// The engine computes real answers and meters the traffic that the
// paper's Section 3.3 analyzes: bytes and packets through the
// arbitration and distribution networks at each granularity.
package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"dfdbm/internal/catalog"
	"dfdbm/internal/obs"
	"dfdbm/internal/query"
	"dfdbm/internal/relalg"
	"dfdbm/internal/relation"
)

// Granularity selects the scheduling unit of data-flow execution — the
// subject of the paper's Section 3.
type Granularity uint8

// The three operand granularities.
const (
	// RelationLevel enables an instruction only when every source
	// operand has been completely computed.
	RelationLevel Granularity = iota + 1
	// PageLevel enables an instruction as soon as one page of each
	// source operand exists; pages of intermediate relations are
	// pipelined up the tree. The paper's recommended design point.
	PageLevel
	// TupleLevel enables an instruction as soon as one tuple of each
	// source operand exists. Every token carries a single tuple.
	TupleLevel
)

// String returns the granularity name.
func (g Granularity) String() string {
	switch g {
	case RelationLevel:
		return "relation"
	case PageLevel:
		return "page"
	case TupleLevel:
		return "tuple"
	default:
		return fmt.Sprintf("granularity(%d)", uint8(g))
	}
}

// ProjectStrategy selects how the project operator eliminates
// duplicates.
type ProjectStrategy uint8

const (
	// ProjectSerialIC deduplicates at the instruction controller: every
	// projected tuple funnels through one goroutine. This is the state
	// of the art the paper laments in Section 5 ("we have not yet
	// developed an algorithm for which a high degree of parallelism can
	// be maintained").
	ProjectSerialIC ProjectStrategy = iota
	// ProjectPartitioned hash-partitions projected tuples across
	// independent duplicate-elimination sets so workers deduplicate in
	// parallel with no shared bottleneck — the resolution of the
	// paper's open problem.
	ProjectPartitioned
)

// String returns the strategy name.
func (p ProjectStrategy) String() string {
	if p == ProjectPartitioned {
		return "partitioned"
	}
	return "serial-ic"
}

// Options configures an Engine.
type Options struct {
	// Granularity is the scheduling unit. Default PageLevel.
	Granularity Granularity
	// Workers is the number of instruction processors. Default 4.
	Workers int
	// CellsPerWorker sizes the arbitration network: the number of
	// memory cells per processor. The paper's simulation used two
	// memory cells for each processor. Default 2.
	CellsPerWorker int
	// PageSize is the page size of intermediate results. Default
	// relation.DefaultPageSize (16 KB).
	PageSize int
	// PacketOverhead is c, the control bytes accompanying every packet
	// through the arbitration or distribution network — the overhead
	// term of the Section 3.3 analysis. Default 32.
	PacketOverhead int
	// Project selects the duplicate-elimination strategy. Default
	// ProjectSerialIC (the paper's baseline).
	Project ProjectStrategy
	// Adaptive enables the per-edge pipeline-vs-materialize planner
	// (query.PlanTree): execution pipelines pages as at PageLevel, but
	// the inner operand of a join whose estimated size fits the page
	// pool's budget is buffered completely before the join fires.
	// Applies only at PageLevel or TupleLevel granularity
	// (RelationLevel already materializes every edge).
	Adaptive bool
	// Obs, when non-nil, receives one structured obs.Event per
	// dispatched instruction packet, task completion, and node
	// completion — stamped with real time since the execution started —
	// and, when it carries a registry, the core.* bandwidth timelines
	// plus each run's Stats re-expressed as counters (counters
	// accumulate across executions of the same engine).
	Obs *obs.Observer
}

func (o Options) withDefaults() Options {
	if o.Granularity == 0 {
		o.Granularity = PageLevel
	}
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.CellsPerWorker <= 0 {
		o.CellsPerWorker = 2
	}
	if o.PageSize <= 0 {
		o.PageSize = relation.DefaultPageSize
	}
	if o.PacketOverhead <= 0 {
		o.PacketOverhead = 32
	}
	return o
}

// Stats meters one execution. Byte counts follow the accounting of the
// paper's Section 3.3: a packet's operand bytes are the tuple payload it
// carries, plus PacketOverhead control bytes per packet.
type Stats struct {
	// InstructionPackets is the number of instruction packets sent
	// through the arbitration network to processors.
	InstructionPackets int64
	// OperandBytes is the tuple payload carried by those packets.
	OperandBytes int64
	// ArbitrationBytes = OperandBytes + overhead·InstructionPackets:
	// the total arbitration-network load.
	ArbitrationBytes int64
	// ResultPackets and ResultBytes meter the distribution network
	// (worker results travelling back to controllers).
	ResultPackets int64
	ResultBytes   int64
	// PagesMoved counts page tokens forwarded between tree nodes.
	PagesMoved int64
	// TuplesOut is the cardinality of the query result.
	TuplesOut int64
	// PoolHits, PoolMisses, and PagesRecycled meter the intermediate-
	// page pool: pages served from the pool, pages freshly allocated,
	// and dead pages handed back for reuse.
	PoolHits      int64
	PoolMisses    int64
	PagesRecycled int64
	// HashProbes, HashBuilds, and HashTableHits meter the hash join
	// kernel (outer tuples probed, inner-page tables built, page pairs
	// served by a cached table); NestedPairs counts tuple pairs compared
	// by the nested-loops kernel.
	HashProbes    int64
	HashBuilds    int64
	HashTableHits int64
	NestedPairs   int64
	// MaterializedEdges counts query-tree edges the adaptive planner
	// chose to materialize this execution (0 unless Options.Adaptive).
	MaterializedEdges int64
	// Elapsed is wall-clock execution time.
	Elapsed time.Duration
}

// Result is the outcome of executing one query.
type Result struct {
	// Relation holds the answer (for a Delete root, the surviving
	// target relation; for Append, the destination). A query's own
	// answer is built of engine-owned pool pages: its holder may hand
	// them back to Engine.Pool with Put once they have been read, or
	// simply drop them; putting the relation into a catalog retains
	// them instead.
	Relation *relation.Relation
	// Stats meters the run.
	Stats Stats
}

// Engine executes bound query trees against a catalog.
type Engine struct {
	cat  *catalog.Catalog
	opts Options
	// pool recycles intermediate and result pages across the engine's
	// executions.
	pool *relation.PagePool
}

// New returns an engine over the catalog.
func New(cat *catalog.Catalog, opts Options) *Engine {
	return &Engine{cat: cat, opts: opts.withDefaults(), pool: relation.NewPagePool()}
}

// Options returns the engine's effective (defaulted) options.
func (e *Engine) Options() Options { return e.opts }

// Pool returns the page pool the engine draws its intermediate and
// result pages from. A Result's holder returns result pages to it once
// they have been read.
func (e *Engine) Pool() *relation.PagePool { return e.pool }

// Execute runs a bound query tree and returns its result. Executions
// are independent; an engine may execute several queries concurrently
// as long as their footprints do not conflict (see query.Footprint).
func (e *Engine) Execute(t *query.Tree) (*Result, error) {
	return e.ExecuteContext(context.Background(), t)
}

// ExecuteContext is Execute under a context: when ctx is cancelled or
// times out, the run's workers and controllers are stopped, blocked
// channel operations unwind, and the context's error is returned.
func (e *Engine) ExecuteContext(ctx context.Context, t *query.Tree) (*Result, error) {
	res, err := e.execute(ctx, t)
	if err == nil {
		e.exportMetrics(res)
	}
	if err == nil {
		if serr := e.opts.Obs.Err(); serr != nil {
			return nil, fmt.Errorf("core: trace sink: %w", serr)
		}
	}
	return res, err
}

// exportMetrics re-expresses one execution's Stats through the metrics
// registry. Counters accumulate across executions of the same engine.
func (e *Engine) exportMetrics(res *Result) {
	o := e.opts.Obs
	if !o.MetricsOn() {
		return
	}
	r := o.Registry()
	s := res.Stats
	r.Inc("core.instruction_packets", s.InstructionPackets)
	r.Inc("core.operand_bytes", s.OperandBytes)
	r.Inc("core.arbitration_bytes_total", s.ArbitrationBytes)
	r.Inc("core.result_packets", s.ResultPackets)
	r.Inc("core.result_bytes_total", s.ResultBytes)
	r.Inc("core.pages_moved", s.PagesMoved)
	r.Inc("core.tuples_out", s.TuplesOut)
	r.Inc("core.pool_hits", s.PoolHits)
	r.Inc("core.pool_misses", s.PoolMisses)
	r.Inc("core.pages_recycled", s.PagesRecycled)
	r.Inc("core.join_hash_probes", s.HashProbes)
	r.Inc("core.join_hash_builds", s.HashBuilds)
	r.Inc("core.join_table_hits", s.HashTableHits)
	r.Inc("core.join_nested_pairs", s.NestedPairs)
	r.Inc("core.materialized_edges", s.MaterializedEdges)
	r.SetGauge("core.elapsed_seconds", s.Elapsed.Seconds())
}

func (e *Engine) execute(ctx context.Context, t *query.Tree) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	root := t.Root()

	// Effects (append, delete) are applied serially at the root; the
	// subtree beneath an append still runs as data-flow.
	switch root.Kind {
	case query.OpDelete:
		target, err := e.cat.Get(root.Rel)
		if err != nil {
			return nil, err
		}
		if _, err := relalg.Delete(target, root.Pred); err != nil {
			return nil, err
		}
		return &Result{Relation: target, Stats: Stats{Elapsed: time.Since(start)}}, nil

	case query.OpAppend:
		sub, err := e.executeStream(ctx, t, root.Inputs[0])
		if err != nil {
			return nil, err
		}
		dst, err := e.cat.Get(root.Rel)
		if err != nil {
			return nil, err
		}
		if _, err := relalg.Append(dst, sub.Relation); err != nil {
			return nil, err
		}
		// Append copied the tuples; the subtree's pages are dead.
		for _, pg := range sub.Relation.Pages() {
			e.pool.Put(pg)
		}
		sub.Relation = dst
		sub.Stats.Elapsed = time.Since(start)
		return sub, nil

	default:
		res, err := e.executeStream(ctx, t, root)
		if err != nil {
			return nil, err
		}
		res.Stats.Elapsed = time.Since(start)
		return res, nil
	}
}

// executeStream runs the pure (side-effect free) subtree rooted at top.
func (e *Engine) executeStream(ctx context.Context, t *query.Tree, top *query.Node) (*Result, error) {
	run := newEngineRun(ctx, e, t)
	defer run.shutdown()

	if e.opts.Adaptive && e.opts.Granularity != RelationLevel {
		plan, err := query.PlanTree(t, e.cat, e.pool.Budget())
		if err != nil {
			return nil, err
		}
		run.plan = plan
	}

	// Cancellation propagates as a run failure: closing run.stopped
	// unblocks every worker, controller, and channel send of the run.
	if ctx.Done() != nil {
		watchDone := make(chan struct{})
		defer close(watchDone)
		go func() {
			select {
			case <-ctx.Done():
				run.fail(ctx.Err())
			case <-watchDone:
			case <-run.stopped:
			}
		}()
	}

	sinkDone := make(chan struct{})
	resultName := top.Label()
	outPageSize := e.opts.PageSize
	if min := relation.PageHeaderLen + top.Schema().TupleLen(); outPageSize < min {
		outPageSize = min
	}
	resultRel, err := relation.New(resultName, top.Schema(), outPageSize)
	if err != nil {
		return nil, err
	}
	// The sink keeps only engine-owned pages, so the result's holder
	// may recycle them. A page the engine does not own — a catalog page
	// or a buffer-pool frame forwarded by a scan root — is copied into
	// a pool page while the scan still holds it.
	var sinkMu sync.Mutex
	sink := outlet{
		send: func(pg *relation.Page) {
			pg = e.pool.Own(pg)
			sinkMu.Lock()
			defer sinkMu.Unlock()
			if err := resultRel.AppendPooled(pg); err != nil {
				run.fail(err)
			}
		},
		done: func() { close(sinkDone) },
	}

	if err := run.build(top, sink); err != nil {
		return nil, err
	}
	run.start()

	select {
	case <-sinkDone:
	case <-run.stopped:
	}
	if err := run.errValue(); err != nil {
		return nil, err
	}

	st := run.snapshotStats()
	st.TuplesOut = int64(resultRel.Cardinality())
	return &Result{Relation: resultRel, Stats: st}, nil
}
