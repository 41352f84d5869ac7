package main

import (
	"fmt"
	"math"
	"math/rand"

	"dfdbm/internal/catalog"
	"dfdbm/internal/query"
	"dfdbm/internal/workload"
)

// The database every workload serves: the paper's 15 relations at full
// scale (55,000 100-byte tuples, about 5.5 MB in about 345 16 KB
// pages). It is fixed; the workload seed varies only the generated
// query texts and arrival times.
var dbConfig = workload.Config{Seed: 1980, Scale: 1.0, PageSize: 16 << 10}

// nproc bounds every degree of concurrency the benchmark sets up: client
// sessions, goroutines driving load, server runners and core-engine
// workers. The reference machine has 2 CPUs.
const nproc = 2

// Storage settings of the heap-backed workloads. Commits fsync on both
// the live path and the WAL replay (wal.FsyncCommit).
const (
	lookupFrames = 1024    // about 16 MiB of frames against about 5.5 MB of data: all hits once warm
	rwFrames     = 64      // about 1 MiB of frames: about a fifth of the data
	ckptEvery    = 2 << 20 // log bytes between auto-checkpoints: several per run of durable-rw
)

// writeRate is durable-rw's offered write rate. On the reference
// machine (2 vCPUs of a shared host) a closed-loop writer reaches about
// 200 durable writes per second beside the reader.
const writeRate = 60.0

// workloadSpec is one traffic mix.
type workloadSpec struct {
	name string
	// frames is the buffer-pool size of the heap-backed data directory;
	// 0 serves resident relations without a data directory.
	frames int
	plan   func(seed int64, seconds int, oracle *catalog.Catalog) (*plan, error)
}

var workloads = []workloadSpec{
	{name: "paper-mix", plan: paperMix},
	{name: "point-lookup", frames: lookupFrames, plan: pointLookup},
	{name: "durable-rw", frames: rwFrames, plan: durableRW},
}

// request is one generated query text. Reads carry the digest of their
// serial reference answer.
type request struct {
	text  string
	write bool
	ref   digest
}

// plan is the generated input of one run. The served program sees
// only the query texts.
type plan struct {
	requests []request
	gens     []generator
	// warm lists requests run once before the measured window, to
	// fault pages into the buffer pool and fill the engine's page pool.
	warm []int
}

// generator is the load of one session. With rate 0 it is a closed loop:
// each request is due when the previous one completes. Otherwise it is
// an open loop with requests due evenly at rate per second.
type generator struct {
	rate float64
	next func() int // index of the next request
}

// cycle returns a closed-loop request picker over reqs: each pass is a
// fresh seeded permutation.
func cycle(rng *rand.Rand, reqs []int) func() int {
	var order []int
	return func() int {
		if len(order) == 0 {
			order = make([]int, len(reqs))
			for i, j := range rng.Perm(len(reqs)) {
				order[i] = reqs[j]
			}
		}
		q := order[0]
		order = order[1:]
		return q
	}
}

// reads turns query texts into read requests with serial reference
// digests computed on the oracle.
func reads(oracle *catalog.Catalog, texts []string) ([]request, error) {
	out := make([]request, len(texts))
	for i, text := range texts {
		tree, err := query.Bind(query.MustParse(text), oracle)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", text, err)
		}
		ref, err := query.ExecuteSerial(oracle, tree, 0)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", text, err)
		}
		d, err := digestOf(ref)
		if err != nil {
			return nil, err
		}
		out[i] = request{text: text, ref: d}
	}
	return out, nil
}

// paperMix: two closed-loop sessions, each running the ten Section 3.2
// queries in seeded order, over resident relations.
func paperMix(seed int64, _ int, oracle *catalog.Catalog) (*plan, error) {
	reqs, err := reads(oracle, workload.QueryTexts())
	if err != nil {
		return nil, err
	}
	all := make([]int, len(reqs))
	for i := range all {
		all[i] = i
	}
	p := &plan{requests: reqs, warm: all}
	for s := int64(0); s < nproc; s++ {
		p.gens = append(p.gens, generator{next: cycle(rand.New(rand.NewSource(seed*nproc+s)), all)})
	}
	return p, nil
}

// lookupPool is the number of distinct point lookups a run draws from.
const lookupPool = 2048

// pointLookup: restrict(rN, id = K) with exactly one answer tuple, two
// closed-loop sessions, on the heap-backed directory whose pool holds
// all the data. The sessions are closed loops because an open loop at a
// fixed rate measured the host more than the program: each idle gap
// halts a vCPU, waking it waits for the shared host's scheduler, and
// the median latency at a quarter of capacity swung from 0.8 to 3.7 ms
// with the host's load.
func pointLookup(seed int64, _ int, oracle *catalog.Catalog) (*plan, error) {
	rng := rand.New(rand.NewSource(seed))
	texts := make([]string, 0, lookupPool+workload.NumRelations)
	for len(texts) < lookupPool {
		n := 1 + rng.Intn(workload.NumRelations)
		rel, err := oracle.Get(fmt.Sprintf("r%d", n))
		if err != nil {
			return nil, err
		}
		texts = append(texts, fmt.Sprintf("restrict(r%d, id = %d)", n, rng.Intn(rel.Cardinality())))
	}
	// One lookup per relation, run before the window, faults every
	// page into the pool.
	p := &plan{}
	for n := 1; n <= workload.NumRelations; n++ {
		p.warm = append(p.warm, len(texts))
		texts = append(texts, fmt.Sprintf("restrict(r%d, id = 0)", n))
	}
	reqs, err := reads(oracle, texts)
	if err != nil {
		return nil, err
	}
	for _, r := range reqs {
		if r.ref.tuples != 1 {
			return nil, fmt.Errorf("%s: reference has %d tuples, want 1", r.text, r.ref.tuples)
		}
	}
	p.requests = reqs
	for s := int64(0); s < nproc; s++ {
		pick := rand.New(rand.NewSource(seed*nproc + s + 1))
		p.gens = append(p.gens, generator{next: func() int { return pick.Intn(lookupPool) }})
	}
	return p, nil
}

// rwReads are the paper queries that touch only r1..r10, which no
// write changes, so each read keeps a fixed reference answer.
var rwReads = workload.QueryTexts()[:4]

// writeTexts generates n writes alternating between appends and
// deletes on r11..r14, as the load generator's write mix does:
// appends copy a slice of r1..r4 and deletes trim the same value range,
// so the written relations stay near their seeded size.
func writeTexts(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, n)
	for i := range out {
		target := 11 + rng.Intn(4)
		bound := 20 + rng.Intn(40)
		if i%2 == 0 {
			out[i] = fmt.Sprintf("append(r%d, restrict(r%d, val < %d))", target, 1+rng.Intn(4), bound)
		} else {
			out[i] = fmt.Sprintf("delete(r%d, val < %d)", target, bound)
		}
	}
	return out
}

// durableRW: a writer session at a fixed open-loop rate beside a
// closed-loop reader session, on the heap-backed directory whose pool
// holds a fifth of the data.
func durableRW(seed int64, seconds int, oracle *catalog.Catalog) (*plan, error) {
	reqs, err := reads(oracle, rwReads)
	if err != nil {
		return nil, err
	}
	p := &plan{requests: reqs}
	readIdx := make([]int, len(reqs))
	for i := range readIdx {
		readIdx[i] = i
		p.warm = append(p.warm, i)
	}
	first := len(p.requests)
	for _, text := range writeTexts(seed, int(math.Ceil(writeRate*float64(seconds)))) {
		p.requests = append(p.requests, request{text: text, write: true})
	}
	next := first
	p.gens = []generator{
		{rate: writeRate, next: func() int { next++; return next - 1 }},
		{next: cycle(rand.New(rand.NewSource(seed)), readIdx)},
	}
	return p, nil
}
