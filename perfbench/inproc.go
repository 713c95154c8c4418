package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rdb"
	"repro/internal/shard"
	"repro/internal/storage"
)

// The in-process workloads all run the same closed loop of BSDJ-hinted
// queries with the path cache off; they differ in graph, storage and
// engine. graphSeed fixes each workload's graph: --seed picks the pairs.
const (
	graphSeed   = 42
	poolPairs   = 2048 // random pairs per seed, sorted by difficulty
	ioPoolPages = 256  // total buffer pool of both I/O-bound workloads
	ioLatency   = time.Millisecond
)

// engineTarget is what an in-process workload drives: a single engine or
// a sharded one, behind the same query call.
type engineTarget interface {
	query(ctx context.Context, req core.QueryRequest) (core.QueryResult, error)
	dbs() []*rdb.DB
	close()
}

type single struct {
	eng  *core.Engine
	path string // backing file, removed on close ("" = in memory)
}

func (s *single) query(ctx context.Context, req core.QueryRequest) (core.QueryResult, error) {
	return s.eng.Query(ctx, req)
}
func (s *single) dbs() []*rdb.DB { return []*rdb.DB{s.eng.DB()} }
func (s *single) close() {
	s.eng.Close()
	if s.path != "" {
		os.Remove(s.path)
	}
}

type sharded struct{ se *shard.ShardedEngine }

func (s *sharded) query(ctx context.Context, req core.QueryRequest) (core.QueryResult, error) {
	return s.se.Query(ctx, req)
}
func (s *sharded) dbs() []*rdb.DB {
	var out []*rdb.DB
	for i := 0; i < s.se.Partition().K; i++ {
		out = append(out, s.se.Engine(i).DB())
	}
	return out
}
func (s *sharded) close() { s.se.Close() }

// inprocSpec describes one in-process workload.
type inprocSpec struct {
	g       *graph.Graph
	clients int
	warmups int
	layer   string // layer of the measured call: core or shard
	call    string // span name of the measured call
	open    func(rep int) (engineTarget, error)
	latency time.Duration // simulated per-page transfer, armed after set-up
}

// runWarmBSDJ is the CPU-bound regime: an in-memory database far smaller
// than its pool, no simulated latency, one client.
func runWarmBSDJ(cfg config) (outcome, error) {
	g := graph.Power(3000, 3, graphSeed)
	return runInproc(cfg, inprocSpec{g: g, clients: 1, warmups: 8, layer: "core", call: "core.Engine.Query",
		open: func(int) (engineTarget, error) {
			db, err := rdb.Open(rdb.Options{})
			if err != nil {
				return nil, err
			}
			eng := core.NewEngine(db, core.Options{CacheSize: -1})
			if err := eng.LoadGraph(g); err != nil {
				eng.Close()
				return nil, err
			}
			return &single{eng: eng}, nil
		}})
}

// runIOBSDJ is the I/O-bound regime: a file-backed database three times
// its pool, with a simulated transfer cost per page, two clients.
func runIOBSDJ(cfg config) (outcome, error) {
	g := graph.Power(10000, 4, graphSeed)
	return runInproc(cfg, inprocSpec{g: g, clients: 2, warmups: 4, layer: "core", call: "core.Engine.Query",
		latency: ioLatency,
		open: func(rep int) (engineTarget, error) {
			path := fmt.Sprintf("%s/io-%d.db", workDir(cfg), rep)
			db, err := rdb.Open(rdb.Options{Path: path, BufferPoolPages: ioPoolPages})
			if err != nil {
				return nil, err
			}
			eng := core.NewEngine(db, core.Options{CacheSize: -1})
			if err := eng.LoadGraph(g); err != nil {
				eng.Close()
				return nil, err
			}
			return &single{eng: eng, path: path}, nil
		}})
}

// runIOBSDJ2Shard is io_bsdj through two hash-partitioned shards whose
// pools together hold the single engine's 256 pages.
func runIOBSDJ2Shard(cfg config) (outcome, error) {
	g := graph.Power(10000, 4, graphSeed)
	return runInproc(cfg, inprocSpec{g: g, clients: 2, warmups: 4, layer: "shard", call: "shard.ShardedEngine.Query",
		latency: ioLatency,
		open: func(int) (engineTarget, error) {
			se, err := shard.Open(g, shard.Options{Shards: 2, Strategy: shard.Hash, BufferPoolPages: ioPoolPages})
			if err != nil {
				return nil, err
			}
			return &sharded{se: se}, nil
		}})
}

// dbCounters sums the counters of a target's databases.
type dbCounters struct {
	stmts, parseNs, execNs, planHits, planMisses uint64
	pool                                         storage.PoolStats
	reads                                        uint64
	readDelay                                    time.Duration
}

func countDBs(dbs []*rdb.DB) dbCounters {
	var c dbCounters
	for _, db := range dbs {
		st := db.Stats()
		c.stmts += st.Statements
		c.parseNs += uint64(st.ParsePlanDur)
		c.execNs += uint64(st.ExecDur)
		c.planHits += st.PlanCacheHits
		c.planMisses += st.PlanCacheMisses
		c.pool.Hits += st.Pool.Hits
		c.pool.Misses += st.Pool.Misses
		c.pool.Evictions += st.Pool.Evictions
		c.pool.FenceWaits += st.Pool.FenceWaits
		c.reads += st.IO.Reads
		c.readDelay += st.IO.ReadDelay
	}
	return c
}

// queryRec is one measured query.
type queryRec struct {
	ans    answer
	lat    time.Duration
	stats  core.QueryStats
	err    error
	traced bool
}

func runInproc(cfg config, spec inprocSpec) (outcome, error) {
	ctx := context.Background()
	g := spec.g
	rng := rand.New(rand.NewSource(cfg.seed))
	warm := drawPairs(g, rng, spec.warmups, nil)
	skip := map[[2]int64]bool{}
	for _, p := range warm {
		skip[p] = true
	}
	seq := newPairSeq(g, drawPairs(g, rng, poolPairs, skip))

	rep := 0
	tgt, setupS, err := repeatSetup(5, func() (engineTarget, error) {
		t0 := time.Now()
		t, err := spec.open(rep)
		cfg.tracer.add(0, 0, "setup.open", spec.layer, t0, time.Now(), false)
		rep++
		return t, err
	}, engineTarget.close)
	if err != nil {
		return outcome{}, fmt.Errorf("set-up: %w", err)
	}
	defer tgt.close()

	// Arm the simulated transfer cost on a cold pool: load and index ran
	// at memory speed, the measured phase pays per page.
	if spec.latency > 0 {
		for _, db := range tgt.dbs() {
			if err := db.Pool().EvictAll(); err != nil {
				return outcome{}, err
			}
			db.SetSimulatedIOLatency(spec.latency)
		}
	}
	for _, p := range warm {
		if _, err := tgt.query(ctx, core.QueryRequest{Source: p[0], Target: p[1], Alg: core.AlgBSDJ}); err != nil {
			return outcome{}, fmt.Errorf("warm-up (%d,%d): %w", p[0], p[1], err)
		}
	}

	se, isShard := tgt.(*sharded)
	var shardBefore shard.Stats
	if isShard {
		shardBefore = se.se.Stats()
	}
	runtime.GC() // start the phase from a collected heap, as every run does
	before := countDBs(tgt.dbs())
	var mu sync.Mutex
	var recs []queryRec
	wall := closedLoop(spec.clients, cfg.dur, func(_ int, i int64) {
		p := seq.next()
		traced := cfg.tracer != nil && i%2 == 0
		t0 := time.Now()
		res, err := tgt.query(ctx, core.QueryRequest{Source: p[0], Target: p[1], Alg: core.AlgBSDJ})
		t1 := time.Now()
		rec := queryRec{ans: answer{s: p[0], t: p[1], found: res.Found, dist: res.Distance, path: res.Path.Nodes},
			lat: t1.Sub(t0), err: err, traced: traced}
		if res.Stats != nil {
			rec.stats = *res.Stats
		}
		if traced {
			root := cfg.tracer.add(i+1, 0, spec.call, spec.layer, t0, t1, false)
			if isShard {
				// The coordinator reports its shards' SQL time summed: shard
				// work that ran in parallel, so it may exceed the call.
				cfg.tracer.add(i+1, root, "rdb.sql", "rdb", t0, t0.Add(rec.stats.SQLDur()), true)
			} else {
				engineStages(cfg.tracer, i+1, root, t0, rec.stats.GateWait, rec.stats.PlanDur, rec.stats.Total, rec.stats.SQLDur())
			}
		}
		mu.Lock()
		recs = append(recs, rec)
		mu.Unlock()
	})
	after := countDBs(tgt.dbs())

	oc := outcome{attempted: len(recs), values: map[string]float64{}}
	v := oc.values
	var lats, mdjLats []time.Duration
	for _, r := range recs {
		if r.err != nil {
			oc.failed++
			fmt.Fprintf(os.Stderr, "perfbench: query (%d,%d): %v\n", r.ans.s, r.ans.t, r.err)
			continue
		}
		t0 := time.Now()
		want := graph.MDJ(g, r.ans.s, r.ans.t)
		mdjLats = append(mdjLats, time.Since(t0))
		if err := checkExact(g, r.ans, want); err != nil {
			oc.wrong++
			oc.failed++
			fmt.Fprintf(os.Stderr, "perfbench: wrong answer: %v\n", err)
			continue
		}
		lats = append(lats, r.lat)
	}
	n := float64(len(recs))
	v["qps"] = float64(len(lats)) / wall.Seconds()
	v["query_p50_ms"] = ms(percentile(lats, 50))
	v["query_p90_ms"] = ms(percentile(lats, 90))
	warnTail("query", len(lats))
	v["setup_s"] = setupS
	v["setup.load_s"] = setupS
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return oc, err
	}
	v["rss_peak_mb"] = rss
	if cfg.tracer == nil {
		return oc, nil
	}

	// Per-layer: QueryStats means, counter deltas, span self times.
	var sum core.QueryStats
	var loop time.Duration
	traced := map[int64]bool{}
	var ov overhead
	for _, r := range recs {
		q := r.stats
		sum.Statements += q.Statements
		sum.Iterations += q.Iterations
		sum.Expansions += q.Expansions
		sum.VisitedRows += q.VisitedRows
		sum.PE += q.PE
		sum.SC += q.SC
		sum.FPR += q.FPR
		sum.GateWait += q.GateWait
		sum.PlanDur += q.PlanDur
		loop += q.Total - q.SQLDur()
		ov.add(r.traced, r.lat, q.Statements)
	}
	for _, s := range cfg.tracer.snapshot() {
		if s.Op > 0 {
			traced[s.Op] = true
		}
	}
	v["core.statements_per_query"] = float64(sum.Statements) / n
	v["core.iterations_per_query"] = float64(sum.Iterations) / n
	v["core.expansions_per_query"] = float64(sum.Expansions) / n
	v["core.visited_rows_per_query"] = float64(sum.VisitedRows) / n
	v["core.sql_ms"] = ms(sum.SQLDur()) / n
	v["core.pe_ms"] = ms(sum.PE) / n
	v["core.sc_ms"] = ms(sum.SC) / n
	v["core.fpr_ms"] = ms(sum.FPR) / n
	v["core.loop_ms"] = ms(loop) / n
	v["core.gate_wait_ms"] = ms(sum.GateWait) / n
	v["core.plan_ms"] = ms(sum.PlanDur) / n
	dbDelta(v, before, after, n)
	pages := 0
	for _, db := range tgt.dbs() {
		pages += db.Pool().Disk().NumPages()
	}
	v["storage.db_pages"] = float64(pages)
	if isShard {
		st := se.se.Stats()
		var stmts uint64
		for i := range st.PerShard {
			stmts += st.PerShard[i].Statements - shardBefore.PerShard[i].Statements
		}
		v["shard.supersteps_per_query"] = float64(st.Supersteps-shardBefore.Supersteps) / n
		v["shard.exchanged_per_query"] = float64(st.Exchanged-shardBefore.Exchanged) / n
		v["shard.statements_per_query"] = float64(stmts) / n
		v["shard.misses_per_query"] = float64(after.pool.Misses-before.pool.Misses) / n
	}
	self := layerSelf(cfg.tracer.snapshot(), traced)
	v["self.core_ms"] = ms(self["core"])
	v["self.shard_ms"] = ms(self["shard"])
	v["self.rdb_ms"] = ms(self["rdb"])
	v["trace.overhead_pct"] = ov.pct()
	v["ref.mdj_p50_ms"] = ms(percentile(mdjLats, 50))
	return oc, probe(cfg, tgt.dbs()[0], v)
}

// dbDelta fills the rdb and storage metrics from two counter snapshots
// taken around the measured phase of n queries.
func dbDelta(v map[string]float64, b, a dbCounters, n float64) {
	stmts := float64(a.stmts - b.stmts)
	v["rdb.us_per_statement"] = ratio(float64(a.execNs-b.execNs)/1e3, stmts)
	v["rdb.parse_plan_ms"] = float64(a.parseNs-b.parseNs) / 1e6 / n
	hits, misses := float64(a.planHits-b.planHits), float64(a.planMisses-b.planMisses)
	v["rdb.plan_cache_hit_ratio"] = ratio(hits, hits+misses)
	ph, pm := float64(a.pool.Hits-b.pool.Hits), float64(a.pool.Misses-b.pool.Misses)
	v["storage.pool_hit_ratio"] = ratio(ph, ph+pm)
	v["storage.misses_per_query"] = pm / n
	v["storage.evictions_per_query"] = float64(a.pool.Evictions-b.pool.Evictions) / n
	v["storage.read_delay_ms_per_query"] = ms(a.readDelay-b.readDelay) / n
	v["storage.fence_waits"] = float64(a.pool.FenceWaits - b.pool.FenceWaits)
}
