package shard

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/rdb"
)

// ErrUnsupportedAlgorithm reports a Query hint outside the coordinator's
// set-at-a-time algorithms (BSDJ, BBFS, BSEG). It aliases the core
// sentinel so errors.Is matches either layer.
var ErrUnsupportedAlgorithm = core.ErrUnsupportedSuperstep

// Query answers a shortest-path request through the superstep coordinator:
// it resolves the algorithm, admits one core.Superstep handle per shard,
// and hands them to core.RunFEM with the partition's owner map and the
// cut-vertex sketch's bound. MaxStatements applies per shard (each shard
// budgets its own statement stream). MaxRelError is ignored: every answer
// is exact, which satisfies any tolerance.
func (se *ShardedEngine) Query(ctx context.Context, req core.QueryRequest) (core.QueryResult, error) {
	start := time.Now()
	se.queries.Add(1)
	res, err := se.run(ctx, req)
	se.queryDur.Observe(time.Since(start).Seconds())
	if err != nil {
		se.errors.Add(1)
	} else if res.Stats != nil {
		res.Stats.Total = time.Since(start)
	}
	return res, err
}

// resolve maps the request's algorithm hint to a coordinator-supported
// concrete algorithm and a planner decision label.
func (se *ShardedEngine) resolve(alg core.Algorithm) (core.Algorithm, string, error) {
	switch alg {
	case core.AlgAuto:
		// The planner degenerates to two choices here: BSEG when every
		// shard carries a SegTable, the plain set Dijkstra otherwise.
		if se.segBuilt {
			return core.AlgBSEG, "shard-bseg", nil
		}
		return core.AlgBSDJ, "shard-bsdj", nil
	case core.AlgBSDJ, core.AlgBBFS:
		return alg, "hint", nil
	case core.AlgBSEG:
		if !se.segBuilt {
			return 0, "", fmt.Errorf("shard: BSEG requires Options.Lthd > 0 at Open")
		}
		return alg, "hint", nil
	}
	return 0, "", fmt.Errorf("%w: %v", ErrUnsupportedAlgorithm, alg)
}

func (se *ShardedEngine) run(ctx context.Context, req core.QueryRequest) (core.QueryResult, error) {
	s, t := req.Source, req.Target
	if s < 0 || s >= se.nodes || t < 0 || t >= se.nodes {
		return core.QueryResult{}, fmt.Errorf("shard: query (%d,%d) out of node range [0,%d)", s, t, se.nodes)
	}
	alg, decision, err := se.resolve(req.Alg)
	if err != nil {
		return core.QueryResult{}, err
	}

	// Admit one superstep handle per shard (shared gate + scratch lease).
	sts := make([]*core.Superstep, se.part.K)
	defer func() {
		for _, ss := range sts {
			if ss != nil {
				ss.Close()
			}
		}
	}()
	if err := se.fanout(func(i int, sh *shardInstance) error {
		ss, err := sh.eng.BeginSuperstep(ctx, alg, req.MaxStatements)
		sts[i] = ss
		return err
	}); err != nil {
		return core.QueryResult{}, err
	}

	// Admissible sketch bound: the length of a real s->portal->t walk.
	upper := int64(4 * core.MaxDist)
	var portal int
	if se.sk != nil {
		if b, p, ok := se.sk.Bound(s, t); ok {
			upper, portal = b, p
		}
	}
	run, err := core.RunFEM(ctx, sts, se.part.Owner, s, t, upper)
	qs := run.Stats
	qs.Algorithm, qs.Planner = alg.String(), decision
	se.supersteps.Add(uint64(qs.Iterations))
	se.exchanged.Add(uint64(run.Exchanged))
	if err != nil {
		return core.QueryResult{Stats: qs}, err
	}
	p := run.Path
	if !p.Found {
		return core.QueryResult{Lower: core.MaxDist, Upper: core.MaxDist, Algorithm: alg, Stats: qs}, nil
	}
	if p.Nodes == nil {
		// The search stopped against the sketch bound before recording a
		// meeting at that cost; the portal trees carry the path.
		se.sketchWins.Add(1)
		p.Nodes = se.sk.Path(s, t, portal)
	}
	return core.QueryResult{Found: true, Distance: p.Length, Path: p,
		Lower: p.Length, Upper: p.Length, Algorithm: alg, Stats: qs}, nil
}

// QueryBatch fans a request set across a worker pool (workers <= 0 means
// GOMAXPROCS), answering each through the coordinator. Results come back
// in input order; a cancelled context fails the not-yet-started requests
// fast, mirroring core.Engine.QueryBatch.
func (se *ShardedEngine) QueryBatch(ctx context.Context, reqs []core.QueryRequest, workers int) []core.QueryResponse {
	out := make([]core.QueryResponse, len(reqs))
	if len(reqs) == 0 {
		return out
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(reqs) {
		workers = len(reqs)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i].Request = reqs[i]
				if err := rdb.ContextErr(ctx); err != nil {
					out[i].Err = err
					continue
				}
				out[i].Result, out[i].Err = se.Query(ctx, reqs[i])
			}
		}()
	}
	for i := range reqs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}
