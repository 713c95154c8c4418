package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/oracle"
	"repro/internal/rdb"
)

// femSpec parameterizes the bi-directional FEM loop (RunFEM). The
// bi-directional algorithms differ only in (i) the frontier-selection rule
// (the F-operator), (ii) the edge source (TEdges vs SegTable) and (iii)
// whether the lf/lb bounds participate in termination — exactly the axes
// §4 varies.
//
// Statement shapes are rendered once per query (the text is stable for the
// whole search — and across searches, so the engine's prepared-statement
// cache reuses the compiled plan); per-iteration values (the expansion
// counter k, the best known cost minCost) bind as ? parameters through the
// shape's args function.
type femSpec struct {
	name    string
	edgeFwd string
	edgeBwd string
	// frontier renders the F-operator sign update for a direction; the
	// returned shape's args function binds the 1-based expansion counter k
	// of that direction (used by BSEG's d2s <= k*lthd rule, bound as
	// "? * ?"). The statement must set sign=2 on the selected frontier and
	// report the frontier size as its affected count.
	frontier func(d direction) stmtShape
	// preFrontier, when set, renders a statement that runs (repeatedly,
	// until it affects nothing) before every frontier selection once a
	// path is known: ALT's settle-without-expand of frontier-minimum
	// candidates whose landmark lower bound proves they cannot improve the
	// best path, so provably-unhelpful tuples never enter the frontier.
	// The per-iteration minCost binds through the shape's args function.
	// Restricting the check to the current minimum matters for the work
	// metric: deeper candidates may never be selected before termination,
	// and settling those would be pure overhead.
	preFrontier func(d direction) stmtShape
	// trackL enables the lf+lb >= minCost termination (Dijkstra-family);
	// BBFS leaves bounds at zero and terminates by exhaustion.
	trackL bool
	prune  bool
	// smallerL picks the direction with the smaller frontier distance
	// (classic bi-directional Dijkstra) instead of the fewer-frontier rule
	// of §4.1. Node-at-a-time BDJ needs this: its frontier counts are
	// always 1, so the fewer-frontier rule would never switch direction.
	smallerL bool
}

// stmtShape is one prepared statement shape: stable text plus a binder for
// the per-iteration value (the expansion counter for frontiers, minCost for
// the ALT pre-frontier prune). args may be nil when the shape binds nothing.
type stmtShape struct {
	text string
	args func(v int64) []any
}

// bind returns the argument list for one execution.
func (s stmtShape) bind(v int64) []any {
	if s.args == nil {
		return nil
	}
	return s.args(v)
}

// The per-set statement texts of the bi-directional loop (biInit, resets,
// minima) live on scratchSet, rendered once at mint time; the frontier
// shapes below embed the set's visited-table name the same way. Texts are
// stable per (shape, scratch set), so prepared handles and cached plans
// recycle with the pool's bounded id space.

// specBDJ: bi-directional Dijkstra, one frontier node per expansion.
func specBDJ(sc *scratchSet) femSpec {
	return femSpec{
		name:    "BDJ",
		edgeFwd: TblEdges,
		edgeBwd: TblEdges,
		frontier: func(d direction) stmtShape {
			return stmtShape{text: "UPDATE " + sc.visited + " SET " + d.sign + " = 2 WHERE " + d.sign +
				" = 0 AND nid = (SELECT TOP 1 nid FROM " + sc.visited + " WHERE " + d.sign +
				" = 0 AND " + d.dist + " = " + sc.minCandidate(d) + ")"}
		},
		trackL:   true,
		prune:    false, // pruning is introduced with the set variant (§4.1)
		smallerL: true,
	}
}

// specBSDJ: bi-directional set Dijkstra — all nodes at the minimal
// distance become the frontier together (§4.1's RDB-friendly batch rule).
func specBSDJ(sc *scratchSet) femSpec {
	return femSpec{
		name:    "BSDJ",
		edgeFwd: TblEdges,
		edgeBwd: TblEdges,
		frontier: func(d direction) stmtShape {
			return stmtShape{text: "UPDATE " + sc.visited + " SET " + d.sign + " = 2 WHERE " + d.sign +
				" = 0 AND " + d.dist + " = " + sc.minCandidate(d)}
		},
		trackL: true,
		prune:  true,
	}
}

// specBBFS: bi-directional BFS — every candidate expands every round.
func specBBFS(sc *scratchSet) femSpec {
	return femSpec{
		name:    "BBFS",
		edgeFwd: TblEdges,
		edgeBwd: TblEdges,
		frontier: func(d direction) stmtShape {
			return stmtShape{text: "UPDATE " + sc.visited + " SET " + d.sign + " = 2 WHERE " + d.sign + " = 0"}
		},
		trackL: false,
		prune:  true,
	}
}

// specBSEG: selective expansion over SegTable (Listing 4(1)): candidates
// within k*lthd expand together with the minimal one. k and lthd bind as
// two parameters (the arithmetic happens in the statement, "? * ?"), so
// the text never changes across iterations or thresholds.
func specBSEG(sc *scratchSet, lthd int64) femSpec {
	return femSpec{
		name:    "BSEG",
		edgeFwd: TblOutSegs,
		edgeBwd: TblInSegs,
		frontier: func(d direction) stmtShape {
			return stmtShape{
				text: "UPDATE " + sc.visited + " SET " + d.sign + " = 2 WHERE " + d.sign +
					" = 0 AND (" + d.dist + " <= ? * ? OR " + d.dist + " = " + sc.minCandidate(d) + ")",
				args: func(k int64) []any { return []any{k, lthd} },
			}
		},
		trackL: true,
		prune:  true,
	}
}

// specALT: the bi-directional set Dijkstra of §4.1 extended with ALT
// goal-directed pruning over the landmark oracle. Before each frontier
// selection (once some s-t path is known), candidates whose landmark lower
// bound proves every path through them is at least the best known cost are
// settled without expansion:
//
//	forward:  d2s(v) + max_l max(dout_l(t)-dout_l(v), din_l(v)-din_l(t)) >= minCost
//	backward: d2t(v) + max_l max(dout_l(v)-dout_l(s), din_l(s)-din_l(v)) >= minCost
//
// Both terms inside the max are triangle-inequality lower bounds on the
// remaining distance (dist(v,t) forward, dist(s,v) backward) valid on
// directed graphs; the two directions are two conjunct-level comparisons
// so no GREATEST() support is needed. Settling with the CURRENT tentative
// distance is sound because the M-operator reopens any settled node whose
// distance later improves (sets its sign back to 0), so a candidate is
// only permanently excluded once the bound holds for its exact distance —
// and then every s-t path through it costs at least minCost at prune time,
// which itself bounds the final answer from above.
func specALT(sc *scratchSet, s, t int64) femSpec {
	spec := specBSDJ(sc)
	spec.name = "ALT"
	spec.preFrontier = func(d direction) stmtShape {
		end := t
		boundFwd, boundBwd := "lt.dout - lv.dout", "lv.din - lt.din"
		if !d.forward {
			end = s
			boundFwd, boundBwd = "lv.dout - lt.dout", "lt.din - lv.din"
		}
		text := "UPDATE " + sc.visited + " SET " + d.sign + " = 1 WHERE " + d.sign +
			" = 0 AND " + d.dist + " = " + sc.minCandidate(d) + " AND (" +
			d.dist + " + (SELECT MAX(" + boundFwd + ") FROM " + oracle.TblLandmark + " lv, " +
			oracle.TblLandmark + " lt WHERE lv.lid = lt.lid AND lt.nid = ? AND lv.nid = " +
			sc.visited + ".nid) >= ? OR " +
			d.dist + " + (SELECT MAX(" + boundBwd + ") FROM " + oracle.TblLandmark + " lv, " +
			oracle.TblLandmark + " lt WHERE lv.lid = lt.lid AND lt.nid = ? AND lv.nid = " +
			sc.visited + ".nid) >= ?)"
		return stmtShape{
			text: text,
			args: func(minCost int64) []any { return []any{end, minCost, end, minCost} },
		}
	}
	return spec
}

// femSpecFor resolves a bi-directional algorithm to its spec over sc. s and
// t bind ALT's landmark bounds; the other algorithms ignore them.
func (e *Engine) femSpecFor(alg Algorithm, sc *scratchSet, s, t int64) (femSpec, error) {
	e.mu.RLock()
	segBuilt, segLthd, orcBuilt := e.segBuilt, e.segLthd, e.orc != nil
	e.mu.RUnlock()
	switch alg {
	case AlgBDJ:
		return specBDJ(sc), nil
	case AlgBSDJ:
		return specBSDJ(sc), nil
	case AlgBBFS:
		return specBBFS(sc), nil
	case AlgBSEG:
		if !segBuilt {
			return femSpec{}, fmt.Errorf("core: BSEG requires BuildSegTable first")
		}
		return specBSEG(sc, segLthd), nil
	case AlgALT:
		if !orcBuilt {
			return femSpec{}, fmt.Errorf("core: ALT requires BuildOracle first (rebuild after graph changes)")
		}
		return specALT(sc, s, t), nil
	}
	return femSpec{}, fmt.Errorf("core: unknown algorithm %v", alg)
}

// femSearch answers one query on this engine: a single handle over the
// leased scratch set, driven by RunFEM. The caller holds the query gate.
func (e *Engine) femSearch(ctx context.Context, sc *scratchSet, spec femSpec, s, t int64, budget int64) (Path, *QueryStats, error) {
	start := time.Now()
	h, err := newSuperstep(ctx, e, sc, spec, budget)
	defer func() { h.qs.Total = time.Since(start) }()
	if err != nil {
		return Path{}, h.qs, err
	}
	run, err := RunFEM(ctx, []*Superstep{h}, func(int64) int { return 0 }, s, t, 4*MaxDist)
	return run.Path, run.Stats, err
}

// FEMRun is the outcome of RunFEM.
type FEMRun struct {
	// Path is the answer. Found with nil Nodes means the distance is the
	// caller's upper bound and no handle recorded a meeting at that cost,
	// so the caller supplies the path behind its bound.
	Path Path
	// Stats is the search's accounting: the handle's own stats for one
	// handle, the sum over all handles for several. Set on error too.
	Stats *QueryStats
	// Exchanged counts candidates routed to a handle other than the one
	// that produced them.
	Exchanged int
}

// prefetchWorkers is the per-handle probe concurrency that warms a
// multi-handle superstep's frontier adjacency (Superstep.prefetch).
const prefetchWorkers = 8

// RunFEM is the one implementation of Algorithm 2's loop: initialize the
// visited sets with s and t, repeatedly pick a direction, run F (sign
// update), E+M (expansion), collect lf/lb/minCost, and stop when
// lf + lb >= minCost or both directions exhaust (exhausting one side
// finalizes its distances, so minCost is then exact). Path recovery walks
// the parent chains from a meeting node. Every statement shape is prepared
// once; the loop only binds fresh parameters.
//
// hs holds one per-query handle per engine, and owner maps a node to the
// index of the handle that owns it. One handle
// is the single engine: everything runs inline and the expansion takes the
// engine's fused, separate or TSQL form. Several handles are the Pregel
// model of the shard coordinator: each superstep fans out across the
// handles, every handle selects and expands its local slice of the
// frontier, and the harvested (nid, parent, cost) candidates are routed to
// their owners and merged there. Owner rows thus receive every candidate
// and hold the global distances, so folding the per-handle minima gives
// the global minCost, lf and lb.
//
// upper is an admissible upper bound on d(s,t) known before the search
// (4*MaxDist when none); it tightens the prune and the stop check from the
// first superstep.
func RunFEM(ctx context.Context, hs []*Superstep, owner func(nid int64) int, s, t, upper int64) (FEMRun, error) {
	lead := hs[0]
	e, spec := lead.e, lead.spec
	run := FEMRun{Stats: lead.qs}
	if len(hs) > 1 {
		run.Stats = &QueryStats{Algorithm: spec.name}
		defer func() {
			for _, h := range hs {
				run.Stats.add(h.qs)
			}
		}()
	}
	qs := run.Stats
	at := func(nid int64) *Superstep { return hs[owner(nid)] }
	if s == t {
		run.Path = Path{Found: true, Length: 0, Nodes: []int64{s}}
		return run, nil
	}

	// Initialize with the two endpoints (line 1 of Algorithm 2). Injecting
	// (s, s, 0) into an empty visited set writes the same row biInit does.
	if src, dst := at(s), at(t); src == dst {
		if _, err := src.e.exec(ctx, src.qs, &src.qs.PE, nil, src.sc.biInit,
			s, s, MaxDist, NoParent, t, MaxDist, NoParent, t); err != nil {
			return run, err
		}
	} else {
		if err := src.inject(ctx, true, []frontierCand{{s, s, 0}}); err != nil {
			return run, err
		}
		if err := dst.inject(ctx, false, []frontierCand{{t, t, 0}}); err != nil {
			return run, err
		}
	}
	at(s).fwd.live = true
	at(t).bwd.live = true

	var lf, lb int64
	nf, nb := int64(1), int64(1)
	candF, candB := true, true
	var kf, kb int64
	minCost := upper
	limit := e.maxIters()
	multi := len(hs) > 1

	for iter := 0; ; iter++ {
		// Cooperative cancellation: one check per superstep, so a dead
		// query returns its gate admission within one expansion round.
		if err := rdb.ContextErr(ctx); err != nil {
			return run, fmt.Errorf("core: %s cancelled after %d iterations: %w", spec.name, iter, err)
		}
		if iter > limit {
			return run, fmt.Errorf("core: %s exceeded %d iterations (s=%d t=%d)", spec.name, limit, s, t)
		}
		qs.Iterations = iter + 1
		// Statistics collection: current best meeting cost (line 16).
		if err := each(hs, func(_ int, h *Superstep) error { return h.readSum(ctx) }); err != nil {
			return run, err
		}
		for _, h := range hs {
			if h.hasSum && h.sum < minCost {
				minCost = h.sum
			}
		}
		// §4.1 termination: every undiscovered path still crosses a
		// forward candidate (>= lf) and a backward one (>= lb). BBFS
		// leaves the bounds out and terminates by exhaustion.
		if spec.trackL && minCost < MaxDist && lf+lb >= minCost {
			break
		}
		if !candF && !candB {
			break
		}
		var forward bool
		switch {
		case e.opts.AlternateDirections:
			forward = candF && (!candB || iter%2 == 0)
		case spec.smallerL:
			forward = candF && (!candB || lf <= lb)
		default:
			// The paper's §4.1 policy: expand the direction with fewer
			// frontier nodes to limit intermediate results.
			forward = candF && (!candB || nf <= nb)
		}
		var k int64
		if forward {
			kf++
			k = kf
		} else {
			kb++
			k = kb
		}
		lOther := lb
		if !forward {
			lOther = lf
		}

		// F-operator on every handle (Listing 4(1)). With several handles
		// a handle whose local minimum exceeds the global one expands
		// early; the M-operator reopens any row a later candidate improves,
		// so distances stay exact, and the handle holding the global
		// minimum always expands it, so progress is Dijkstra's.
		if err := each(hs, func(_ int, h *Superstep) error {
			return h.selectFrontier(ctx, forward, k, minCost)
		}); err != nil {
			return run, err
		}
		var cnt, pruned int64
		for _, h := range hs {
			cnt += h.count
			pruned += h.pruned
		}
		if cnt == 0 {
			if forward {
				kf--
			} else {
				kb--
			}
			if pruned > 0 {
				// ALT settled every candidate the frontier would have
				// taken; others may remain (the pool only shrinks while
				// no expansion runs, so this cannot loop forever).
				continue
			}
			// This side is exhausted: its distances are final, so minCost
			// is exact; the loop re-checks at the top.
			for _, h := range hs {
				h.side(forward).live = false
			}
			if forward {
				candF = false
			} else {
				candB = false
			}
			continue
		}

		// E + M (Listing 4(2)) and the frontier reset (Listing 4(3)).
		if err := each(hs, func(_ int, h *Superstep) error {
			return h.expand(ctx, forward, lOther, minCost, multi)
		}); err != nil {
			return run, err
		}
		if multi {
			n, err := exchange(ctx, hs, owner, forward)
			run.Exchanged += n
			if err != nil {
				return run, err
			}
		}

		// Collect the expanded direction's minimum (Listing 4(4)). The
		// other direction needs no re-read: a merge never touches its
		// columns, and new rows enter it as non-candidates.
		if err := each(hs, func(_ int, h *Superstep) error { return h.readMin(ctx, forward) }); err != nil {
			return run, err
		}
		l, live := int64(0), false
		for _, h := range hs {
			if d := h.side(forward); d.live && (!live || d.min < l) {
				l, live = d.min, true
			}
		}
		if forward {
			if candF = live; live {
				lf = l
			}
			nf = cnt
		} else {
			if candB = live; live {
				lb = l
			}
			nb = cnt
		}
	}

	visited := make([]int, len(hs))
	if err := each(hs, func(i int, h *Superstep) error {
		var err error
		visited[i], err = h.e.visitedCount(ctx, h.qs, h.sc)
		return err
	}); err != nil {
		return run, err
	}
	for _, v := range visited {
		qs.VisitedRows += v
	}
	if minCost >= MaxDist {
		return run, nil
	}

	// Full path recovery (lines 17-20): a node on the optimal path
	// (Listing 4(6)), then the two parent chains through it.
	meet, met := int64(0), false
	for _, h := range hs {
		m, null, err := h.e.queryInt(ctx, h.qs, &h.qs.FPR, h.sc.meet, minCost)
		if err != nil {
			return run, err
		}
		if !null {
			meet, met = m, true
			break
		}
	}
	if !met {
		if minCost == upper {
			run.Path = Path{Found: true, Length: minCost}
			return run, nil
		}
		return run, fmt.Errorf("core: no meeting node for minCost=%d", minCost)
	}
	w := chainWalk{guard: e.nodes + 2,
		parent: func(ctx context.Context, forward bool, nid int64) (int64, bool, error) {
			return at(nid).parent(ctx, forward, nid)
		}}
	if spec.edgeFwd != TblEdges {
		dist := func(ctx context.Context, forward bool, nid int64) (int64, bool, error) {
			return at(nid).dist(ctx, forward, nid)
		}
		w.unfold = func(ctx context.Context, forward bool, p, cur int64) ([]int64, error) {
			if !multi {
				return e.unfoldSegment(ctx, lead.qs, forward, p, cur)
			}
			return segmentAcross(ctx, hs, dist, forward, p, cur)
		}
	}
	nodes, err := w.path(ctx, s, t, meet)
	if err != nil {
		return run, err
	}
	run.Path = Path{Found: true, Length: minCost, Nodes: nodes}
	return run, nil
}

// exchange routes the candidates each handle harvested to the handles
// owning their nodes and merges them there, keeping the cheapest per node
// (TExpand's nid is a primary key, and the owner's merge would pick the
// minimum anyway). A producer-owned candidate was already merged locally.
// It returns the number of candidates routed.
func exchange(ctx context.Context, hs []*Superstep, owner func(nid int64) int, forward bool) (int, error) {
	best := make(map[int64]frontierCand)
	for prod, h := range hs {
		for _, c := range h.cands {
			if owner(c.nid) == prod {
				continue
			}
			if b, ok := best[c.nid]; !ok || c.cost < b.cost {
				best[c.nid] = c
			}
		}
	}
	if len(best) == 0 {
		return 0, nil
	}
	batches := make([][]frontierCand, len(hs))
	for _, c := range best {
		o := owner(c.nid)
		batches[o] = append(batches[o], c)
	}
	return len(best), each(hs, func(i int, h *Superstep) error {
		if len(batches[i]) == 0 {
			return nil
		}
		return h.inject(ctx, forward, batches[i])
	})
}

// each runs fn for every handle and joins the errors: inline for one
// handle, one goroutine per handle otherwise.
func each(hs []*Superstep, fn func(i int, h *Superstep) error) error {
	if len(hs) == 1 {
		return fn(0, hs[0])
	}
	errs := make([]error, len(hs))
	var wg sync.WaitGroup
	for i, h := range hs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i, h)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
