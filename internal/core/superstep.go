package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/rdb"
)

// Superstep is one engine's per-query handle on the FEM machinery: a
// scratch set, the statements rendered over it, the query's accounting and
// the per-direction frontier state RunFEM keeps for this engine. The
// single engine runs one handle over the scratch set its query leased; the
// shard coordinator opens one per shard with BeginSuperstep and passes the
// slice to RunFEM, which is the Pregel model of PAPERS.md "Relationship
// Queries on Large graphs using Pregel": each superstep every shard
// expands its local candidates, the boundary candidates are harvested out
// of the scratch TExpand table, routed to the shard that owns the node,
// and injected through the same MERGE the local M-operator uses.

// ErrUnsupportedSuperstep reports an algorithm the superstep surface cannot
// drive. Node-at-a-time BDJ/DJ never fan out (their frontier is one node),
// and ALT/Label lean on whole-graph landmark indexes that are unsound on a
// partition's subgraph, so only the set-at-a-time frontier algorithms
// (BSDJ, BBFS, BSEG) are exposed.
var ErrUnsupportedSuperstep = errors.New("core: algorithm not supported by the superstep surface (want BSDJ, BBFS or BSEG)")

// frontierCand is one harvested expansion candidate: node nid is reachable
// at distance cost through parent par.
type frontierCand struct {
	nid, par, cost int64
}

// injectChunk is the wide INSERT shape used to push routed candidates into
// the scratch TExpand table: fixed row counts keep the statement-text
// population bounded so prepared handles and cached plans recycle.
const injectChunk = 16

// handleDir is one direction's statements and frontier state on a handle.
type handleDir struct {
	d          direction
	edges      string // TEdges, or the direction's segment table under BSEG
	xp         *expandSQL
	front, pre stmtShape
	reset      string
	minQ       string
	// min is the direction's last frontier minimum read on this handle;
	// live=false when the handle has no candidates in this direction.
	min  int64
	live bool
}

// Superstep is a per-query handle on one engine; see the comment above.
// Handles from BeginSuperstep hold a shared-gate admission and a scratch
// lease until Close; the single engine's handle borrows its query's lease
// and is never closed.
type Superstep struct {
	e        *Engine
	sc       *scratchSet
	qs       *QueryStats
	spec     femSpec
	fwd, bwd handleDir

	// This superstep's results, written by the handle's own goroutine.
	sum           int64
	hasSum        bool
	count, pruned int64
	cands         []frontierCand
	closed        bool
}

// newSuperstep renders a handle's statements over sc and clears sc's
// tables. budget caps the handle's statement count (0 = unlimited).
func newSuperstep(ctx context.Context, e *Engine, sc *scratchSet, spec femSpec, budget int64) (*Superstep, error) {
	h := &Superstep{e: e, sc: sc, spec: spec, qs: &QueryStats{Algorithm: spec.name, budget: budget}}
	fwd, bwd := fwdDir(), bwdDir()
	h.fwd = handleDir{d: fwd, edges: spec.edgeFwd,
		xp:    e.buildExpand(fwd, spec.edgeFwd, "q.f = 2", 0, spec.prune, sc),
		front: spec.frontier(fwd), reset: sc.biResetF, minQ: sc.biMinF}
	h.bwd = handleDir{d: bwd, edges: spec.edgeBwd,
		xp:    e.buildExpand(bwd, spec.edgeBwd, "q.b = 2", 0, spec.prune, sc),
		front: spec.frontier(bwd), reset: sc.biResetB, minQ: sc.biMinB}
	if spec.preFrontier != nil {
		h.fwd.pre, h.bwd.pre = spec.preFrontier(fwd), spec.preFrontier(bwd)
	}
	return h, e.resetVisited(ctx, h.qs, sc)
}

// BeginSuperstep admits a coordinator-driven search on this engine: it
// validates the algorithm, takes a shared gate slot (concurrent with other
// readers, excluded from mutations), leases a scratch set and clears it.
// budget caps the shard's statement count (0 = unlimited). The caller must
// Close the handle — also on error paths — to release both.
func (e *Engine) BeginSuperstep(ctx context.Context, alg Algorithm, budget int64) (*Superstep, error) {
	e.mu.RLock()
	nodes := e.nodes
	e.mu.RUnlock()
	if e.optErr != nil {
		return nil, e.optErr
	}
	if nodes == 0 {
		return nil, ErrNoGraph
	}
	switch alg {
	case AlgBSDJ, AlgBBFS, AlgBSEG:
	default:
		return nil, fmt.Errorf("%w: %v", ErrUnsupportedSuperstep, alg)
	}
	if !e.db.Profile().SupportsMerge || !e.db.Profile().SupportsWindow {
		return nil, fmt.Errorf("core: superstep surface needs MERGE and window support in the database profile")
	}

	if err := e.lockShared(ctx); err != nil {
		return nil, err
	}
	sc, err := e.scratch.acquire()
	if err != nil {
		e.unlockShared()
		return nil, err
	}
	spec, err := e.femSpecFor(alg, sc, 0, 0)
	if err != nil {
		e.scratch.release(sc)
		e.unlockShared()
		return nil, err
	}
	h, err := newSuperstep(ctx, e, sc, spec, budget)
	if err != nil {
		h.Close()
		return nil, err
	}
	return h, nil
}

// Close releases the scratch set and the gate admission of a handle from
// BeginSuperstep. Idempotent.
func (h *Superstep) Close() {
	if h.closed {
		return
	}
	h.closed = true
	h.e.scratch.release(h.sc)
	h.e.unlockShared()
}

func (h *Superstep) side(forward bool) *handleDir {
	if forward {
		return &h.fwd
	}
	return &h.bwd
}

// readSum reads the best local meeting cost MIN(d2s + d2t).
func (h *Superstep) readSum(ctx context.Context) error {
	v, null, err := h.e.queryInt(ctx, h.qs, &h.qs.SC, h.sc.biMinSum)
	h.sum, h.hasSum = v, !null
	return err
}

// readMin reads the direction's minimal candidate distance.
func (h *Superstep) readMin(ctx context.Context, forward bool) error {
	d := h.side(forward)
	v, null, err := h.e.queryInt(ctx, h.qs, &h.qs.SC, d.minQ)
	if err != nil {
		return err
	}
	d.live = !null
	if d.live {
		d.min = v
	}
	return nil
}

// selectFrontier runs the F-operator for one direction, recording the
// frontier size in count. k is the direction's 1-based expansion counter
// (BSEG's k*lthd rule binds it). Under ALT, once a path is known
// (minCost < MaxDist), frontier-minimum candidates the landmark bound
// proves unable to improve it are settled first, repeating while whole
// minimum sets fall: each settled row was next in line for an expansion.
// The repetition is bounded, since every round affects nothing (stop) or
// shrinks the candidate pool.
func (h *Superstep) selectFrontier(ctx context.Context, forward bool, k, minCost int64) error {
	e, qs, d := h.e, h.qs, h.side(forward)
	h.count, h.pruned = 0, 0
	if h.spec.preFrontier != nil && minCost < MaxDist {
		args := d.pre.bind(minCost)
		for {
			n, err := e.exec(ctx, qs, &qs.PE, &qs.FOp, d.pre.text, args...)
			if err != nil {
				return err
			}
			if n == 0 {
				break
			}
			h.pruned += n
		}
		qs.PrunedRows += h.pruned
	}
	var err error
	h.count, err = e.exec(ctx, qs, &qs.PE, &qs.FOp, d.front.text, d.front.bind(k)...)
	return err
}

// expand runs E + M for the selected frontier and un-marks it. lOther and
// minCost bind the Theorem-1 prune; with several handles they are global
// values, at least as large as any handle-local view, so the prune stays
// sound. harvest materializes the E output and keeps it in cands for
// routing (after warming the frontier's adjacency pages).
func (h *Superstep) expand(ctx context.Context, forward bool, lOther, minCost int64, harvest bool) error {
	h.cands = h.cands[:0]
	if h.count == 0 {
		return nil
	}
	e, qs, d := h.e, h.qs, h.side(forward)
	var collect func() error
	if harvest {
		if h.count > 1 {
			if err := h.prefetch(ctx, d); err != nil {
				return err
			}
		}
		collect = func() error { return h.harvest(ctx) }
	}
	if _, err := e.runExpand(ctx, qs, d.xp, nil, lOther, minCost, collect); err != nil {
		return err
	}
	if forward {
		qs.ForwardExpansions++
	} else {
		qs.BackwardExpansions++
	}
	qs.Expansions++
	_, err := e.exec(ctx, qs, &qs.PE, &qs.FOp, d.reset)
	return err
}

// harvest reads the materialized E output back into cands.
func (h *Superstep) harvest(ctx context.Context) error {
	rows, err := h.e.queryRows(ctx, h.qs, &h.qs.PE, h.sc.harvest)
	if err != nil {
		return err
	}
	for _, r := range rows.Data {
		h.cands = append(h.cands, frontierCand{r[0].I, r[1].I, r[2].I})
	}
	return nil
}

// inject applies routed candidates through the M-operator: the scratch
// TExpand table is cleared, the batch (one row per nid) is inserted, and
// the direction's MERGE relaxes the visited table, reopening (sign=0) any
// settled row the batch improves.
func (h *Superstep) inject(ctx context.Context, forward bool, cands []frontierCand) error {
	e, qs, xp := h.e, h.qs, h.side(forward).xp
	if _, err := e.exec(ctx, qs, &qs.PE, &qs.MOp, xp.clearExpand); err != nil {
		return err
	}
	rest := cands
	for len(rest) >= injectChunk {
		args := make([]any, 0, 3*injectChunk)
		for _, c := range rest[:injectChunk] {
			args = append(args, c.nid, c.par, c.cost)
		}
		if _, err := e.exec(ctx, qs, &qs.PE, &qs.MOp, h.sc.injN, args...); err != nil {
			return err
		}
		rest = rest[injectChunk:]
	}
	for _, c := range rest {
		if _, err := e.exec(ctx, qs, &qs.PE, &qs.MOp, h.sc.inj1, c.nid, c.par, c.cost); err != nil {
			return err
		}
	}
	_, err := e.exec(ctx, qs, &qs.PE, &qs.MOp, xp.mMerge, sentinelArgs...)
	return err
}

// prefetch warms the buffer pool with the adjacency pages the direction's
// E-operator is about to scan: the selected frontier (sign=2) is read back
// from the visited table, split round-robin across prefetchWorkers
// goroutines, and each probes the edge (or segment) table for its nids
// through the engine's concurrent read path. The probes fault in the same
// index and heap pages the expansion join will touch — MIN(cost) rather
// than COUNT(*), because cost lives only in the base rows — but in
// parallel instead of serially inside one statement; on a cold pool this
// turns the expansion's page waits into overlapped transfers, and a warm
// pool makes it a cheap no-op per nid. Only multi-handle runs prefetch:
// their materialized frontier is data, while the single engine's fused
// MERGE never surfaces it outside one statement.
//
// Prefetch pays for itself when the warmed pages stay resident until the
// expansion reads them. Partitioning is what keeps both sides small (each
// shard sees 1/k of the frontier and of the visited rows), so it composes
// with sharding rather than substituting for memory.
func (h *Superstep) prefetch(ctx context.Context, d *handleDir) error {
	e, qs := h.e, h.qs
	rows, err := e.queryRows(ctx, qs, &qs.EOp, "SELECT nid FROM "+h.sc.visited+" WHERE "+d.d.sign+" = 2")
	if err != nil {
		return err
	}
	nids := make([]int64, 0, rows.Len())
	for _, r := range rows.Data {
		nids = append(nids, r[0].I)
	}
	st, err := e.stmt("SELECT MIN(cost) FROM " + d.edges + " WHERE " + d.d.joinCol + " = ?")
	if err != nil {
		return err
	}
	workers := min(prefetchWorkers, len(nids))
	t0 := time.Now()
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(nids); i += workers {
				if _, _, err := st.QueryIntContext(ctx, nids[i]); err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	dt := time.Since(t0)
	qs.Statements += len(nids)
	qs.PE += dt
	qs.EOp += dt
	return errors.Join(errs...)
}

// parent and dist read a node's parent link and tentative distance on this
// handle (the path walk's lookups).
func (h *Superstep) parent(ctx context.Context, forward bool, nid int64) (int64, bool, error) {
	return h.e.readParent(ctx, h.qs, h.sc, forward, nid)
}

func (h *Superstep) dist(ctx context.Context, forward bool, nid int64) (int64, bool, error) {
	q := h.sc.recD2T
	if forward {
		q = h.sc.recD2S
	}
	v, null, err := h.e.queryInt(ctx, h.qs, &h.qs.FPR, q, nid)
	return v, err == nil && !null, err
}

// segCost probes this handle's segment table for the segment behind hop
// p -> cur and returns its cost.
func (h *Superstep) segCost(ctx context.Context, forward bool, p, cur int64) (int64, bool, error) {
	q, fid, tid := segQuery("cost", forward, p, cur)
	c, null, err := h.e.queryInt(ctx, h.qs, &h.qs.FPR, q, fid, tid)
	return c, err == nil && !null, err
}

// add folds another handle's accounting into q. Phase durations sum
// handle wall clocks, so with handles working in parallel the phase total
// can exceed Total: they read as aggregate work, like CPU time.
func (q *QueryStats) add(o *QueryStats) {
	q.Statements += o.Statements
	q.TuplesAffected += o.TuplesAffected
	q.Expansions += o.Expansions
	q.ForwardExpansions += o.ForwardExpansions
	q.BackwardExpansions += o.BackwardExpansions
	q.PrunedRows += o.PrunedRows
	q.PE += o.PE
	q.SC += o.SC
	q.FPR += o.FPR
	q.FOp += o.FOp
	q.EOp += o.EOp
	q.MOp += o.MOp
}

// queryRows runs a row-returning query through the prepared-statement cache
// with the usual budget/cancellation/accounting treatment (exec and
// queryInt cover the scalar cases; the harvest needs whole rows).
func (e *Engine) queryRows(ctx context.Context, qs *QueryStats, phase *time.Duration, q string, args ...any) (*rdb.Rows, error) {
	if err := e.checkBudget(ctx, qs); err != nil {
		return nil, err
	}
	st, err := e.stmt(q)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	rows, err := st.QueryContext(ctx, args...)
	dt := time.Since(t0)
	if qs != nil {
		qs.Statements++
	}
	if phase != nil {
		*phase += dt
	}
	return rows, err
}

// injectValues renders the TExpand insert for n candidate rows.
func injectValues(expand string, n int) string {
	return "INSERT INTO " + expand + " (nid, par, cost) VALUES (?, ?, ?)" + strings.Repeat(", (?, ?, ?)", n-1)
}
