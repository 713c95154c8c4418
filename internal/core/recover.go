package core

import (
	"context"
	"fmt"
)

// Path recovery (the FPR phase of Fig 6(b)): walk the p2s links from the
// meeting node back to s, and the p2t links forward to t, one SELECT per
// hop (Listing 3(3)). Under BSEG each hop is a pre-computed segment whose
// interior nodes are unfolded through the SegTable's pid chains.

// nodeLookup reads one node's parent link or tentative distance for a
// direction; ok=false means the node has none.
type nodeLookup func(ctx context.Context, forward bool, nid int64) (v int64, ok bool, err error)

// chainWalk is the one parent-chain walk. Its lookups read either the
// single engine's scratch set or, with several handles, the owner of each
// node: owner rows receive every routed candidate, so at termination they
// hold the exact global distances and the parent links that produced them,
// and walking the chains at owners walks one global shortest-path tree.
type chainWalk struct {
	parent nodeLookup
	// unfold returns the interior of the segment behind hop p -> cur in
	// walk order (from cur toward p); nil when every hop is an edge.
	unfold func(ctx context.Context, forward bool, p, cur int64) ([]int64, error)
	guard  int
}

// path concatenates the two half-paths through meet (lines 17-20 of
// Algorithm 2) into s..t. A forward-only search passes meet = t.
func (w chainWalk) path(ctx context.Context, s, t, meet int64) ([]int64, error) {
	fwd, err := w.walk(ctx, meet, s, true)
	if err != nil {
		return nil, err
	}
	bwd, err := w.walk(ctx, meet, t, false)
	if err != nil {
		return nil, err
	}
	nodes := make([]int64, 0, len(fwd)+len(bwd)-1)
	for i := len(fwd) - 1; i >= 0; i-- {
		nodes = append(nodes, fwd[i])
	}
	return append(nodes, bwd[1:]...), nil
}

// walk follows the direction's parent links from meet to end (s forward,
// t backward) and returns meet..end, segment interiors spliced in.
func (w chainWalk) walk(ctx context.Context, meet, end int64, forward bool) ([]int64, error) {
	out := []int64{meet}
	for cur, step := meet, 0; cur != end; step++ {
		if step > w.guard {
			return nil, fmt.Errorf("core: parent chain from %d longer than node count (cycle?)", meet)
		}
		p, ok, err := w.parent(ctx, forward, cur)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("core: broken parent chain at node %d", cur)
		}
		if w.unfold != nil && p != cur {
			interior, err := w.unfold(ctx, forward, p, cur)
			if err != nil {
				return nil, err
			}
			out = append(out, interior...)
		}
		out = append(out, p)
		cur = p
	}
	return out, nil
}

// readParent reads nid's parent link on sc for one direction; ok=false
// when the node has no row or an unset link.
func (e *Engine) readParent(ctx context.Context, qs *QueryStats, sc *scratchSet, forward bool, nid int64) (int64, bool, error) {
	q := sc.recP2T
	if forward {
		q = sc.recP2S
	}
	p, null, err := e.queryInt(ctx, qs, &qs.FPR, q, nid)
	return p, err == nil && !null && p != NoParent, err
}

// segQuery renders the probe of the segment behind hop p -> x for one
// column and returns its key. Forward hops are TOutSegs segments p -> x;
// backward hops run x -> p toward t and are TInSegs segments keyed the
// same way.
func segQuery(col string, forward bool, p, x int64) (string, int64, int64) {
	if forward {
		return "SELECT " + col + " FROM " + TblOutSegs + " WHERE fid = ? AND tid = ?", p, x
	}
	return "SELECT " + col + " FROM " + TblInSegs + " WHERE fid = ? AND tid = ?", x, p
}

// unfoldSegment returns the interior of the shortest segment behind hop
// p -> cur, from cur toward p, excluding both ends. Every prefix of a
// shortest TOutSegs segment and every suffix of a TInSegs one is itself
// recorded, so the pid chain from cur reaches p.
func (e *Engine) unfoldSegment(ctx context.Context, qs *QueryStats, forward bool, p, cur int64) ([]int64, error) {
	var out []int64
	for x, step := cur, 0; ; step++ {
		if step > e.nodes+2 {
			return nil, fmt.Errorf("core: segment pid chain %d..%d does not terminate", p, cur)
		}
		q, fid, tid := segQuery("pid", forward, p, x)
		pid, null, err := e.queryInt(ctx, qs, &qs.FPR, q, fid, tid)
		if err != nil {
			return nil, err
		}
		if null {
			return nil, fmt.Errorf("core: missing segment entry (%d,%d)", fid, tid)
		}
		if pid == p {
			return out, nil
		}
		out = append(out, pid)
		x = pid
	}
}

// segmentAcross unfolds hop p -> cur when several handles may have
// recorded it. The parent link says some handle relaxed a segment between
// the two nodes at the exact distance difference; handles record segments
// over different subgraphs, so it probes for one at exactly that cost.
// Such a segment is a globally shortest p -> cur path, hence shortest in
// that handle's subgraph too, so its pid chain unfolds soundly.
func segmentAcross(ctx context.Context, hs []*Superstep, dist nodeLookup, forward bool, p, cur int64) ([]int64, error) {
	var d [2]int64
	for i, nid := range []int64{cur, p} {
		v, ok, err := dist(ctx, forward, nid)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("core: no distance for node %d", nid)
		}
		d[i] = v
	}
	want := d[0] - d[1]
	for _, h := range hs {
		c, ok, err := h.segCost(ctx, forward, p, cur)
		if err != nil {
			return nil, err
		}
		if ok && c == want {
			return h.e.unfoldSegment(ctx, h.qs, forward, p, cur)
		}
	}
	return nil, fmt.Errorf("core: no handle records segment %d..%d at cost %d", p, cur, want)
}
