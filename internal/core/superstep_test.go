package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/rdb"
)

// TestNoGraphSentinel: an engine with nothing loaded refuses queries and
// superstep admissions with the typed ErrNoGraph, so coordinators branch
// with errors.Is instead of matching message text.
func TestNoGraphSentinel(t *testing.T) {
	db, err := rdb.Open(rdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	e := NewEngine(db, Options{})
	_, err = e.Query(context.Background(), QueryRequest{Source: 0, Target: 1})
	if !errors.Is(err, ErrNoGraph) {
		t.Fatalf("Query on empty engine: err = %v, want ErrNoGraph", err)
	}
	_, err = e.BeginSuperstep(context.Background(), AlgBSDJ, 0)
	if !errors.Is(err, ErrNoGraph) {
		t.Fatalf("BeginSuperstep on empty engine: err = %v, want ErrNoGraph", err)
	}
}

// TestSuperstepUnsupportedAlg: the superstep surface rejects algorithms
// whose machinery cannot fan out across shards, with its own sentinel.
func TestSuperstepUnsupportedAlg(t *testing.T) {
	e := newLineEngine(t, 4)
	for _, alg := range []Algorithm{AlgDJ, AlgBDJ, AlgALT, AlgLabel, AlgAuto} {
		_, err := e.BeginSuperstep(context.Background(), alg, 0)
		if !errors.Is(err, ErrUnsupportedSuperstep) {
			t.Fatalf("BeginSuperstep(%v): err = %v, want ErrUnsupportedSuperstep", alg, err)
		}
	}
	// A rejected Begin must not leak its gate admission: an exclusive
	// operation (a mutation batch) has to get through afterwards.
	if _, err := e.ApplyMutations([]Mutation{{Op: MutInsert, From: 0, To: 2, Weight: 5}}); err != nil {
		t.Fatalf("mutation after rejected BeginSuperstep: %v", err)
	}
}

// TestChainWalkMissingLookups: the path walk reports a lookup that finds
// nothing (ok=false with a nil error) as a plain error naming the node —
// for a parent link and for the distances the cross-handle segment unfold
// reads.
func TestChainWalkMissingLookups(t *testing.T) {
	ctx := context.Background()
	parents := map[int64]int64{5: 3, 3: 0}
	parent := func(_ context.Context, _ bool, nid int64) (int64, bool, error) {
		p, ok := parents[nid]
		return p, ok, nil
	}
	missing := func(context.Context, bool, int64) (int64, bool, error) { return 0, false, nil }

	w := chainWalk{parent: parent, guard: 10}
	got, err := w.walk(ctx, 5, 0, true)
	if err != nil || len(got) != 3 || got[0] != 5 || got[1] != 3 || got[2] != 0 {
		t.Fatalf("walk 5->0 = %v, %v; want [5 3 0]", got, err)
	}
	if _, err := w.walk(ctx, 5, 9, true); err == nil || err.Error() != "core: broken parent chain at node 0" {
		t.Fatalf("walk past the chain's end: err = %v", err)
	}

	w.unfold = func(ctx context.Context, forward bool, p, cur int64) ([]int64, error) {
		return segmentAcross(ctx, nil, missing, forward, p, cur)
	}
	_, err = w.walk(ctx, 5, 0, true)
	if err == nil || err.Error() != "core: no distance for node 5" {
		t.Fatalf("walk with a missing distance: err = %v, want \"core: no distance for node 5\"", err)
	}
}

// newLineEngine loads a directed weighted line 0->1->...->n-1 (weight 3).
func newLineEngine(t *testing.T, n int64) *Engine {
	t.Helper()
	db, err := rdb.Open(rdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	e := NewEngine(db, Options{})
	if err := e.LoadGraph(lineGraph(t, n, 3)); err != nil {
		t.Fatal(err)
	}
	return e
}
