package main

import (
	"math"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/graph"
)

// Query pairs are dealt by difficulty quantile. Per-query cost on these
// graphs spans two orders of magnitude, so a run of a hundred plainly
// random pairs moves its mean by ~10% from seed to seed on pair luck alone.
// The benchmark therefore draws a pool of random pairs from the seed, sorts
// it by a difficulty score, and deals the i-th query from the quantile
// frac(½ + i·φ⁻¹) of that order: a low-discrepancy sequence, so every
// prefix of the run samples the difficulty distribution evenly. Each seed
// still runs different pairs, with the same difficulty profile.

// drawPairs returns n distinct random pairs with s != t, none in skip.
func drawPairs(g *graph.Graph, rng *rand.Rand, n int, skip map[[2]int64]bool) [][2]int64 {
	seen := map[[2]int64]bool{}
	out := make([][2]int64, 0, n)
	for len(out) < n {
		p := [2]int64{rng.Int63n(g.N), rng.Int63n(g.N)}
		if p[0] == p[1] || seen[p] || skip[p] {
			continue
		}
		seen[p] = true
		out = append(out, p)
	}
	return out
}

// difficulty replays the engine's bi-directional set-Dijkstra loop (BSDJ)
// in memory and returns the sum, over its frontier rounds, of the visited
// set's size. Every round's statements scan the visited table, so this
// tracks the search's relational work: on the warm workload it correlates
// above 0.99 with measured query time and reproduces its statement count.
func difficulty(g *graph.Graph, s, t int64) int64 {
	const inf = int64(math.MaxInt64 / 4)
	const (
		none = iota
		cand
		done
	)
	// Per side: distance and state by node id; visited lists the nodes
	// either side has reached.
	var dist [2][]int64
	var state [2][]int8
	for k := range dist {
		dist[k] = make([]int64, g.N)
		state[k] = make([]int8, g.N)
		for i := range dist[k] {
			dist[k][i] = inf
		}
	}
	seen := make([]bool, g.N)
	dist[0][s], state[0][s], dist[1][t], state[1][t] = 0, cand, 0, cand
	seen[s], seen[t] = true, true
	visited := []int64{s, t}
	var l [2]int64 // each side's smallest unexpanded distance
	n := [2]int{1, 1}
	open := [2]bool{true, true}
	best := inf
	var work int64
	minCand := func(k int) int64 {
		m := inf
		for _, u := range visited {
			if state[k][u] == cand && dist[k][u] < m {
				m = dist[k][u]
			}
		}
		return m
	}
	for {
		work += int64(len(visited))
		for _, u := range visited {
			best = min(best, dist[0][u]+dist[1][u])
		}
		if best < inf && l[0]+l[1] >= best || !open[0] && !open[1] {
			return work
		}
		k := 1 // expand the side with fewer frontier nodes, forward on ties
		if open[0] && (!open[1] || n[0] <= n[1]) {
			k = 0
		}
		d, st, lOther := dist[k], state[k], l[1-k]
		m := minCand(k)
		var front []int64
		for _, u := range visited {
			if st[u] == cand && d[u] == m {
				front = append(front, u)
			}
		}
		if len(front) == 0 {
			open[k] = false
			continue
		}
		for _, u := range front {
			st[u] = done
			du := d[u]
			relax := func(v, w int64) {
				nd := du + w
				if nd+lOther >= best || nd >= d[v] {
					return
				}
				d[v] = nd
				if st[v] != done {
					st[v] = cand
				}
				if !seen[v] {
					seen[v] = true
					visited = append(visited, v)
				}
			}
			if k == 0 {
				g.OutEdges(u, relax)
			} else {
				g.InEdges(u, relax)
			}
		}
		if m := minCand(k); m == inf {
			open[k] = false
		} else {
			l[k] = m
		}
		n[k] = len(front)
	}
}

// pairSeq deals pairs of a pool by difficulty quantile (see above).
type pairSeq struct {
	mu     sync.Mutex
	sorted [][2]int64 // the pool, easiest first
	used   []bool
	i      int
}

// newPairSeq sorts pool by difficulty.
func newPairSeq(g *graph.Graph, pool [][2]int64) *pairSeq {
	w := make(map[[2]int64]int64, len(pool))
	for _, p := range pool {
		w[p] = difficulty(g, p[0], p[1])
	}
	sorted := append([][2]int64(nil), pool...)
	// Stable on the pool's (seeded, random) order, so ties keep it.
	sort.SliceStable(sorted, func(i, j int) bool { return w[sorted[i]] < w[sorted[j]] })
	return &pairSeq{sorted: sorted, used: make([]bool, len(pool))}
}

// quantile is the difficulty quantile of the i-th pair.
func quantile(i int) float64 {
	const invPhi = 0.6180339887498949
	_, f := math.Modf(0.5 + float64(i)*invPhi)
	return f
}

// next deals the next pair: the one at the next quantile, or the nearest
// one not yet dealt (once all are dealt, the pool is dealt again). Safe for
// concurrent clients.
func (ps *pairSeq) next() [2]int64 {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	n := len(ps.sorted)
	if ps.i%n == 0 {
		clear(ps.used)
	}
	at := int(quantile(ps.i) * float64(n))
	ps.i++
	for d := 0; ; d++ {
		for _, j := range []int{at - d, at + d} {
			if j >= 0 && j < n && !ps.used[j] {
				ps.used[j] = true
				return ps.sorted[j]
			}
		}
	}
}
