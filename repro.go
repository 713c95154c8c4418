// Package repro is the public API of the relational shortest-path library,
// a from-scratch Go reproduction of "Relational Approach for Shortest Path
// Discovery over Large Graphs" (Gao, Jin, Zhou, Yu, Jiang, Wang — PVLDB
// 5(4), 2011).
//
// The library has three layers, all re-exported here:
//
//   - An embedded relational engine (package internal/rdb and below): page
//     storage, buffer pool, B+trees, a SQL subset with window functions and
//     MERGE, and DBMS feature profiles.
//   - The FEM framework and algorithms (internal/core): DJ, BDJ, BSDJ,
//     BBFS and BSEG over the SegTable index, all issuing SQL statements —
//     the Go side holds only scalar loop state, like the paper's JDBC
//     client.
//   - Graph tooling (internal/graph): generators matching the paper's
//     datasets, CSV persistence, and the in-memory baselines MDJ/MBDJ.
//
// On top of the FEM engine sits a concurrent serving layer built around
// one declarative entry point, Engine.Query: a QueryRequest names the
// endpoints, an optional algorithm hint (the default AlgAuto engages a
// cost-based planner that picks among the algorithms — or answers from the
// landmark oracle alone, within QueryRequest.MaxRelError), and a statement
// budget; the context carries deadlines and cancellation, honored within
// one frontier iteration. Engine is safe for any number of concurrent
// callers (an LRU result cache answers repeats from memory; relational
// searches share a query gate and write private scratch tables, so they
// run concurrently, while loads, builds and mutations take the gate
// exclusively), Engine.QueryBatch fans a request
// set across a worker pool, and cmd/spdbd exposes the whole stack over
// HTTP (POST /query). See docs/ARCHITECTURE.md for the concurrency model,
// the planner's decision table, and their invariants.
//
// Underneath, the relational engine executes every statement through a
// prepared-statement subsystem: rdb.DB keeps a plan cache keyed by (SQL
// text, profile, schema epoch), DB.Prepare/Session.PrepareContext expose
// explicit handles, and the FEM loops bind per-iteration values as ?
// parameters instead of re-rendering SQL — so the hot path never pays
// parse/plan costs (DBStats.PlanCacheHits/Misses/Invalidations report the
// cache's behavior).
//
// Quickstart:
//
//	db, _ := repro.Open(repro.DBOptions{})
//	defer db.Close()
//	g := repro.PowerGraph(10000, 3, 42)
//	eng := repro.NewEngine(db, repro.EngineOptions{})
//	_ = eng.LoadGraph(g)
//	_, _ = eng.BuildSegTable(20)
//	res, _ := eng.Query(context.Background(),
//		repro.QueryRequest{Source: 17, Target: 4711}) // AlgAuto: planner picks
//	fmt.Println(res.Distance, res.Path.Nodes, res.Stats)
package repro

import (
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/labels"
	"repro/internal/oracle"
	"repro/internal/rdb"
)

// Re-exported database types.
type (
	// DB is an embedded relational database instance. Each statement locks
	// the tables it reads (shared) and writes (exclusive), so statements
	// over disjoint tables run concurrently; DDL runs alone.
	DB = rdb.DB
	// DBOptions configures Open (buffer pool size, backing file, profile).
	DBOptions = rdb.Options
	// Profile models the emulated DBMS feature set.
	Profile = rdb.Profile
	// DBStats aggregates engine counters (statements, sessions, buffer, I/O).
	DBStats = rdb.Stats
	// Rows is a materialized query result.
	Rows = rdb.Rows
	// Session is a per-caller handle over a shared DB with its own
	// statement counters; open one per concurrent client (DB.Session).
	Session = rdb.Session
	// SessionStats snapshots one session's activity.
	SessionStats = rdb.SessionStats
)

// Engine profiles from the paper's evaluation (§5.1).
var (
	// ProfileDBMSX supports both window functions and MERGE.
	ProfileDBMSX = rdb.ProfileDBMSX
	// ProfilePostgreSQL9 supports window functions but not MERGE.
	ProfilePostgreSQL9 = rdb.ProfilePostgreSQL9
)

// Open creates an embedded database (in-memory when Path is empty).
func Open(opts DBOptions) (*DB, error) { return rdb.Open(opts) }

// Re-exported core types.
type (
	// Engine runs the relational shortest-path algorithms over a DB.
	Engine = core.Engine
	// EngineOptions selects index strategy, SQL dialect and ablations.
	EngineOptions = core.Options
	// Algorithm identifies one of the five approaches.
	Algorithm = core.Algorithm
	// IndexStrategy is the physical design axis (CluIndex/Index/NoIndex).
	IndexStrategy = core.IndexStrategy
	// Path is a discovered shortest path.
	Path = core.Path
	// QueryRequest is one declarative shortest-path question for
	// Engine.Query: endpoints, algorithm hint (AlgAuto = planner),
	// error tolerance and statement budget.
	QueryRequest = core.QueryRequest
	// QueryResult is the unified answer: exact path or oracle interval,
	// resolved algorithm, planner decision and per-query stats.
	QueryResult = core.QueryResult
	// QueryResponse pairs one Engine.QueryBatch request with its outcome.
	QueryResponse = core.QueryResponse
	// QueryStats carries per-query metrics (expansions, statements,
	// visited rows, iterations, planner decision, phase and operator
	// timings, cache hits).
	QueryStats = core.QueryStats
	// SegTableStats reports a SegTable construction.
	SegTableStats = core.SegTableStats
	// CacheStats snapshots the engine's shortest-path result cache
	// (Engine.CacheStats).
	CacheStats = core.CacheStats
	// Mutation is one edge change for Engine.ApplyMutations.
	Mutation = core.Mutation
	// MutOp selects the mutation kind (MutInsert, MutDelete, MutUpdate).
	MutOp = core.MutOp
	// MaintStats reports one incremental-maintenance step (Engine.InsertEdge,
	// DeleteEdge, UpdateEdgeWeight, ApplyMutations).
	MaintStats = core.MaintStats
	// MutationCounters snapshots the mutation subsystem
	// (Engine.MutationStats).
	MutationCounters = core.MutationCounters
)

// Mutation operations for Engine.ApplyMutations.
const (
	// MutInsert adds a (From, To, Weight) edge.
	MutInsert = core.MutInsert
	// MutDelete removes every (From, To) edge, parallel edges included.
	MutDelete = core.MutDelete
	// MutUpdate sets the cost of every (From, To) edge to Weight.
	MutUpdate = core.MutUpdate
)

// DefaultRepairThreshold is the decremental-repair row cap used when
// EngineOptions.RepairThreshold is zero.
const DefaultRepairThreshold = core.DefaultRepairThreshold

// DefaultCacheSize is the path-cache capacity used when
// EngineOptions.CacheSize is zero.
const DefaultCacheSize = core.DefaultCacheSize

// ErrBudgetExceeded identifies a query that spent its
// QueryRequest.MaxStatements budget (errors.Is).
var ErrBudgetExceeded = core.ErrBudgetExceeded

// Algorithms (§5.1 naming).
const (
	// AlgAuto (the zero value) lets Engine.Query's cost-based planner pick
	// the algorithm — or answer from the landmark oracle alone.
	AlgAuto = core.AlgAuto
	// AlgDJ is single-directional relational Dijkstra (Algorithm 1).
	AlgDJ = core.AlgDJ
	// AlgBDJ is bi-directional relational Dijkstra.
	AlgBDJ = core.AlgBDJ
	// AlgBSDJ is bi-directional set Dijkstra (§4.1).
	AlgBSDJ = core.AlgBSDJ
	// AlgBBFS is bi-directional breadth-first relaxation.
	AlgBBFS = core.AlgBBFS
	// AlgBSEG is selective expansion over SegTable (Algorithm 2).
	AlgBSEG = core.AlgBSEG
	// AlgALT is bi-directional set Dijkstra with ALT goal-directed pruning
	// over the landmark oracle (requires Engine.BuildOracle).
	AlgALT = core.AlgALT
	// AlgLabel answers from the pruned 2-hop hub-label index with a single
	// merge-join per distance (requires Engine.BuildLabels).
	AlgLabel = core.AlgLabel
)

// Re-exported landmark-oracle types (Engine.BuildOracle,
// Engine.DistanceInterval).
type (
	// OracleConfig selects the landmark count and placement strategy.
	OracleConfig = oracle.Config
	// OracleStats reports one oracle construction.
	OracleStats = oracle.BuildStats
	// LandmarkStrategy picks landmark placement (degree or farthest-point).
	LandmarkStrategy = oracle.Strategy
	// Interval is an approximate-distance answer bracketing the exact
	// distance: Lower <= dist(s,t) <= Upper.
	Interval = core.Interval
)

// Re-exported hub-label types (Engine.BuildLabels, AlgLabel).
type (
	// LabelStats reports one hub-label (2-hop) index construction.
	LabelStats = labels.BuildStats
	// LabelIndex is the built label index's metadata (Engine.Labels; nil
	// while no valid index exists).
	LabelIndex = labels.Labels
)

// Landmark placement strategies.
const (
	// LandmarksByDegree picks the k highest-degree nodes.
	LandmarksByDegree = oracle.Degree
	// LandmarksFarthest spreads landmarks by farthest-point traversal.
	LandmarksFarthest = oracle.Farthest
)

// Index strategies (Fig 8(c)).
const (
	// ClusteredIndex stores tables as B+trees on their key columns.
	ClusteredIndex = core.ClusteredIndex
	// SecondaryIndex keeps heap tables with non-clustered indexes.
	SecondaryIndex = core.SecondaryIndex
	// NoIndex keeps bare heaps.
	NoIndex = core.NoIndex
)

// NewEngine wraps a database; call Engine.LoadGraph next.
func NewEngine(db *DB, opts EngineOptions) *Engine { return core.NewEngine(db, opts) }

// Re-exported graph types.
type (
	// Graph is an in-memory weighted directed graph.
	Graph = graph.Graph
	// Edge is one weighted directed edge.
	Edge = graph.Edge
	// PathResult is an in-memory search result (baselines).
	PathResult = graph.PathResult
)

// NewGraph builds a graph from an edge list over n nodes.
func NewGraph(n int64, edges []Edge) (*Graph, error) { return graph.New(n, edges) }

// RandomGraph generates the paper's Random family: m uniformly sampled
// edges over n nodes, weights in [1,100].
func RandomGraph(n int64, m int, seed int64) *Graph { return graph.Random(n, m, seed) }

// PowerGraph generates the paper's Power family (Barabási–Albert
// preferential attachment) with the given average degree.
func PowerGraph(n int64, avgDegree int, seed int64) *Graph {
	return graph.Power(n, avgDegree, seed)
}

// DBLPLike generates a synthetic analog of the paper's DBLP dataset at the
// given scale (1.0 = full size).
func DBLPLike(scale float64, seed int64) *Graph { return graph.DBLPLike(scale, seed) }

// GoogleWebLike generates a synthetic analog of the GoogleWeb dataset.
func GoogleWebLike(scale float64, seed int64) *Graph { return graph.GoogleWebLike(scale, seed) }

// LiveJournalLike generates a synthetic analog of the LiveJournal dataset.
func LiveJournalLike(scale float64, seed int64) *Graph { return graph.LiveJournalLike(scale, seed) }

// LoadGraphFile reads a CSV edge list ("fid,tid,cost" lines).
func LoadGraphFile(path string) (*Graph, error) { return graph.LoadFile(path) }

// RandomQueries draws (source, target) pairs for a workload.
func RandomQueries(g *Graph, q int, seed int64) [][2]int64 { return graph.RandomQueries(g, q, seed) }

// MDJ is the in-memory Dijkstra baseline.
func MDJ(g *Graph, s, t int64) PathResult { return graph.MDJ(g, s, t) }

// MBDJ is the in-memory bi-directional Dijkstra baseline.
func MBDJ(g *Graph, s, t int64) PathResult { return graph.MBDJ(g, s, t) }
