package exec

import (
	"fmt"
	"testing"

	"repro/internal/record"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/table"
)

// frontierCatalog builds the scratch-TVisited physical design: V keyed on
// nid (clustered, or a heap with a unique nid index) plus non-unique
// (f, d2s) and (b, d2t) indexes, and H, the same columns as a bare heap.
func frontierCatalog(t *testing.T, clustered bool) *Planner {
	t.Helper()
	pl := NewPlanner(table.NewCatalog(storage.NewBufferPool(storage.NewMemDiskManager(0), 256)))
	key := "nid INT"
	if clustered {
		key = "nid INT PRIMARY KEY"
	}
	for _, q := range []string{
		"CREATE TABLE V (" + key + ", d2s INT, f INT, d2t INT, b INT)",
		"CREATE INDEX v_f ON V (f, d2s)",
		"CREATE INDEX v_b ON V (b, d2t)",
		"CREATE TABLE H (nid INT, d2s INT, f INT, d2t INT, b INT)",
	} {
		execSQL(t, pl, q)
	}
	if !clustered {
		execSQL(t, pl, "CREATE UNIQUE INDEX v_nid ON V (nid)")
	}
	return pl
}

// execSQL runs one statement, returning its result rows (SELECT) or a
// single-row affected count (DML).
func execSQL(t *testing.T, pl *Planner, q string, params ...record.Value) []record.Row {
	t.Helper()
	st, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	ctx := &Ctx{Params: params}
	var res Result
	switch s := st.(type) {
	case *sql.CreateTableStmt:
		err = pl.ExecCreateTable(s)
	case *sql.CreateIndexStmt:
		err = pl.ExecCreateIndex(s)
	case *sql.InsertStmt:
		res, err = pl.ExecInsert(s, ctx)
	case *sql.UpdateStmt:
		res, err = pl.ExecUpdate(s, ctx)
	case *sql.SelectStmt:
		var ps *PreparedSelect
		if ps, err = pl.PrepareSelect(s); err == nil {
			var rows []record.Row
			if rows, err = ps.Run(ctx); err == nil {
				return rows
			}
		}
	default:
		t.Fatalf("execSQL: unsupported %T", st)
	}
	if err != nil {
		t.Fatalf("%q: %v", q, err)
	}
	return []record.Row{{record.Int(res.RowsAffected)}}
}

func intOf(t *testing.T, rows []record.Row) (int64, bool) {
	t.Helper()
	if len(rows) != 1 || len(rows[0]) != 1 {
		t.Fatalf("want one single-column row, got %v", rows)
	}
	return rows[0][0].I, rows[0][0].Null
}

// loadBoth inserts the same rows into V and H.
func loadBoth(t *testing.T, pl *Planner, rows string) {
	t.Helper()
	for _, tbl := range []string{"V", "H"} {
		execSQL(t, pl, "INSERT INTO "+tbl+" (nid, d2s, f, d2t, b) VALUES "+rows)
	}
}

func TestIndexOrderedMin(t *testing.T) {
	for _, clustered := range []bool{true, false} {
		t.Run(fmt.Sprintf("clustered=%v", clustered), func(t *testing.T) {
			pl := frontierCatalog(t, clustered)
			// NULL d2s sorts first in the (f, d2s) index; MIN must skip it.
			loadBoth(t, pl, "(1, NULL, 0, 5, 1), (2, 9, 0, 5, 1), (3, 4, 0, 5, 1), (4, 2, 1, 5, 0), (5, 7, 0, 5, 1)")

			q := "SELECT MIN(d2s) FROM V WHERE f = 0"
			p, ok := planOf(t, pl.Catalog(), q).(*Project)
			if !ok {
				t.Fatalf("want Project on top")
			}
			agg, ok := p.Input.(*Aggregate)
			if !ok || !agg.FirstMin {
				t.Fatalf("want an early-stop Aggregate, got %T %+v", p.Input, p.Input)
			}
			scan, ok := agg.Input.(*IndexEqScan)
			if !ok || scan.Index == nil || scan.Index.Name != "v_f" || len(scan.KeyFns) != 1 {
				t.Fatalf("want a one-key probe of v_f under the aggregate, got %T", agg.Input)
			}
			if v, null := intOf(t, execSQL(t, pl, q)); null || v != 4 {
				t.Fatalf("MIN(d2s) = %v (null=%v), want 4", v, null)
			}
			// It reads the NULL-keyed row and the minimum, nothing more.
			counted := &countRows{Node: scan}
			agg.Input = counted
			if rows, err := runPlan(p, &Ctx{}); err != nil || rows[0][0].I != 4 {
				t.Fatalf("MIN(d2s) = %v, %v", rows, err)
			}
			if counted.n != 2 {
				t.Fatalf("ordered MIN pulled %d rows, want 2", counted.n)
			}
			if v, _ := intOf(t, execSQL(t, pl, "SELECT MIN(d2s) FROM H WHERE f = 0")); v != 4 {
				t.Fatalf("heap MIN(d2s) = %d, want 4", v)
			}
			// No candidates: NULL, like the scan.
			if _, null := intOf(t, execSQL(t, pl, "SELECT MIN(d2s) FROM V WHERE f = 7")); !null {
				t.Fatal("MIN over no rows must be NULL")
			}
			// Only NULL keys under the prefix: NULL as well.
			execSQL(t, pl, "INSERT INTO V (nid, d2s, f, d2t, b) VALUES (6, NULL, 8, 0, 0)")
			if _, null := intOf(t, execSQL(t, pl, "SELECT MIN(d2s) FROM V WHERE f = 8")); !null {
				t.Fatal("MIN over NULL keys must be NULL")
			}

			// The index does not order these, so they drain their input.
			for _, q := range []string{
				"SELECT MIN(d2t) FROM V WHERE f = 0",
				"SELECT MAX(d2s) FROM V WHERE f = 0",
				"SELECT MIN(d2s + 0) FROM V WHERE f = 0",
				"SELECT MIN(d2s), COUNT(*) FROM V WHERE f = 0",
				"SELECT MIN(d2s) FROM V",
			} {
				if agg := findAggregate(planOf(t, pl.Catalog(), q)); agg == nil || agg.FirstMin {
					t.Errorf("%q must not stop early", q)
				}
			}
			if v, _ := intOf(t, execSQL(t, pl, "SELECT MIN(d2t) FROM V WHERE f = 0")); v != 5 {
				t.Fatalf("MIN(d2t) = %d, want 5", v)
			}
		})
	}
}

// countRows counts the rows its input yields.
type countRows struct {
	Node
	n int
}

func (c *countRows) Next(ctx *Ctx) (record.Row, error) {
	r, err := c.Node.Next(ctx)
	if r != nil {
		c.n++
	}
	return r, err
}

func findAggregate(n Node) *Aggregate {
	for {
		switch v := n.(type) {
		case *Aggregate:
			return v
		case *Project:
			n = v.Input
		case *Filter:
			n = v.Input
		default:
			return nil
		}
	}
}

func TestFrontierUpdateProbesSubqueryKey(t *testing.T) {
	for _, clustered := range []bool{true, false} {
		t.Run(fmt.Sprintf("clustered=%v", clustered), func(t *testing.T) {
			pl := frontierCatalog(t, clustered)
			loadBoth(t, pl, "(1, 3, 0, 0, 1), (2, 3, 0, 0, 1), (3, 5, 0, 0, 1), (4, 1, 1, 0, 1), (5, 3, 1, 0, 1)")

			where := "f = 0 AND d2s = (SELECT MIN(d2s) FROM V WHERE f = 0)"
			probe, residual := targetAccess(t, pl, "V", where)
			if probe == nil || probe.index == nil || probe.index.Name != "v_f" || len(probe.keyFns) != 2 {
				t.Fatalf("want a two-key v_f probe, got %+v", probe)
			}
			if residual != nil {
				t.Fatal("both conjuncts should be consumed by the probe")
			}
			// The SELECT form plans the same way.
			scan, ok := unwrap(planOf(t, pl.Catalog(), "SELECT nid FROM V WHERE "+where)).(*IndexEqScan)
			if !ok || len(scan.KeyFns) != 2 {
				t.Fatal("SELECT with the frontier predicate must probe two keys")
			}

			for _, tbl := range []string{"V", "H"} {
				q := "UPDATE " + tbl + " SET f = 2 WHERE f = 0 AND d2s = (SELECT MIN(d2s) FROM " + tbl + " WHERE f = 0)"
				if n, _ := intOf(t, execSQL(t, pl, q)); n != 2 {
					t.Fatalf("%s: frontier UPDATE affected %d, want 2", tbl, n)
				}
				rows := execSQL(t, pl, "SELECT nid FROM "+tbl+" WHERE f = 2 ORDER BY nid")
				if len(rows) != 2 || rows[0][0].I != 1 || rows[1][0].I != 2 {
					t.Fatalf("%s: frontier = %v, want nids 1, 2", tbl, rows)
				}
			}
		})
	}
}

// targetAccess runs the DML access-path analysis for a WHERE clause on tbl.
func targetAccess(t *testing.T, pl *Planner, tbl, where string) (*probePlan, scalarFn) {
	t.Helper()
	st, err := sql.Parse("UPDATE " + tbl + " SET f = 1 WHERE " + where)
	if err != nil {
		t.Fatal(err)
	}
	up := st.(*sql.UpdateStmt)
	tb, _ := pl.Catalog().Get(tbl)
	lay := NewLayout(tbl, schemaNames(tb))
	probe, residual, err := pl.analyzeTargetAccess(tb, tbl, lay, &Env{Lay: lay}, splitConjuncts(up.Where), &compiler{planner: pl})
	if err != nil {
		t.Fatal(err)
	}
	return probe, residual
}

func TestCorrelatedSubqueryNeverProbes(t *testing.T) {
	pl := frontierCatalog(t, true)
	loadBoth(t, pl, "(1, 3, 0, 3, 1), (2, 4, 0, 9, 1), (3, 5, 0, 5, 1)")

	// Correlated to the probed row itself.
	q := "SELECT nid FROM V WHERE f = 0 AND d2s = (SELECT MIN(x.d2t) FROM V x WHERE x.nid = V.nid) ORDER BY nid"
	scan, ok := unwrap(planOf(t, pl.Catalog(), q)).(*IndexEqScan)
	if !ok || len(scan.KeyFns) != 1 || scan.Residual == nil {
		t.Fatal("a correlated subquery must stay in the residual, not become a probe key")
	}
	rows := execSQL(t, pl, q)
	if len(rows) != 2 || rows[0][0].I != 1 || rows[1][0].I != 3 {
		t.Fatalf("correlated filter = %v, want nids 1, 3", rows)
	}
	if probe, residual := targetAccess(t, pl, "V", "f = 0 AND d2s = (SELECT MIN(x.d2t) FROM V x WHERE x.nid = V.nid)"); probe == nil || len(probe.keyFns) != 1 || residual == nil {
		t.Fatal("UPDATE: a correlated subquery must stay in the residual")
	}

	// Correlated to an enclosing query, not the probed table.
	q = "SELECT h.nid FROM H h WHERE EXISTS (SELECT 1 FROM V WHERE f = 0 AND d2s = (SELECT MIN(y.d2s) FROM V y WHERE y.nid = h.nid)) ORDER BY h.nid"
	if rows := execSQL(t, pl, q); len(rows) != 3 {
		t.Fatalf("outer-correlated EXISTS = %v, want all 3 rows", rows)
	}
}

func TestUpdateViaIndexTouchesEachRowOnce(t *testing.T) {
	for _, clustered := range []bool{true, false} {
		t.Run(fmt.Sprintf("clustered=%v", clustered), func(t *testing.T) {
			pl := frontierCatalog(t, clustered)
			const n = 600 // several index leaves
			for i := 0; i < n; i++ {
				f := 2
				if i%3 == 0 {
					f = 0
				}
				execSQL(t, pl, fmt.Sprintf("INSERT INTO V (nid, d2s, f, d2t, b) VALUES (%d, %d, %d, 0, 1)", i, i, f))
			}
			if probe, _ := targetAccess(t, pl, "V", "f = 2"); probe == nil || probe.index == nil || probe.index.Name != "v_f" {
				t.Fatal("the reset UPDATE must probe the (f, d2s) index")
			}
			// Each update moves its row forward in the (f, d2s) index it was
			// found through. Only materializing every match before the first
			// update keeps a row from being found and bumped again.
			if got, _ := intOf(t, execSQL(t, pl, "UPDATE V SET d2s = d2s + 1000 WHERE f = 2")); got != 2*n/3 {
				t.Fatalf("UPDATE affected %d rows, want %d", got, 2*n/3)
			}
			if got, _ := intOf(t, execSQL(t, pl, "UPDATE V SET f = 1 WHERE f = 2")); got != 2*n/3 {
				t.Fatalf("reset affected %d rows, want %d", got, 2*n/3)
			}
			for _, r := range execSQL(t, pl, "SELECT nid, d2s, f FROM V") {
				want := r[0].I
				if r[2].I == 1 {
					want += 1000
				}
				if r[1].I != want {
					t.Fatalf("nid %d: d2s = %d, want %d", r[0].I, r[1].I, want)
				}
			}
			if got, _ := intOf(t, execSQL(t, pl, "SELECT COUNT(*) FROM V WHERE f = 2")); got != 0 {
				t.Fatalf("%d rows left with f = 2", got)
			}
		})
	}
}

// TestNullProbeMatchesNothing: `col = NULL` is never true, so an index
// probe with a NULL key must agree with the heap scan's predicate.
func TestNullProbeMatchesNothing(t *testing.T) {
	for _, clustered := range []bool{true, false} {
		t.Run(fmt.Sprintf("clustered=%v", clustered), func(t *testing.T) {
			pl := frontierCatalog(t, clustered)
			loadBoth(t, pl, "(1, NULL, NULL, 0, 1), (2, 5, 0, 0, 1)")
			null := record.Value{Null: true}
			for _, c := range []struct {
				where  string
				params []record.Value
			}{
				{"f = ?", []record.Value{null}},
				{"f = ? AND d2s = ?", []record.Value{record.Int(0), null}},
				{"f = (SELECT MIN(f) FROM H WHERE nid = 99)", nil},
				{"f = 0 AND d2s = (SELECT MIN(d2s) FROM V WHERE f = 7)", nil},
			} {
				for _, tbl := range []string{"V", "H"} {
					if got, _ := intOf(t, execSQL(t, pl, "SELECT COUNT(*) FROM "+tbl+" WHERE "+c.where, c.params...)); got != 0 {
						t.Errorf("%s WHERE %s: COUNT = %d, want 0", tbl, c.where, got)
					}
					if got, _ := intOf(t, execSQL(t, pl, "UPDATE "+tbl+" SET b = 9 WHERE "+c.where, c.params...)); got != 0 {
						t.Errorf("%s WHERE %s: UPDATE affected %d, want 0", tbl, c.where, got)
					}
				}
			}
			if probe, _ := targetAccess(t, pl, "V", "f = ?"); probe == nil {
				t.Fatal("f = ? must be an index probe for the test to mean anything")
			}
		})
	}
}
