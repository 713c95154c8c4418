package exec

import (
	"fmt"

	"repro/internal/record"
	"repro/internal/sql"
	"repro/internal/table"
)

// Result reports the outcome of a DML statement — the engine's SQLCA. The
// paper's drivers read "the number of affected tuples from SQL
// communication area of database (SQLCA)" to detect termination, so every
// writer returns an exact affected-row count.
type Result struct {
	RowsAffected int64
}

// PreparedDML is a compiled, re-executable mutating statement. Preparation
// does all parsing-adjacent work once — target resolution, index-probe
// selection, expression compilation — and Run binds fresh parameter values
// through the Ctx. The compiled state is immutable; per-execution state
// (sub-plan instances, memoized subqueries) lives in the Ctx, so one
// PreparedDML may be shared by a plan cache.
type PreparedDML struct {
	run func(ctx *Ctx) (Result, error)
}

// Run executes the prepared statement with the parameters bound in ctx.
func (p *PreparedDML) Run(ctx *Ctx) (Result, error) { return p.run(ctx) }

// targetMatch is one target row addressed by a DML statement.
type targetMatch struct {
	loc table.Loc
	row record.Row
}

// probePlan describes an index probe derived from equality conjuncts.
type probePlan struct {
	index  *table.Index // nil = clustered
	keyFns []scalarFn
}

// analyzeTargetAccess splits conjuncts into an optional index probe on t
// plus a residual predicate. env must be the env in which the conjuncts are
// evaluated per candidate target row (target layout at level 0).
func (p *Planner) analyzeTargetAccess(t *table.Table, qual string, lay *Layout, env *Env, conjuncts []sql.Expr, c *compiler) (*probePlan, scalarFn, error) {
	remaining := append([]sql.Expr(nil), conjuncts...)
	node := p.chooseAccessPath(t, qual, lay, env, &remaining, c, nil)
	var probe *probePlan
	if ie, ok := node.(*IndexEqScan); ok {
		probe = &probePlan{index: ie.Index, keyFns: ie.KeyFns}
	}
	var residual scalarFn
	if len(remaining) > 0 {
		pred, err := c.compileExpr(andAll(remaining), env, nil)
		if err != nil {
			return nil, nil, err
		}
		residual = pred
	}
	return probe, residual, nil
}

// findTargets materializes the target rows matching the probe+residual.
// Materializing first keeps scans stable while the caller mutates the table.
func findTargets(ctx *Ctx, t *table.Table, probe *probePlan, residual scalarFn) ([]targetMatch, error) {
	var out []targetMatch
	check := func(loc table.Loc, row record.Row) error {
		if residual != nil {
			v, err := residual(ctx, row)
			if err != nil {
				return err
			}
			if !v.Truthy() {
				return nil
			}
		}
		out = append(out, targetMatch{loc: loc, row: row})
		return nil
	}
	if probe != nil {
		vals, ok, err := probeKeys(ctx, probe.keyFns)
		if err != nil || !ok {
			return nil, err
		}
		if probe.index == nil {
			it := t.ScanClusteredPrefix(vals)
			for it.Next() {
				if err := check(it.Loc(), it.Row()); err != nil {
					return nil, err
				}
			}
			if err := it.Err(); err != nil {
				return nil, err
			}
		} else {
			it := t.LookupEq(probe.index, vals)
			for it.Next() {
				if err := check(it.Loc(), it.Row()); err != nil {
					return nil, err
				}
			}
			if err := it.Err(); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	it := t.Scan()
	for it.Next() {
		if err := check(it.Loc(), it.Row()); err != nil {
			return nil, err
		}
	}
	if err := it.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// PrepareInsert compiles an INSERT statement.
func (p *Planner) PrepareInsert(st *sql.InsertStmt) (*PreparedDML, error) {
	t, ok := p.cat.Get(st.Table)
	if !ok {
		return nil, fmt.Errorf("exec: unknown table %q", st.Table)
	}
	ordinals, err := insertOrdinals(t, st.Cols)
	if err != nil {
		return nil, err
	}
	c := &compiler{planner: p}
	if st.Select != nil {
		plan, lay, err := p.planSelect(st.Select, nil, c, nil)
		if err != nil {
			return nil, err
		}
		if len(lay.Cols) != len(ordinals) {
			return nil, fmt.Errorf("exec: INSERT expects %d columns, SELECT returns %d", len(ordinals), len(lay.Cols))
		}
		return &PreparedDML{run: func(ctx *Ctx) (Result, error) {
			rows, err := runPlan(plan.Clone(), ctx)
			if err != nil {
				return Result{}, err
			}
			var n int64
			for _, r := range rows {
				row := buildInsertRow(t, ordinals, r)
				if _, err := t.Insert(row); err != nil {
					return Result{}, err
				}
				n++
			}
			return Result{RowsAffected: n}, nil
		}}, nil
	}
	env := &Env{Lay: &Layout{}}
	rowFns := make([][]scalarFn, len(st.Rows))
	for ri, valueExprs := range st.Rows {
		if len(valueExprs) != len(ordinals) {
			return nil, fmt.Errorf("exec: INSERT expects %d values, got %d", len(ordinals), len(valueExprs))
		}
		fns := make([]scalarFn, len(valueExprs))
		for i, e := range valueExprs {
			f, err := c.compileExpr(e, env, nil)
			if err != nil {
				return nil, err
			}
			fns[i] = f
		}
		rowFns[ri] = fns
	}
	return &PreparedDML{run: func(ctx *Ctx) (Result, error) {
		var n int64
		for _, fns := range rowFns {
			vals := make(record.Row, len(fns))
			for i, f := range fns {
				v, err := f(ctx, nil)
				if err != nil {
					return Result{}, err
				}
				vals[i] = v
			}
			row := buildInsertRow(t, ordinals, vals)
			if _, err := t.Insert(row); err != nil {
				return Result{}, err
			}
			n++
		}
		return Result{RowsAffected: n}, nil
	}}, nil
}

// ExecInsert compiles and runs an INSERT statement.
func (p *Planner) ExecInsert(st *sql.InsertStmt, ctx *Ctx) (Result, error) {
	pd, err := p.PrepareInsert(st)
	if err != nil {
		return Result{}, err
	}
	return pd.Run(ctx)
}

func insertOrdinals(t *table.Table, cols []string) ([]int, error) {
	if len(cols) == 0 {
		out := make([]int, t.Schema.Len())
		for i := range out {
			out[i] = i
		}
		return out, nil
	}
	out := make([]int, len(cols))
	for i, cn := range cols {
		ord := t.Schema.Ordinal(cn)
		if ord < 0 {
			return nil, fmt.Errorf("exec: table %s has no column %q", t.Name, cn)
		}
		out[i] = ord
	}
	return out, nil
}

func buildInsertRow(t *table.Table, ordinals []int, vals record.Row) record.Row {
	row := make(record.Row, t.Schema.Len())
	for i := range row {
		row[i] = record.NullOf(t.Schema.Columns[i].Type)
	}
	for i, ord := range ordinals {
		row[ord] = vals[i]
	}
	return row
}

// PrepareDelete compiles a DELETE statement.
func (p *Planner) PrepareDelete(st *sql.DeleteStmt) (*PreparedDML, error) {
	t, ok := p.cat.Get(st.Table)
	if !ok {
		return nil, fmt.Errorf("exec: unknown table %q", st.Table)
	}
	if st.Where == nil {
		// Fast path: full truncate.
		return &PreparedDML{run: func(*Ctx) (Result, error) {
			n := int64(t.RowCount())
			if err := t.Truncate(); err != nil {
				return Result{}, err
			}
			return Result{RowsAffected: n}, nil
		}}, nil
	}
	c := &compiler{planner: p}
	lay := NewLayout(st.Table, schemaNames(t))
	env := &Env{Lay: lay}
	probe, residual, err := p.analyzeTargetAccess(t, st.Table, lay, env, splitConjuncts(st.Where), c)
	if err != nil {
		return nil, err
	}
	return &PreparedDML{run: func(ctx *Ctx) (Result, error) {
		matches, err := findTargets(ctx, t, probe, residual)
		if err != nil {
			return Result{}, err
		}
		for _, m := range matches {
			if err := t.Delete(m.loc, m.row); err != nil {
				return Result{}, err
			}
		}
		return Result{RowsAffected: int64(len(matches))}, nil
	}}, nil
}

// ExecDelete compiles and runs a DELETE statement.
func (p *Planner) ExecDelete(st *sql.DeleteStmt, ctx *Ctx) (Result, error) {
	pd, err := p.PrepareDelete(st)
	if err != nil {
		return Result{}, err
	}
	return pd.Run(ctx)
}

// PrepareUpdate compiles an UPDATE statement, including the
// PostgreSQL-style UPDATE ... FROM form the TSQL dialect uses to emulate
// MERGE.
func (p *Planner) PrepareUpdate(st *sql.UpdateStmt) (*PreparedDML, error) {
	t, ok := p.cat.Get(st.Table)
	if !ok {
		return nil, fmt.Errorf("exec: unknown table %q", st.Table)
	}
	qual := st.Alias
	if qual == "" {
		qual = st.Table
	}
	c := &compiler{planner: p}
	lay := NewLayout(qual, schemaNames(t))

	if st.From == nil {
		env := &Env{Lay: lay}
		probe, residual, err := p.analyzeTargetAccess(t, qual, lay, env, splitConjuncts(st.Where), c)
		if err != nil {
			return nil, err
		}
		setFns, setOrds, err := p.compileSets(t, st.Sets, env, c)
		if err != nil {
			return nil, err
		}
		return &PreparedDML{run: func(ctx *Ctx) (Result, error) {
			matches, err := findTargets(ctx, t, probe, residual)
			if err != nil {
				return Result{}, err
			}
			var n int64
			for _, m := range matches {
				newRow, changed, err := applySets(ctx, m.row, setFns, setOrds)
				if err != nil {
					return Result{}, err
				}
				if !changed {
					n++ // SQL counts matched rows even if values are identical
					continue
				}
				if _, err := t.Update(m.loc, m.row, newRow); err != nil {
					return Result{}, err
				}
				n++
			}
			return Result{RowsAffected: n}, nil
		}}, nil
	}

	// UPDATE ... FROM source: for each source row, probe the target.
	srcPlan, srcLay, err := p.planFromRef(st.From, c)
	if err != nil {
		return nil, err
	}
	srcEnv := &Env{Lay: srcLay}
	targetEnv := &Env{Lay: lay, Parent: srcEnv}
	probe, residual, err := p.analyzeTargetAccess(t, qual, lay, targetEnv, splitConjuncts(st.Where), c)
	if err != nil {
		return nil, err
	}
	setFns, setOrds, err := p.compileSets(t, st.Sets, targetEnv, c)
	if err != nil {
		return nil, err
	}
	return &PreparedDML{run: func(ctx *Ctx) (Result, error) {
		srcRows, err := runPlan(srcPlan.Clone(), ctx)
		if err != nil {
			return Result{}, err
		}
		touched := make(map[string]bool)
		var n int64
		for _, srcRow := range srcRows {
			ctx.Push(srcRow)
			matches, err := findTargets(ctx, t, probe, residual)
			if err != nil {
				ctx.Pop()
				return Result{}, err
			}
			for _, m := range matches {
				lk := locKey(m.loc)
				if touched[lk] {
					continue // first matching source row wins
				}
				touched[lk] = true
				newRow, changed, err := applySets(ctx, m.row, setFns, setOrds)
				if err != nil {
					ctx.Pop()
					return Result{}, err
				}
				if changed {
					if _, err := t.Update(m.loc, m.row, newRow); err != nil {
						ctx.Pop()
						return Result{}, err
					}
				}
				n++
			}
			ctx.Pop()
		}
		return Result{RowsAffected: n}, nil
	}}, nil
}

// ExecUpdate compiles and runs an UPDATE statement.
func (p *Planner) ExecUpdate(st *sql.UpdateStmt, ctx *Ctx) (Result, error) {
	pd, err := p.PrepareUpdate(st)
	if err != nil {
		return Result{}, err
	}
	return pd.Run(ctx)
}

func locKey(l table.Loc) string {
	if l.Key != nil {
		return "k" + string(l.Key)
	}
	return fmt.Sprintf("r%d.%d", l.RID.Page, l.RID.Slot)
}

// planFromRef plans a table or derived-table reference standalone.
func (p *Planner) planFromRef(ref *sql.TableRef, c *compiler) (Node, *Layout, error) {
	if ref.Sub != nil {
		node, subLay, err := p.planSelect(ref.Sub, nil, c, nil)
		if err != nil {
			return nil, nil, err
		}
		lay, err := derivedLayout(ref, subLay)
		return node, lay, err
	}
	t, ok := p.cat.Get(ref.Table)
	if !ok {
		return nil, nil, fmt.Errorf("exec: unknown table %q", ref.Table)
	}
	return &SeqScan{Table: t}, NewLayout(ref.Name(), schemaNames(t)), nil
}

// compileSets compiles SET clauses; the env's level-0 row is the target row
// (level 1 the source row for UPDATE-FROM / MERGE).
func (p *Planner) compileSets(t *table.Table, sets []sql.SetClause, env *Env, c *compiler) ([]scalarFn, []int, error) {
	fns := make([]scalarFn, len(sets))
	ords := make([]int, len(sets))
	for i, s := range sets {
		ord := t.Schema.Ordinal(s.Col)
		if ord < 0 {
			return nil, nil, fmt.Errorf("exec: table %s has no column %q", t.Name, s.Col)
		}
		f, err := c.compileExpr(s.Val, env, nil)
		if err != nil {
			return nil, nil, err
		}
		fns[i] = f
		ords[i] = ord
	}
	return fns, ords, nil
}

// applySets computes the updated row; changed is false when every assigned
// value already equals the current one.
func applySets(ctx *Ctx, row record.Row, fns []scalarFn, ords []int) (record.Row, bool, error) {
	newRow := row.Clone()
	changed := false
	for i, f := range fns {
		v, err := f(ctx, row) // evaluated against the OLD row, SQL semantics
		if err != nil {
			return nil, false, err
		}
		if record.Compare(newRow[ords[i]], v) != 0 || newRow[ords[i]].Null != v.Null {
			changed = true
		}
		newRow[ords[i]] = v
	}
	return newRow, changed, nil
}

// mergeBranch is one compiled WHEN MATCHED branch.
type mergeBranch struct {
	cond    scalarFn
	setFns  []scalarFn
	setOrds []int
	del     bool
}

// PrepareMerge compiles a MERGE statement: for every source row, probe the
// target by the ON condition, then apply the first applicable WHEN branch.
// Affected rows = updates + deletes + inserts, matching the SQLCA counter
// the paper's Algorithm 1/2 read for termination.
func (p *Planner) PrepareMerge(st *sql.MergeStmt) (*PreparedDML, error) {
	t, ok := p.cat.Get(st.Target)
	if !ok {
		return nil, fmt.Errorf("exec: unknown target table %q", st.Target)
	}
	qual := st.TargetAlias
	if qual == "" {
		qual = st.Target
	}
	c := &compiler{planner: p}
	srcPlan, srcLay, err := p.planFromRef(st.Source, c)
	if err != nil {
		return nil, err
	}
	srcEnv := &Env{Lay: srcLay}
	targetLay := NewLayout(qual, schemaNames(t))
	targetEnv := &Env{Lay: targetLay, Parent: srcEnv}

	probe, residual, err := p.analyzeTargetAccess(t, qual, targetLay, targetEnv, splitConjuncts(st.On), c)
	if err != nil {
		return nil, err
	}

	branches := make([]mergeBranch, len(st.Matched))
	for i, m := range st.Matched {
		var mb mergeBranch
		if m.And != nil {
			f, err := c.compileExpr(m.And, targetEnv, nil)
			if err != nil {
				return nil, err
			}
			mb.cond = f
		}
		if m.Delete {
			mb.del = true
		} else {
			fns, ords, err := p.compileSets(t, m.Sets, targetEnv, c)
			if err != nil {
				return nil, err
			}
			mb.setFns, mb.setOrds = fns, ords
		}
		branches[i] = mb
	}

	var insCond scalarFn
	var insFns []scalarFn
	var insOrds []int
	if st.NotMatched != nil {
		ordinals, err := insertOrdinals(t, st.NotMatched.Cols)
		if err != nil {
			return nil, err
		}
		if len(st.NotMatched.Vals) != len(ordinals) {
			return nil, fmt.Errorf("exec: MERGE INSERT expects %d values, got %d", len(ordinals), len(st.NotMatched.Vals))
		}
		insOrds = ordinals
		for _, e := range st.NotMatched.Vals {
			f, err := c.compileExpr(e, srcEnv, nil)
			if err != nil {
				return nil, err
			}
			insFns = append(insFns, f)
		}
		if st.NotMatched.And != nil {
			f, err := c.compileExpr(st.NotMatched.And, srcEnv, nil)
			if err != nil {
				return nil, err
			}
			insCond = f
		}
	}
	hasInsert := st.NotMatched != nil

	return &PreparedDML{run: func(ctx *Ctx) (Result, error) {
		srcRows, err := runPlan(srcPlan.Clone(), ctx)
		if err != nil {
			return Result{}, err
		}
		touched := make(map[string]bool)
		var n int64
		for _, srcRow := range srcRows {
			ctx.Push(srcRow)
			matches, err := findTargets(ctx, t, probe, residual)
			if err != nil {
				ctx.Pop()
				return Result{}, err
			}
			if len(matches) == 0 {
				if hasInsert {
					ok := true
					if insCond != nil {
						v, err := insCond(ctx, srcRow)
						if err != nil {
							ctx.Pop()
							return Result{}, err
						}
						ok = v.Truthy()
					}
					if ok {
						vals := make(record.Row, len(insFns))
						for i, f := range insFns {
							v, err := f(ctx, srcRow)
							if err != nil {
								ctx.Pop()
								return Result{}, err
							}
							vals[i] = v
						}
						row := buildInsertRow(t, insOrds, vals)
						if _, err := t.Insert(row); err != nil {
							ctx.Pop()
							return Result{}, err
						}
						n++
					}
				}
				ctx.Pop()
				continue
			}
			for _, m := range matches {
				lk := locKey(m.loc)
				if touched[lk] {
					continue
				}
				for _, br := range branches {
					if br.cond != nil {
						v, err := br.cond(ctx, m.row)
						if err != nil {
							ctx.Pop()
							return Result{}, err
						}
						if !v.Truthy() {
							continue
						}
					}
					touched[lk] = true
					if br.del {
						if err := t.Delete(m.loc, m.row); err != nil {
							ctx.Pop()
							return Result{}, err
						}
						n++
						break
					}
					newRow, changed, err := applySets(ctx, m.row, br.setFns, br.setOrds)
					if err != nil {
						ctx.Pop()
						return Result{}, err
					}
					if changed {
						if _, err := t.Update(m.loc, m.row, newRow); err != nil {
							ctx.Pop()
							return Result{}, err
						}
					}
					n++
					break
				}
			}
			ctx.Pop()
		}
		return Result{RowsAffected: n}, nil
	}}, nil
}

// ExecMerge compiles and runs a MERGE statement.
func (p *Planner) ExecMerge(st *sql.MergeStmt, ctx *Ctx) (Result, error) {
	pd, err := p.PrepareMerge(st)
	if err != nil {
		return Result{}, err
	}
	return pd.Run(ctx)
}
