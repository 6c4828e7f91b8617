// Package core is the heart of the reproduction: Pivoted Query Synthesis
// (Figure 1 of the paper). A Tester repeatedly (1) generates a random
// database, (2) selects a pivot row from every table, (3) generates random
// expressions, (4) rectifies them to TRUE with the oracle interpreter,
// (5) synthesizes a query using them as WHERE/JOIN conditions, (6) runs it
// on the engine, and (7) checks that the pivot row is contained in the
// result set.
package core

import (
	"fmt"
	"strings"

	"repro/internal/dialect"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/interp"
	"repro/internal/oracle"
	"repro/internal/schema"
	"repro/internal/sqlast"
	"repro/internal/sqlval"
	"repro/internal/strategy"
	"repro/internal/sut"
	// The blank import registers sut.DefaultBackend so RunDatabase works
	// out of the box from any consumer. This deliberately links the
	// in-process engine into the tester stack: it is this repo's only
	// in-tree DBMS. A build targeting solely external backends would
	// move this registration to its main package.
	_ "repro/internal/sut/memengine"
	"repro/internal/xerr"
)

// Config parameterizes a Tester.
type Config struct {
	Dialect dialect.Dialect
	Seed    int64
	Faults  *faults.Set

	// Backend names the sut driver databases are opened on ("" selects
	// sut.DefaultBackend, the in-process engine).
	Backend string
	// Storage selects the backend's storage mode: "" or "memory" for the
	// in-memory heap, "pager" for the durable page-file + WAL backend
	// (required by the "recovery" oracle; see sut.Session.Storage).
	Storage string
	// Oracle selects the testing oracle for the query phase of each
	// database lifecycle: "" or "pqs" runs the native pivot loop (Figure
	// 1); any other name resolves through the internal/oracle registry
	// ("tlp", "norec"). The database-generation phase and its error/crash
	// oracle are shared by every choice.
	Oracle string
	// WireFidelity switches the campaign hot loop from the ExecAST fast
	// path back to the full render→reparse string round trip, for parser
	// coverage (measurably slower; TestFastPathThroughputRegression in
	// internal/sut guards the gap).
	WireFidelity bool
	// Disable turns execution strategies off for every database (the
	// `-disable` escape hatch for A/B runs and bisection; see DESIGN.md
	// "Execution strategies").
	Disable strategy.Set

	// MaxExprDepth bounds generated expression trees (Algorithm 1's
	// maxdepth). Default 3.
	MaxExprDepth int
	// MinRows/MaxRows bound per-table row counts (paper: 10–30; defaults
	// are lower for campaign throughput — the ablation bench sweeps this).
	MinRows, MaxRows int
	// MaxTables bounds tables per database. Default 3.
	MaxTables int
	// QueriesPerDB is how many pivot iterations run against one database
	// before regenerating (the "continue with 1 or 2" choice in Figure 1).
	QueriesPerDB int
	// DisableRectification switches Algorithm 3 off and uses rejection
	// sampling instead (ablation 2 in DESIGN.md).
	DisableRectification bool
	// UseEngineAsOracle evaluates pivot expressions with the engine's own
	// evaluator instead of the independent interpreter (ablation 1).
	UseEngineAsOracle bool
	// ContainmentViaQuery folds the containment check into the query with
	// INTERSECT, the way §3.2 combines steps 6 and 7, instead of the
	// client-side row search.
	ContainmentViaQuery bool
	// NegativeChecks additionally generates FALSE-rectified conditions
	// and verifies the pivot row is NOT contained — the paper's §7
	// future-work extension. It catches bugs that erroneously add rows.
	NegativeChecks bool
	// Sessions fixes the serializability oracle's concurrent-session count
	// per interleaved history (the `-sessions` flag; 0 = seed-derived 2 or
	// 3). Ignored by the other oracles.
	Sessions int
}

func (c Config) withDefaults() Config {
	if c.MaxExprDepth <= 0 {
		c.MaxExprDepth = 3
	}
	if c.MaxRows <= 0 {
		c.MaxRows = 8
	}
	if c.MinRows <= 0 {
		c.MinRows = 1
	}
	if c.MaxTables <= 0 {
		c.MaxTables = 3
	}
	if c.QueriesPerDB <= 0 {
		c.QueriesPerDB = 30
	}
	return c
}

// Bug is one oracle detection. The canonical type is oracle.Report (so
// metamorphic oracles construct detections without importing the PQS
// loop); the alias keeps the historical core.Bug name for the runner,
// reducer, fuzzer, and CLIs.
type Bug = oracle.Report

// Stats counts tester work (the throughput experiment).
type Stats struct {
	Statements int
	Queries    int
	Databases  int
	Rectified  map[sqlval.TriBool]int
	Artifacts  int
	Discarded  int // expressions the oracle could not evaluate
}

func newStats() *Stats { return &Stats{Rectified: map[sqlval.TriBool]int{}} }

// Add merges other into s.
func (s *Stats) Add(o *Stats) {
	s.Statements += o.Statements
	s.Queries += o.Queries
	s.Databases += o.Databases
	s.Artifacts += o.Artifacts
	s.Discarded += o.Discarded
	for k, v := range o.Rectified {
		s.Rectified[k] += v
	}
}

// Tester runs PQS against fresh engine instances.
type Tester struct {
	cfg   Config
	rnd   *gen.Rand
	stats *Stats

	// meta is the resolved registry oracle when cfg.Oracle names a
	// metamorphic oracle; nil for the native PQS loop. metaErr records a
	// resolution failure and surfaces on the first RunDatabase.
	meta    oracle.Oracle
	metaErr error

	// colsBuf/hintsBuf are bindPivot scratch reused across the pivot
	// iterations of a lifecycle (a Tester is single-threaded; nothing
	// retains these past one iteration).
	colsBuf  []gen.ColumnPick
	hintsBuf []sqlval.Value
}

// NewTester creates a tester.
func NewTester(cfg Config) *Tester {
	cfg = cfg.withDefaults()
	t := &Tester{
		cfg:   cfg,
		rnd:   gen.NewRand(cfg.Dialect, cfg.Seed),
		stats: newStats(),
	}
	if name := cfg.Oracle; name != "" && name != "pqs" {
		t.meta, t.metaErr = newMetaOracle(name, cfg)
	}
	return t
}

// newMetaOracle resolves a metamorphic oracle from the registry.
func newMetaOracle(name string, cfg Config) (oracle.Oracle, error) {
	return oracle.New(name, oracle.Options{MaxExprDepth: cfg.MaxExprDepth, Sessions: cfg.Sessions})
}

// oracleName reports the testing oracle this tester runs.
func (t *Tester) oracleName() string {
	if t.cfg.Oracle == "" {
		return "pqs"
	}
	return t.cfg.Oracle
}

// Stats exposes accumulated counters.
func (t *Tester) Stats() *Stats { return t.stats }

// bugSignal aborts statement generation when an oracle fires.
type bugSignal struct{ bug *Bug }

// Error implements the error interface.
func (b *bugSignal) Error() string { return "oracle detection: " + b.bug.Message }

// Session maps tester configuration onto per-connection SUT options (the
// scheduler builds per-campaign session pools from it).
func (c Config) Session() sut.Session {
	return sut.Session{
		Dialect:      c.Dialect,
		Faults:       c.Faults,
		WireFidelity: c.WireFidelity,
		Disable:      c.Disable,
		Storage:      c.Storage,
	}
}

// trace accumulates the statement sequence of one database lifecycle as
// ASTs and renders SQL only when a detection needs a reproduction trace —
// rendering every statement in the hot loop costs about as much as
// executing it (the engine never mutates statements it executes, so the
// ASTs stay faithful).
type trace struct {
	d     dialect.Dialect
	stmts []sqlast.Stmt
}

func (tr *trace) add(st sqlast.Stmt) { tr.stmts = append(tr.stmts, st) }

func (tr *trace) pop() { tr.stmts = tr.stmts[:len(tr.stmts)-1] }

// render materializes the trace as SQL text.
func (tr *trace) render() []string { return RenderStmts(tr.stmts, tr.d) }

// RenderStmts renders a statement sequence to SQL text — the one place
// reproduction traces are materialized (core and fuzz both defer
// rendering until a detection fires).
func RenderStmts(stmts []sqlast.Stmt, d dialect.Dialect) []string {
	out := make([]string, len(stmts))
	for i, st := range stmts {
		out[i] = sqlast.SQL(st, d)
	}
	return out
}

// RunDatabase executes one full database lifecycle (steps 1–7, looped) and
// returns the first detection, or nil.
func (t *Tester) RunDatabase() (*Bug, error) {
	db, err := sut.Open(t.cfg.Backend, t.cfg.Session())
	if err != nil {
		return nil, err
	}
	defer db.Close()
	return t.runOn(db)
}

// runOn runs one lifecycle against a specific database under test.
func (t *Tester) runOn(db sut.DB) (*Bug, error) {
	if t.metaErr != nil {
		return nil, t.metaErr
	}
	t.stats.Databases++
	tr := &trace{d: t.cfg.Dialect}

	apply := func(st sqlast.Stmt) error {
		tr.add(st)
		t.stats.Statements++
		_, err := db.ExecAST(st)
		switch v := oracle.Classify(st, err, t.cfg.Dialect); v {
		case oracle.VerdictBug, oracle.VerdictCrash:
			code, _ := xerr.CodeOf(err)
			return &bugSignal{bug: &Bug{
				Oracle:     oracle.OracleFor(v),
				DetectedBy: t.oracleName(),
				Message:    err.Error(),
				Code:       code,
				Trace:      tr.render(),
			}}
		case oracle.VerdictArtifact:
			t.stats.Artifacts++
		}
		return nil
	}

	sg := &gen.StateGen{
		Rnd:       t.rnd,
		E:         db.Introspect(),
		MinRows:   t.cfg.MinRows,
		MaxRows:   t.cfg.MaxRows,
		MaxTables: t.cfg.MaxTables,
	}
	if err := sg.BuildDatabase(apply); err != nil {
		if sig, ok := err.(*bugSignal); ok {
			return sig.bug, nil
		}
		return nil, err
	}

	// Metamorphic oracles take over the query phase: the database and the
	// build-time error oracle above are shared, only the check differs.
	if t.meta != nil {
		env := &oracle.Env{
			Dialect:      t.cfg.Dialect,
			Rnd:          t.rnd,
			Hints:        sg.Hints,
			MaxExprDepth: t.cfg.MaxExprDepth,
			Setup:        tr.render,
			RecordStmt: func() {
				t.stats.Statements++
				t.stats.Queries++
			},
		}
		for q := 0; q < t.cfg.QueriesPerDB; q++ {
			rep, err := t.meta.Check(db, env)
			if err != nil {
				return nil, err
			}
			if rep != nil {
				return rep, nil
			}
		}
		return nil, nil
	}

	// Snapshot the pivot sources once per lifecycle: the pivot loop below
	// executes only SELECTs, so schema and stored rows are constant and
	// re-introspecting (copying every row) on each of the QueriesPerDB
	// iterations would be pure overhead.
	snap := snapshotPivotSources(db.Introspect())

	for q := 0; q < t.cfg.QueriesPerDB; q++ {
		bug, err := t.pivotIteration(db, snap, sg, tr)
		if err != nil {
			return nil, err
		}
		if bug != nil {
			return bug, nil
		}
	}
	return nil, nil
}

// CheckPivot runs one PQS pivot iteration (steps 2–7 of Figure 1) against
// an already-built database, without generating state first — the
// one-shot form behind the registered "pqs" oracle and dbshell's .oracle
// meta command.
func (t *Tester) CheckPivot(db sut.DB) (*Bug, error) {
	snap := snapshotPivotSources(db.Introspect())
	if len(snap) == 0 {
		return nil, nil
	}
	sg := &gen.StateGen{Rnd: t.rnd, E: db.Introspect()}
	tr := &trace{d: t.cfg.Dialect}
	return t.pivotIteration(db, snap, sg, tr)
}

// pivotSource is one table's cached introspection for a database
// lifecycle: name, schema, and ground-truth rows.
type pivotSource struct {
	table string
	info  schema.TableInfo
	rows  [][]sqlval.Value
}

// snapshotPivotSources captures every non-empty table's pivot material.
func snapshotPivotSources(intro sut.Introspection) []pivotSource {
	var out []pivotSource
	for _, tn := range intro.Tables() {
		rows := intro.RawRows(tn)
		if len(rows) == 0 {
			continue
		}
		info, err := intro.Describe(tn)
		if err != nil {
			continue
		}
		out = append(out, pivotSource{table: tn, info: info, rows: rows})
	}
	return out
}

// pivotRow is one table's pivot selection. rows and rowIdx keep the full
// scan-order snapshot and the pivot's position in it, so buildQuery can
// compute the pivot's exact ORDER BY rank for position-tight LIMITs.
type pivotRow struct {
	table  string
	info   schema.TableInfo
	vals   []sqlval.Value
	rows   [][]sqlval.Value
	rowIdx int
}

// pivotIteration runs steps 2–7 once.
func (t *Tester) pivotIteration(db sut.DB, snap []pivotSource, sg *gen.StateGen, tr *trace) (*Bug, error) {
	intro := db.Introspect()
	// Step 2: select a pivot row from each table.
	pivots := make([]pivotRow, 0, len(snap))
	for _, src := range snap {
		ri := t.rnd.Intn(len(src.rows))
		pivots = append(pivots, pivotRow{
			table:  src.table,
			info:   src.info,
			vals:   src.rows[ri],
			rows:   src.rows,
			rowIdx: ri,
		})
	}
	if len(pivots) == 0 {
		return nil, nil
	}
	// Use a random non-empty subset of tables (1..all), keeping join
	// fan-out bounded (§3.4: row-count pressure).
	for len(pivots) > 1 && t.rnd.Bool(0.4) {
		pivots = pivots[:len(pivots)-1]
	}

	ctx, cols, hints := t.bindPivot(intro, pivots, sg)

	// §7 extension: occasionally check the dual property — a FALSE
	// condition must NOT fetch the pivot row.
	if t.cfg.NegativeChecks && t.rnd.Bool(0.3) {
		return t.negativeIteration(db, pivots, ctx, cols, hints, tr)
	}

	// Steps 3–4: generate and rectify conditions.
	where, ok := t.rectifiedCondition(ctx, cols, hints)
	if !ok {
		return nil, nil
	}

	// Step 5: synthesize the query.
	sel, expected, err := t.buildQuery(ctx, pivots, cols, hints, where)
	if err != nil || sel == nil {
		return nil, err
	}

	// Step 6+7 combined (§3.2): either run the query and search the
	// result client-side, or wrap it in the paper's INTERSECT form where
	// a non-empty result proves containment.
	var query sqlast.Stmt = sel
	if t.cfg.ContainmentViaQuery {
		query = intersectForm(sel, expected)
	}
	tr.add(query)
	t.stats.Statements++
	t.stats.Queries++

	res, execErr := db.ExecAST(query)
	if execErr != nil {
		switch v := oracle.Classify(query, execErr, t.cfg.Dialect); v {
		case oracle.VerdictBug, oracle.VerdictCrash:
			code, _ := xerr.CodeOf(execErr)
			return &Bug{
				Oracle:     oracle.OracleFor(v),
				DetectedBy: "pqs",
				Message:    execErr.Error(),
				Code:       code,
				Trace:      tr.render(),
			}, nil
		default:
			// Expected runtime error (strict typing): drop this query
			// from the trace and move on.
			tr.pop()
			t.stats.Discarded++
			return nil, nil
		}
	}

	contained := oracle.Containment(res.Rows, expected)
	if t.cfg.ContainmentViaQuery {
		contained = len(res.Rows) > 0
	}
	if !contained {
		pt := map[string][]sqlval.Value{}
		for _, p := range pivots {
			pt[p.table] = p.vals
		}
		return &Bug{
			Oracle:      faults.OracleContainment,
			DetectedBy:  "pqs",
			Message:     fmt.Sprintf("pivot row %s not contained in result set (%d rows)", tupleString(expected), len(res.Rows)),
			Trace:       tr.render(),
			Expected:    expected,
			PivotTables: pt,
		}, nil
	}
	// Keep the trace bounded: successful pivot queries don't help
	// reproduce later bugs.
	tr.pop()
	return nil, nil
}

// intersectForm wraps a pivot query in the paper's containment idiom:
// SELECT <pivot literals> INTERSECT <query> returns a row iff the pivot
// tuple is contained.
func intersectForm(sel *sqlast.Select, expected []sqlval.Value) *sqlast.Compound {
	lits := &sqlast.Select{}
	for _, v := range expected {
		lits.Cols = append(lits.Cols, sqlast.ResultCol{X: sqlast.Lit(v)})
	}
	return &sqlast.Compound{
		Selects: []*sqlast.Select{lits, sel},
		Ops:     []sqlast.CompoundOp{sqlast.OpIntersect},
	}
}

// negativeIteration generates a FALSE-rectified condition and verifies the
// pivot row is absent from the result (§7: "we could also generate
// conditions and check that the pivot row is not contained").
func (t *Tester) negativeIteration(db sut.DB, pivots []pivotRow, ctx *interp.Context, cols []gen.ColumnPick, hints []sqlval.Value, tr *trace) (*Bug, error) {
	where, ok := t.falsifiedCondition(ctx, cols, hints)
	if !ok {
		return nil, nil
	}
	// Result columns are the full pivot tuple (no value expressions):
	// with the condition referencing only these tables' columns, any
	// combo whose tuple equals the pivot tuple evaluates the condition
	// identically, so presence of the tuple is exactly the violation.
	sel := &sqlast.Select{Where: where}
	var expected []sqlval.Value
	for _, p := range pivots {
		for ci, col := range p.info.Columns {
			sel.Cols = append(sel.Cols, sqlast.ResultCol{X: sqlast.Col(p.table, col.Name)})
			var v sqlval.Value
			if ci < len(p.vals) {
				v = p.vals[ci]
			}
			expected = append(expected, v)
		}
	}
	sel.From = []sqlast.TableRef{{Name: pivots[0].table}}
	for _, p := range pivots[1:] {
		sel.From = append(sel.From, sqlast.TableRef{Name: p.table})
	}

	tr.add(sel)
	t.stats.Statements++
	t.stats.Queries++
	res, execErr := db.ExecAST(sel)
	if execErr != nil {
		switch v := oracle.Classify(sel, execErr, t.cfg.Dialect); v {
		case oracle.VerdictBug, oracle.VerdictCrash:
			code, _ := xerr.CodeOf(execErr)
			return &Bug{
				Oracle:     oracle.OracleFor(v),
				DetectedBy: "pqs",
				Message:    execErr.Error(),
				Code:       code,
				Trace:      tr.render(),
			}, nil
		default:
			tr.pop()
			t.stats.Discarded++
			return nil, nil
		}
	}
	if oracle.Containment(res.Rows, expected) {
		pt := map[string][]sqlval.Value{}
		for _, p := range pivots {
			pt[p.table] = p.vals
		}
		return &Bug{
			Oracle:      faults.OracleContainment,
			DetectedBy:  "pqs",
			Message:     fmt.Sprintf("pivot row %s contained despite FALSE condition (%d rows)", tupleString(expected), len(res.Rows)),
			Trace:       tr.render(),
			Expected:    expected,
			PivotTables: pt,
			Negative:    true,
		}, nil
	}
	tr.pop()
	return nil, nil
}

// falsifiedCondition is the dual of rectifiedCondition: the generated
// expression is modified to evaluate FALSE on the pivot row.
func (t *Tester) falsifiedCondition(ctx *interp.Context, cols []gen.ColumnPick, hints []sqlval.Value) (sqlast.Expr, bool) {
	eg := &gen.ExprGen{Rnd: t.rnd, Cols: cols, Hints: hints, ColValues: pivotColValues(cols, hints), MaxDepth: t.cfg.MaxExprDepth}
	evalBool := t.condOracle(ctx)
	for tries := 0; tries < 20; tries++ {
		expr := eg.Generate()
		tb, err := evalBool(expr)
		if err != nil {
			t.stats.Discarded++
			continue
		}
		falsified := RectifyFalse(expr, tb)
		if check, err := evalBool(falsified); err != nil || check != sqlval.TriFalse {
			t.stats.Discarded++
			continue
		}
		return falsified, true
	}
	return nil, false
}

// RectifyFalse modifies an expression to yield FALSE: TRUE gets NOT, FALSE
// stays, NULL gets IS NOT NULL (which is FALSE for a NULL-valued
// expression).
func RectifyFalse(expr sqlast.Expr, tb sqlval.TriBool) sqlast.Expr {
	switch tb {
	case sqlval.TriTrue:
		return sqlast.Not(expr)
	case sqlval.TriFalse:
		return expr
	default:
		return &sqlast.Unary{Op: sqlast.OpNotNull, X: expr}
	}
}

// pivotColValues slices the pivot-aligned prefix of the hint pool:
// bindPivot appends one hint per bound column, in column order, before the
// general value pool.
func pivotColValues(cols []gen.ColumnPick, hints []sqlval.Value) []sqlval.Value {
	if len(hints) < len(cols) {
		return nil
	}
	return hints[:len(cols)]
}

func tupleString(vals []sqlval.Value) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// bindPivot builds the oracle interpreter context and the generator's
// column/hint pools.
func (t *Tester) bindPivot(intro sut.Introspection, pivots []pivotRow, sg *gen.StateGen) (*interp.Context, []gen.ColumnPick, []sqlval.Value) {
	ctx := interp.NewContext(t.cfg.Dialect)
	ctx.CaseSensitiveLike = intro.CaseSensitiveLike()
	cols := t.colsBuf[:0]
	hints := t.hintsBuf[:0]
	for _, p := range pivots {
		for ci, col := range p.info.Columns {
			coll, _ := sqlval.ParseCollation(col.Collate)
			var v sqlval.Value
			if ci < len(p.vals) {
				v = p.vals[ci]
			}
			ctx.Bind(p.table, col.Name, interp.ColInfo{
				Val:      v,
				Coll:     coll,
				Affinity: sqlval.AffinityOf(col.TypeName),
				Unsigned: col.Unsigned,
			})
			cols = append(cols, gen.ColumnPick{Table: p.table, Column: col})
			hints = append(hints, v)
		}
	}
	if len(sg.Hints) > 0 {
		hints = append(hints, sg.Hints...)
	}
	t.colsBuf, t.hintsBuf = cols, hints
	return ctx, cols, hints
}

// condOracle returns the predicate evaluator the condition loops use on
// the pivot row. The default oracle is the independent tree-walk
// interpreter (Algorithm 2 shares no evaluation machinery with the engine,
// which is what keeps evaluator bugs observable); the UseEngineAsOracle
// ablation tree-walks the engine's own evaluator instead.
func (t *Tester) condOracle(ctx *interp.Context) func(sqlast.Expr) (sqlval.TriBool, error) {
	if !t.cfg.UseEngineAsOracle {
		return func(e sqlast.Expr) (sqlval.TriBool, error) {
			return interp.EvalBool(e, ctx)
		}
	}
	ev := engineEvaluatorFor(t.cfg, ctx)
	env := &ctxEnv{ctx: ctx}
	return func(e sqlast.Expr) (sqlval.TriBool, error) {
		return ev.EvalBool(e, env)
	}
}

// rectifiedCondition implements steps 3–4: generate a random expression,
// evaluate it on the pivot row, and modify it to yield TRUE (Algorithm 3).
func (t *Tester) rectifiedCondition(ctx *interp.Context, cols []gen.ColumnPick, hints []sqlval.Value) (sqlast.Expr, bool) {
	eg := &gen.ExprGen{Rnd: t.rnd, Cols: cols, Hints: hints, ColValues: pivotColValues(cols, hints), MaxDepth: t.cfg.MaxExprDepth}
	evalBool := t.condOracle(ctx)
	for tries := 0; tries < 20; tries++ {
		expr := eg.Generate()
		tb, err := evalBool(expr)
		if err != nil {
			t.stats.Discarded++
			continue
		}
		if t.cfg.DisableRectification {
			// Ablation: rejection sampling — only keep TRUE expressions.
			if tb == sqlval.TriTrue {
				t.stats.Rectified[tb]++
				return expr, true
			}
			t.stats.Discarded++
			continue
		}
		t.stats.Rectified[tb]++
		rectified := Rectify(expr, tb)
		// Sanity: the rectified condition must evaluate TRUE.
		if check, err := evalBool(rectified); err != nil || check != sqlval.TriTrue {
			t.stats.Discarded++
			continue
		}
		return rectified, true
	}
	return nil, false
}

// evalValue computes a result-column expression's expected value through
// the configured oracle (see condOracle).
func (t *Tester) evalValue(expr sqlast.Expr, ctx *interp.Context) (sqlval.Value, error) {
	if !t.cfg.UseEngineAsOracle {
		return interp.Eval(expr, ctx)
	}
	ev := engineEvaluatorFor(t.cfg, ctx)
	return ev.Eval(expr, &ctxEnv{ctx: ctx})
}

// Rectify is Algorithm 3 verbatim: TRUE stays, FALSE gets NOT, NULL gets
// IS NULL.
func Rectify(expr sqlast.Expr, tb sqlval.TriBool) sqlast.Expr {
	switch tb {
	case sqlval.TriTrue:
		return expr
	case sqlval.TriFalse:
		return sqlast.Not(expr)
	default:
		return sqlast.IsNullExpr(expr)
	}
}

// buildQuery implements step 5: a SELECT over the pivot tables whose WHERE
// (and JOIN) conditions are rectified-TRUE expressions, with random
// keywords (DISTINCT, ORDER BY, LIMIT, GROUP BY).
func (t *Tester) buildQuery(ctx *interp.Context, pivots []pivotRow, cols []gen.ColumnPick, hints []sqlval.Value, where sqlast.Expr) (*sqlast.Select, []sqlval.Value, error) {
	sel := &sqlast.Select{Where: where}
	nCols := 0
	for _, p := range pivots {
		nCols += len(p.info.Columns)
	}
	sel.Cols = make([]sqlast.ResultCol, 0, nCols)
	expected := make([]sqlval.Value, 0, nCols)

	// Result columns: every pivot table column, occasionally replaced by
	// a random expression on columns (§3.4 extension).
	eg := &gen.ExprGen{Rnd: t.rnd, Cols: cols, Hints: hints, ColValues: pivotColValues(cols, hints), MaxDepth: t.cfg.MaxExprDepth}
	// plainCols marks the first pivot table's columns emitted as plain
	// references — the only legal sort keys for the position-tight ORDER
	// BY shape below (ORDER BY must match a result column).
	plainCols := make([]bool, len(pivots[0].info.Columns))
	for pi, p := range pivots {
		for ci, col := range p.info.Columns {
			if t.rnd.Bool(0.15) {
				expr := eg.GenerateValueExpr()
				v, err := t.evalValue(expr, ctx)
				if err == nil {
					sel.Cols = append(sel.Cols, sqlast.ResultCol{X: expr})
					expected = append(expected, v)
					continue
				}
				t.stats.Discarded++
			}
			sel.Cols = append(sel.Cols, sqlast.ResultCol{X: sqlast.Col(p.table, col.Name)})
			if pi == 0 {
				plainCols[ci] = true
			}
			var v sqlval.Value
			if ci < len(p.vals) {
				v = p.vals[ci]
			}
			expected = append(expected, v)
		}
	}

	// FROM and JOIN clauses. With multiple tables, sometimes express one
	// as JOIN ... ON <rectified-TRUE condition>, preferring plain
	// column-equality ON conditions that hold on the pivot pair — the
	// shape the planner turns into hash or index-lookup joins.
	sel.From = []sqlast.TableRef{{Name: pivots[0].table}}
	placed := map[string]bool{pivots[0].table: true}
	for _, p := range pivots[1:] {
		if t.rnd.Bool(0.3) {
			var on sqlast.Expr
			ok := false
			if t.rnd.Bool(0.6) {
				on, ok = t.equiJoinOn(ctx, cols, hints, placed, p.table)
			}
			if !ok {
				on, ok = t.rectifiedCondition(ctx, cols, hints)
			}
			if !ok {
				on = sqlast.Lit(trueLiteral(t.cfg.Dialect))
			}
			kind := sqlast.JoinInner
			// LEFT JOIN is containment-safe: the pivot pair satisfies
			// the rectified ON condition, so it is always matched.
			if t.rnd.Bool(0.35) {
				kind = sqlast.JoinLeft
			}
			sel.Joins = append(sel.Joins, sqlast.JoinClause{
				Kind:  kind,
				Table: sqlast.TableRef{Name: p.table},
				On:    on,
			})
			placed[p.table] = true
			continue
		}
		sel.From = append(sel.From, sqlast.TableRef{Name: p.table})
		placed[p.table] = true
	}

	// Random query keywords (step 5: "we randomly select appropriate
	// keywords when generating these queries"). The position-tight ORDER
	// BY shape excludes every other keyword: its LIMIT math assumes the
	// result set is exactly the WHERE-surviving scan-order snapshot (no
	// DISTINCT/GROUP BY collapsing).
	// (Not on Postgres: a FROM scan there also returns inherited child
	// rows, which the raw-heap snapshot the position math runs on never
	// sees; Postgres keeps the always-containing LIMIT shape below.)
	if t.cfg.Dialect != dialect.Postgres &&
		len(pivots) == 1 && len(sel.Joins) == 0 && t.rnd.Bool(0.2) &&
		t.exactPositionOrder(sel, pivots[0], plainCols, ctx) {
		return sel, expected, nil
	}
	switch {
	case (t.cfg.Dialect == dialect.Postgres || t.cfg.Dialect == dialect.SQLite) && t.rnd.Bool(0.25):
		// GROUP BY over every result column is containment-preserving —
		// each output tuple is (a representative of) its own group, and
		// keysEqual-equal tuples are Value.Equal-equal, so the pivot tuple
		// always survives. On Postgres this is the Listing 15 trigger; on
		// SQLite it routes through the hash-aggregation executor and its
		// collation-folding fault site.
		for _, rc := range sel.Cols {
			sel.GroupBy = append(sel.GroupBy, rc.X)
		}
	case t.rnd.Bool(0.3):
		sel.Distinct = true
	}
	if t.rnd.Bool(0.25) {
		rc := sel.Cols[t.rnd.Intn(len(sel.Cols))]
		sel.OrderBy = []sqlast.OrderItem{{X: rc.X, Desc: t.rnd.Bool(0.5)}}
		if t.rnd.Bool(0.5) {
			// A LIMIT at least as large as any possible result set never
			// excludes the pivot row.
			sel.Limit = sqlast.Lit(sqlval.Int(1_000_000))
		}
	}
	return sel, expected, nil
}

// exactPositionOrder rewrites a single-table pivot query into the
// position-tight ORDER BY + LIMIT shape: the sort key is one plain result
// column and LIMIT (with an optional OFFSET) is computed so the window's
// last row sits exactly at the pivot's stable-sort position among the
// WHERE-surviving rows — the tightest LIMIT that still keeps containment.
// The surviving set is established client-side by evaluating the (already
// rectified-TRUE) condition on every snapshot row with the independent
// interpreter, in scan order — the order every engine access path
// reproduces (rowid-sorted fetch) and the stable sort preserves across
// ties. This is the only generated shape whose LIMIT can exclude rows, so
// it is what drives the engine's top-K heap; the
// generic.topk-heap-boundary fault additionally needs a later surviving
// row tying the kept boundary row's key, hence the bias toward sort keys
// with ties after the pivot. Reports false when no plain-column key is
// available or a row evaluation errors (the caller falls through to the
// other keyword shapes).
func (t *Tester) exactPositionOrder(sel *sqlast.Select, p pivotRow, plainCols []bool, ctx *interp.Context) bool {
	// keep collects the scan-order indexes of WHERE-surviving rows;
	// pivotPos is the pivot's rank among them.
	keep := make([]int, 0, len(p.rows))
	pivotPos := -1
	if sel.Where == nil {
		for i := range p.rows {
			keep = append(keep, i)
		}
		pivotPos = p.rowIdx
	} else {
		defer bindRowValues(ctx, p, p.vals) // restore the pivot bindings
		for i, row := range p.rows {
			if i == p.rowIdx {
				// Rectified TRUE on the pivot by construction.
				pivotPos = len(keep)
				keep = append(keep, i)
				continue
			}
			bindRowValues(ctx, p, row)
			tb, err := interp.EvalBool(sel.Where, ctx)
			if err != nil {
				return false
			}
			if tb == sqlval.TriTrue {
				keep = append(keep, i)
			}
		}
	}

	var cands, tieCands []int
	for ci := range p.info.Columns {
		if ci >= len(plainCols) || !plainCols[ci] || ci >= len(p.vals) {
			continue
		}
		cands = append(cands, ci)
		for _, i := range keep[pivotPos+1:] {
			if sqlval.Compare(p.rows[i][ci], p.vals[ci], sqlval.CollBinary) == 0 {
				tieCands = append(tieCands, ci)
				break
			}
		}
	}
	pick := cands
	if len(tieCands) > 0 && t.rnd.Bool(0.8) {
		pick = tieCands
	}
	if len(pick) == 0 {
		return false
	}
	ci := pick[t.rnd.Intn(len(pick))]
	desc := t.rnd.Bool(0.5)
	// pos is the pivot's 1-based position under the engine's stable sort
	// of the surviving rows: strictly smaller keys, plus key ties at or
	// before the pivot's scan index (sqlval.Compare on CollBinary is
	// exactly the engine's ORDER BY comparator).
	pos := 0
	for ki, i := range keep {
		c := sqlval.Compare(p.rows[i][ci], p.vals[ci], sqlval.CollBinary)
		if desc {
			c = -c
		}
		if c < 0 || (c == 0 && ki <= pivotPos) {
			pos++
		}
	}
	sel.OrderBy = []sqlast.OrderItem{{X: sqlast.Col(p.table, p.info.Columns[ci].Name), Desc: desc}}
	off := 0
	if pos > 1 && t.rnd.Bool(0.4) {
		off = t.rnd.Intn(pos)
	}
	sel.Limit = sqlast.Lit(sqlval.Int(int64(pos - off)))
	if off > 0 {
		sel.Offset = sqlast.Lit(sqlval.Int(int64(off)))
	}
	return true
}

// bindRowValues rebinds one table's column values in the interpreter
// context to a different snapshot row (collation/affinity metadata is
// recomputed the way bindPivot does).
func bindRowValues(ctx *interp.Context, p pivotRow, row []sqlval.Value) {
	for ci, col := range p.info.Columns {
		coll, _ := sqlval.ParseCollation(col.Collate)
		var v sqlval.Value
		if ci < len(row) {
			v = row[ci]
		}
		ctx.Bind(p.table, col.Name, interp.ColInfo{
			Val:      v,
			Coll:     coll,
			Affinity: sqlval.AffinityOf(col.TypeName),
			Unsigned: col.Unsigned,
		})
	}
}

// equiJoinOn builds a `placed.a = joining.b` ON condition that evaluates
// TRUE on the pivot pair, so the pivot combo stays matched and containment
// holds. On SQLite it prefers text pairs that are equal only under NOCASE
// or RTRIM and pins that collation explicitly — exactly the keys a
// collation-blind hash-join key builder mishandles. Returns false when no
// pivot-true equality exists between the placed tables and the one being
// joined.
func (t *Tester) equiJoinOn(ctx *interp.Context, cols []gen.ColumnPick, hints []sqlval.Value, placed map[string]bool, joining string) (sqlast.Expr, bool) {
	if len(hints) < len(cols) {
		return nil, false
	}
	evalBool := t.condOracle(ctx)
	type cand struct {
		x       sqlast.Expr
		variant bool // equal only under an explicit non-binary collation
	}
	var cands []cand
	for i, ca := range cols {
		if !placed[ca.Table] {
			continue
		}
		for j, cb := range cols {
			if cb.Table != joining {
				continue
			}
			l := sqlast.Col(ca.Table, ca.Column.Name)
			var r sqlast.Expr = sqlast.Col(cb.Table, cb.Column.Name)
			variant := false
			va, vb := hints[i], hints[j]
			if t.cfg.Dialect == dialect.SQLite &&
				va.Kind() == sqlval.KText && vb.Kind() == sqlval.KText && va.Str() != vb.Str() {
				switch a, b := va.Str(), vb.Str(); {
				case strings.EqualFold(a, b):
					r = &sqlast.Collate{X: r, Coll: sqlval.CollNoCase}
					variant = true
				case strings.TrimRight(a, " ") == strings.TrimRight(b, " "):
					r = &sqlast.Collate{X: r, Coll: sqlval.CollRTrim}
					variant = true
				}
			}
			x := &sqlast.Binary{Op: sqlast.OpEq, L: l, R: r}
			if tb, err := evalBool(x); err != nil || tb != sqlval.TriTrue {
				continue
			}
			cands = append(cands, cand{x: x, variant: variant})
		}
	}
	if len(cands) == 0 {
		return nil, false
	}
	// Collation-variant keys are the interesting ones; take one when found.
	var variants []cand
	for _, c := range cands {
		if c.variant {
			variants = append(variants, c)
		}
	}
	pool := cands
	if len(variants) > 0 {
		pool = variants
	}
	return pool[t.rnd.Intn(len(pool))].x, true
}

func trueLiteral(d dialect.Dialect) sqlval.Value {
	if d == dialect.Postgres {
		return sqlval.Bool(true)
	}
	return sqlval.Int(1)
}
