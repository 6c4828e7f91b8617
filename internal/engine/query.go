package engine

import (
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/dialect"
	"repro/internal/faults"
	"repro/internal/schema"
	"repro/internal/sqlast"
	"repro/internal/sqlval"
	"repro/internal/storage"
	"repro/internal/strategy"
	"repro/internal/xerr"
)

// joinInfo carries the join kind and ON condition for each source after
// the first.
type joinInfo struct {
	kind sqlast.JoinKind
	on   sqlast.Expr
}

func (e *Engine) execSelect(n *sqlast.Select) (*Result, error) {
	e.cov.hit("dql.select")
	s := e.enterStmt()
	defer e.leaveStmt(s)
	// Resolve sources into the frame's relation headers.
	rels, joins := s.sources(len(n.From) + len(n.Joins))
	single := len(n.From) == 1 && len(n.Joins) == 0
	for i, tr := range n.From {
		var err error
		if single {
			// Single-source queries go through the planner: the access
			// path is chosen before materialization, so an index probe
			// fetches only candidate rows instead of the whole heap.
			err = e.buildPlannedRelation(rels[i], n, tr)
		} else {
			err = e.buildRelation(rels[i], tr)
		}
		if err != nil {
			return nil, err
		}
		if i > 0 {
			joins = append(joins, joinInfo{kind: sqlast.JoinCross})
		}
	}
	for i, jc := range n.Joins {
		if err := e.buildRelation(rels[len(n.From)+i], jc.Table); err != nil {
			return nil, err
		}
		joins = append(joins, joinInfo{kind: jc.Kind, on: jc.On})
	}
	if err := e.preQueryFaults(n, rels); err != nil {
		return nil, err
	}

	// Join / cross product with WHERE filtering. The combos come back
	// flat, w rows each (see joinRows).
	combos, err := e.joinRows(s, n, rels, joins)
	if err != nil {
		return nil, err
	}
	w := max(len(rels), 1)

	// Fault site (sqlite.norec-count-mismatch): a star-projection SELECT
	// with a WHERE clause drops its first matching row — the optimized
	// query shape NoREC compares, and one PQS never generates (pivot
	// queries always name their result columns).
	if e.d == dialect.SQLite && e.fs.Has(faults.NorecCountMismatch) &&
		n.Where != nil && len(combos) > 0 {
		for _, rc := range n.Cols {
			if rc.Star {
				combos = combos[w:]
				break
			}
		}
	}

	// GROUP BY / aggregates.
	outCols, outRows, err := e.project(s, n, rels, combos, w)
	if err != nil {
		return nil, err
	}

	if n.Distinct {
		outRows = e.distinct(outRows)
	}
	if len(n.OrderBy) > 0 {
		// Top-K: ORDER BY + small constant LIMIT keeps the k best rows in a
		// bounded heap instead of sorting everything (agg.go). Ineligible
		// shapes fall through to the full stable sort.
		handled := false
		if !e.off.Has(strategy.HashAgg) && n.Limit != nil {
			handled, outRows, err = e.orderByTopK(n, rels, outRows)
			if err != nil {
				return nil, err
			}
		}
		if !handled {
			if err := e.orderBy(n, rels, outRows); err != nil {
				return nil, err
			}
		}
	}
	outRows, err = e.applyLimit(n, outRows)
	if err != nil {
		return nil, err
	}
	return &Result{Columns: outCols, Rows: outRows}, nil
}

// buildRelation materializes one FROM source into r.
func (e *Engine) buildRelation(r *relation, tr sqlast.TableRef) error {
	t, ok := e.cat.Table(tr.Name)
	if !ok {
		return xerr.New(xerr.CodeNoObject, "no such table: %s", tr.Name)
	}
	name := tr.Name
	if tr.Alias != "" {
		name = tr.Alias
	}
	if t.IsView {
		res, err := e.execSelect(t.ViewDef)
		if err != nil {
			return err
		}
		*r = relation{name: name, columns: t.Columns, rows: make([]*storage.Row, len(res.Rows))}
		arena := make([]storage.Row, len(res.Rows))
		for i, row := range res.Rows {
			arena[i].Vals = row
			r.rows[i] = &arena[i]
		}
		e.cov.hit("dql.view-scan")
		return nil
	}
	*r = relation{name: name, table: t.Name, columns: t.Columns, engine: t.Engine}
	td := e.data[lower(t.Name)]
	st := e.tableState(t.Name)

	// Fault site (sqlite.rowid-alias-crash): scanning a table after
	// RENAME COLUMN dereferences a stale column slot.
	if e.d == dialect.SQLite && e.fs.Has(faults.RowidAliasCrash) && st.renamedColumn {
		panic(crashPanic{site: "rowid_alias_resolve"})
	}

	// The scan borrows the heap's rows. The capacity is clipped, so no
	// append can reach the heap's spare capacity.
	heap := td.Rows()
	r.rows = heap[:len(heap):len(heap)]
	// Fault site (generic.insert-visibility): the most recent insert is
	// invisible to scans.
	if e.d == dialect.MySQL && e.fs.Has(faults.InsertVisibility) {
		r.rows = make([]*storage.Row, 0, len(heap))
		for _, row := range heap {
			if row.Rowid != st.lastInsert {
				r.rows = append(r.rows, row)
			}
		}
	}

	// Postgres inheritance: parent scans include children (Listing 15),
	// projected onto the parent's columns, so these rows are copies (the
	// first append copies the borrowed slice too).
	if e.d == dialect.Postgres && !tr.Only && len(t.Children) > 0 {
		for _, leaf := range e.cat.InheritanceLeaves(t)[1:] {
			childTD := e.data[lower(leaf.Name)]
			for _, row := range childTD.Rows() {
				proj := make([]sqlval.Value, len(t.Columns))
				for ci := range t.Columns {
					cci := leaf.ColumnIndex(t.Columns[ci].Name)
					if cci >= 0 && cci < len(row.Vals) {
						proj[ci] = row.Vals[cci]
					} else {
						proj[ci] = sqlval.Null()
					}
				}
				r.rows = append(r.rows, &storage.Row{Rowid: -row.Rowid, Vals: proj})
			}
		}
		e.cov.hit("dql.inheritance-scan")
	}
	return nil
}

// preQueryFaults raises the error-oracle faults that trigger on SELECT.
func (e *Engine) preQueryFaults(n *sqlast.Select, rels []*relation) error {
	for _, r := range rels {
		if r.table == "" {
			continue
		}
		st := e.tableState(r.table)
		// Fault site (postgres.stats-bitmapset, Listing 16).
		if e.d == dialect.Postgres && e.fs.Has(faults.StatsBitmapset) && st.hasStats && st.analyzed {
			for _, ix := range e.cat.IndexesOn(r.table) {
				for _, p := range ix.Parts {
					if _, bare := p.X.(*sqlast.ColumnRef); !bare {
						return xerr.New(xerr.CodeInternal, "negative bitmapset member not allowed")
					}
				}
			}
		}
		// Fault site (postgres.index-null-value, Listing 17): a column
		// indexed before the last UPDATE holds NULLs the index missed.
		if e.d == dialect.Postgres && e.fs.Has(faults.IndexNullValue) && n.Where != nil {
			for _, ix := range e.cat.IndexesOn(r.table) {
				if st.updateSeq <= ix.BuildSeq {
					continue
				}
				for _, p := range ix.Parts {
					cr, bare := p.X.(*sqlast.ColumnRef)
					if !bare {
						continue
					}
					ci := 0
					if t, ok := e.cat.Table(r.table); ok {
						ci = t.ColumnIndex(cr.Column)
					}
					if ci < 0 {
						continue
					}
					if !whereMentionsColumn(n.Where, cr.Column) {
						continue
					}
					// Inspect the heap, not the (possibly index-restricted)
					// relation: the fault is about stored index state.
					td := e.data[lower(r.table)]
					if td == nil {
						continue
					}
					for _, row := range td.Rows() {
						if ci < len(row.Vals) && row.Vals[ci].IsNull() {
							return xerr.New(xerr.CodeInternal, "found unexpected null value in index %q", ix.Name)
						}
					}
				}
			}
		}
	}
	return nil
}

func whereMentionsColumn(where sqlast.Expr, col string) bool {
	found := false
	sqlast.WalkExprs(where, func(x sqlast.Expr) bool {
		if cr, ok := x.(*sqlast.ColumnRef); ok && strings.EqualFold(cr.Column, col) {
			found = true
		}
		return true
	})
	return found
}

// planCandidates runs access-path selection for a single-table query and
// returns the candidate rowids the chosen path visits. restricted=false
// means a full heap scan was chosen. Candidates are a superset of the
// final answer in a correct engine; the residual WHERE filter still runs.
func (e *Engine) planCandidates(n *sqlast.Select, t *schema.Table, relName string) (rowids []int64, restricted bool) {
	if n.Where == nil && !n.Distinct {
		return nil, false
	}
	st := e.tableState(t.Name)
	// Every path below chooses among the table's indexes: fetch them once.
	ixs := e.cat.IndexesOn(t.Name)

	// Partial-index enumeration: usable when the WHERE clause implies the
	// index predicate.
	if ix := e.impliedPartialIndex(n.Where, ixs); ix != nil {
		e.cov.hit("plan.partial-index-scan")
		return e.idxRowids(ix), true
	}

	// Fault site (sqlite.skip-scan-distinct, Listing 6): after ANALYZE, a
	// DISTINCT query uses a skip-scan over a multi-column index and drops
	// rows whose leading key repeats.
	if e.d == dialect.SQLite && e.fs.Has(faults.SkipScanDistinct) && n.Distinct && st.analyzed {
		for _, ix := range ixs {
			if ix.Where != nil || len(ix.Parts) < 2 {
				continue
			}
			ixd := e.idx[lower(ix.Name)]
			if ixd == nil {
				continue
			}
			var keep []int64
			var prevLead sqlval.Value
			first := true
			for _, entry := range ixd.Entries() {
				if !first && sqlval.Compare(entry.Key[0], prevLead, sqlval.CollBinary) == 0 {
					continue // bogus skip
				}
				first = false
				prevLead = entry.Key[0]
				keep = append(keep, entry.Rowid)
			}
			return keep, true
		}
	}

	// Cost-based access-path selection: full scan vs index point lookup vs
	// index range scan, by simple row-count costing (see plan.go).
	if path := e.chooseAccessPath(n, t, relName, ixs); path != nil {
		switch path.Kind {
		case PathIndexEq:
			e.cov.hit("plan.index-eq-lookup")
		case PathIndexRange:
			e.cov.hit("plan.index-range-scan")
		}
		return e.executePath(path), true
	}
	if n.Where != nil {
		e.cov.hit("plan.full-scan")
	}
	return nil, false
}

// buildPlannedRelation materializes a single FROM source into r through
// the planner: when an index path is chosen, only the candidate rowids are
// fetched from the heap — point lookups cost O(log n), not O(n).
func (e *Engine) buildPlannedRelation(r *relation, n *sqlast.Select, tr sqlast.TableRef) error {
	t, ok := e.cat.Table(tr.Name)
	if !ok {
		return xerr.New(xerr.CodeNoObject, "no such table: %s", tr.Name)
	}
	if !e.plannable(t) {
		return e.buildRelation(r, tr)
	}
	name := tr.Name
	if tr.Alias != "" {
		name = tr.Alias
	}
	rowids, restricted := e.planCandidates(n, t, name)
	if !restricted {
		return e.buildRelation(r, tr)
	}
	st := e.tableState(t.Name)
	// Fault site (sqlite.rowid-alias-crash): resolving rows after RENAME
	// COLUMN dereferences a stale column slot, on any access path.
	if e.d == dialect.SQLite && e.fs.Has(faults.RowidAliasCrash) && st.renamedColumn {
		panic(crashPanic{site: "rowid_alias_resolve"})
	}
	td := e.data[lower(t.Name)]
	*r = relation{name: name, table: t.Name, columns: t.Columns, engine: t.Engine}
	// Deduplicate and fetch in rowid order, matching heap-scan order. Every
	// planCandidates path returns a fresh slice, so it sorts in place.
	slices.Sort(rowids)
	r.rows = make([]*storage.Row, 0, len(rowids))
	var prev int64
	for i, rid := range rowids {
		if i > 0 && rid == prev {
			continue
		}
		prev = rid
		row, ok := td.Get(rid)
		if !ok {
			continue // dangling index entry (stale-index fault class)
		}
		// Fault site (generic.insert-visibility): the most recent insert
		// is invisible to scans.
		if e.d == dialect.MySQL && e.fs.Has(faults.InsertVisibility) && row.Rowid == st.lastInsert {
			continue
		}
		r.rows = append(r.rows, row)
	}
	return nil
}

// predicateImplies reports whether `where` implies the partial-index
// predicate pred, given where's AND conjuncts conjs and their renderings
// without qualifiers, conjSQL. The correct engine is deliberately
// conservative: structural equality of the predicate with one of the
// conjuncts (the whole WHERE clause when it is not an AND).
func (e *Engine) predicateImplies(conjs []sqlast.Expr, conjSQL []string, pred sqlast.Expr) bool {
	predSQL := sqlast.ExprSQL(sqlast.StripQualifiers(pred), e.d)
	for i, conj := range conjs {
		if conjSQL[i] == predSQL {
			return true
		}
		// Fault site (sqlite.partial-index-not-null, Listing 1): the
		// planner assumes `col IS NOT <literal>` implies `col NOT NULL`.
		if e.d == dialect.SQLite && e.fs.Has(faults.PartialIndexNotNull) {
			if b, ok := conj.(*sqlast.Binary); ok && b.Op == sqlast.OpIsNot {
				if cr, ok := stripCollate(b.L).(*sqlast.ColumnRef); ok {
					if lit, ok := b.R.(*sqlast.Literal); ok && !lit.Val.IsNull() {
						if u, ok := pred.(*sqlast.Unary); ok && u.Op == sqlast.OpNotNull {
							if pcr, ok := stripCollate(u.X).(*sqlast.ColumnRef); ok &&
								strings.EqualFold(pcr.Column, cr.Column) {
								return true
							}
						}
					}
				}
			}
		}
	}
	return false
}

func stripCollate(e sqlast.Expr) sqlast.Expr {
	for {
		c, ok := e.(*sqlast.Collate)
		if !ok {
			return e
		}
		e = c.X
	}
}

func conjuncts(e sqlast.Expr) []sqlast.Expr {
	if b, ok := e.(*sqlast.Binary); ok && b.Op == sqlast.OpAnd {
		return append(conjuncts(b.L), conjuncts(b.R)...)
	}
	return []sqlast.Expr{e}
}

// idxRowids enumerates every rowid in an index.
func (e *Engine) idxRowids(ix *schema.Index) []int64 {
	ixd := e.idx[lower(ix.Name)]
	if ixd == nil {
		return nil
	}
	var out []int64
	for _, entry := range ixd.Entries() {
		out = append(out, entry.Rowid)
	}
	return out
}

// Caps, in pointers, on the capacity a join level reserves up front for
// its combos: 8 KB for a hash or index-lookup level, 256 KB for a nested
// loop.
const (
	joinPresizeMax   = 1 << 10
	nestedPresizeMax = 1 << 15
)

// joinRows enumerates the filtered row combinations. They come back flat:
// with w = len(rels) (1 for a FROM-less SELECT, whose one combination is
// a nil row), combination i is rows[i*w:(i+1)*w]. A single source's rows
// pass through as width-1 combinations without a copy, so the result may
// alias a borrowed heap, or else a buffer of the statement's frame s:
// callers read it and never write through it.
func (e *Engine) joinRows(s *stmtScratch, n *sqlast.Select, rels []*relation, joins []joinInfo) ([]*storage.Row, error) {
	// FROM-less SELECT evaluates over a single empty row (SELECT 1).
	if len(rels) == 0 {
		combos := s.noRows[:]
		if n.Where == nil {
			return combos, nil
		}
		return e.filterCombos(s, n, rels, combos, 1)
	}
	// Fault site (generic.join-predicate-pushdown): with two FROM tables
	// and a WHERE touching only the second, the "pushdown" also prunes
	// the first table to a single row.
	if e.d == dialect.MySQL && e.fs.Has(faults.JoinPredicatePushdown) &&
		len(rels) == 2 && n.Where != nil && len(n.Joins) == 0 {
		refs := map[string]bool{}
		for _, c := range sqlast.ColumnsUsed(n.Where) {
			if c.Table != "" {
				refs[strings.ToLower(c.Table)] = true
			}
		}
		if len(refs) == 1 && refs[strings.ToLower(rels[1].name)] && len(rels[0].rows) > 1 {
			rels[0].rows = rels[0].rows[:1]
		}
	}

	// The first relation's rows are its width-1 combos. Each level i
	// appends (combo, row) pairs of width i+1 to a flat buffer of the
	// frame, alternating between its two (see stmtScratch.combos).
	combos := rels[0].rows
	crossOK := e.crossPrefilterOK(n, rels)
	onEvals := s.onEvals(len(rels) - 1)
	for i := 1; i < len(rels); i++ {
		j := joins[i-1]
		l, r := len(combos)/i, len(rels[i].rows)
		// The ON condition is bound once per join level — against the
		// layout prefix visible at this level, so unqualified-name
		// resolution (and its ambiguity rules) match the tree-walk env —
		// and the bound clause runs per row pair. Binding, and the
		// compile-or-interpret choice over the level's L×R pairs, happen
		// before strategy dispatch, so bind errors (missing or ambiguous
		// columns) and the evaluation path are identical on every join
		// path.
		var on boundExpr
		if j.on != nil {
			x := &onEvals[i-1]
			x.reset(e, rels[:i+1], l*r)
			var err error
			if on, err = x.bind(j.on); err != nil {
				return nil, err
			}
		}
		// Strategy selection: hash or index-lookup when the level has
		// usable equality keys and the cost model favors them; the nested
		// loop otherwise (see join.go for the eligibility rules).
		a := e.analyzeJoin(n, rels, j, i, crossOK)
		strat := JoinNested
		if a != nil {
			strat, _ = chooseJoinStrategy(a, float64(l), float64(r))
			if strat == JoinHash && e.d == dialect.Postgres &&
				!pgJoinClassesCompatible(a, rels, i) {
				strat = JoinNested
			}
		}
		// A level keeps at most every pair plus one NULL-extended combo
		// per outer combo, and is pre-sized for that bound up to a cap
		// that keeps the reservation independent of L×R on large tables;
		// past the cap append grows with the combos kept. A nested loop
		// evaluates every pair and usually keeps most of them, so its cap
		// is the larger one; a hash or index-lookup level keeps about one
		// combo per key match.
		size := (l*r + l) * (i + 1)
		if strat == JoinNested {
			size = min(size, nestedPresizeMax)
		} else {
			size = min(size, joinPresizeMax)
		}
		lv := &joinLevel{n: n, rels: rels, level: i, j: j, on: on,
			leftDrop: j.kind == sqlast.JoinLeft && e.d == dialect.Postgres && e.fs.Has(faults.LeftJoinDrop),
			out:      s.comboBuf(i%2, size)}
		var err error
		switch strat {
		case JoinHash:
			e.cov.hit("join.hash")
			err = e.hashJoinLevel(lv, a, combos)
		case JoinIndexLookup:
			e.cov.hit("join.index-lookup")
			err = e.indexJoinLevel(lv, a, combos)
		default:
			err = e.nestedJoinLevel(lv, combos)
		}
		s.combos[i%2] = lv.out
		if err != nil {
			return nil, err
		}
		combos = lv.out
	}

	if n.Where == nil {
		return combos, nil
	}
	return e.filterCombos(s, n, rels, combos, len(rels))
}

func hasNullVal(row *storage.Row) bool {
	for _, v := range row.Vals {
		if v.IsNull() {
			return true
		}
	}
	return false
}

// filterCombos applies the WHERE clause to flat row combinations of width
// w, writing the survivors into the frame's combo buffer that combos is
// not in: the one the last join level (len(rels)-1) did not write.
func (e *Engine) filterCombos(s *stmtScratch, n *sqlast.Select, rels []*relation, combos []*storage.Row, w int) ([]*storage.Row, error) {
	// Fault site (generic.where-true-drop): the filter loop skips the
	// first matching row when the WHERE root is an OR over an indexed
	// column.
	dropFirst := false
	if e.d == dialect.SQLite && e.fs.Has(faults.WhereTrueDrop) {
		if b, ok := n.Where.(*sqlast.Binary); ok && b.Op == sqlast.OpOr {
			for _, c := range sqlast.ColumnsUsed(n.Where) {
				for _, r := range rels {
					if r.table == "" {
						continue
					}
					for _, ix := range e.cat.IndexesOn(r.table) {
						for _, p := range ix.Parts {
							if cr, ok := p.X.(*sqlast.ColumnRef); ok && strings.EqualFold(cr.Column, c.Column) {
								dropFirst = true
							}
						}
					}
				}
			}
		}
	}
	// The WHERE clause binds once per statement; over enough combos it
	// compiles, and the per-combo cost is a slot-bound program run, not a
	// tree walk with name resolution.
	x := &s.where
	x.reset(e, rels, len(combos)/w)
	where, err := x.bind(n.Where)
	if err != nil {
		return nil, err
	}
	k := len(rels) % 2
	out := s.comboBuf(k, len(combos))
	// The filter writes at most len(combos) pointers; the frame clears
	// that many when the statement ends.
	s.combos[k] = out[:len(combos)]
	for i := 0; i < len(combos); i += w {
		combo := combos[i : i+w : i+w]
		x.setRow(combo)
		tb, err := where.test()
		if err != nil {
			return nil, err
		}
		if tb != sqlval.TriTrue {
			continue
		}
		if dropFirst {
			dropFirst = false
			continue
		}
		out = append(out, combo...)
	}
	return out, nil
}

// aggNames are the aggregate functions the executor handles.
var aggNames = map[string]bool{"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true, "TOTAL": true}

// isAggregate reports whether a result column is an aggregate call. Scalar
// MIN/MAX with ≥2 args stay scalar (SQLite semantics).
func isAggregate(x sqlast.Expr) (*sqlast.FuncCall, bool) {
	fc, ok := x.(*sqlast.FuncCall)
	if !ok || !aggNames[strings.ToUpper(fc.Name)] {
		return nil, false
	}
	up := strings.ToUpper(fc.Name)
	if (up == "MIN" || up == "MAX") && len(fc.Args) != 1 {
		return nil, false
	}
	return fc, true
}

// outCol is one expanded result column of a projection.
type outCol struct {
	name string
	x    sqlast.Expr // nil for star expansion entries (direct value)
	rel  int         // star source relation
	col  int         // star source column
}

// projCtx bundles the projection state shared between the grouped
// executors (the materialized baseline below and the streaming hash path
// in agg.go).
type projCtx struct {
	n         *sqlast.Select
	rels      []*relation
	cols      []outCol
	outNames  []string
	x         *exprEval
	colFns    []boundExpr
	groupKeys []sqlast.Expr
	w         int // combo width (see joinRows)
}

// project computes output columns and rows from flat combos of width w,
// handling GROUP BY and aggregates. The column list, its bound
// expressions and their evaluator live in the statement's frame s; the
// names and rows it returns do not.
func (e *Engine) project(s *stmtScratch, n *sqlast.Select, rels []*relation, combos []*storage.Row, w int) ([]string, [][]sqlval.Value, error) {
	// Expand result columns.
	size := 0
	for _, rc := range n.Cols {
		if !rc.Star {
			size++
			continue
		}
		for _, r := range rels {
			size += len(r.columns)
		}
	}
	cols := scratchBuf(s.cols, size)
	hasAgg := false
	for i, rc := range n.Cols {
		if rc.Star {
			for ri, r := range rels {
				for ci := range r.columns {
					cols = append(cols, outCol{name: r.columns[ci].Name, x: nil, rel: ri, col: ci})
				}
			}
			continue
		}
		name := rc.Alias
		if name == "" {
			if cr, ok := rc.X.(*sqlast.ColumnRef); ok {
				name = cr.Column
			} else {
				name = "col" + itoa(i)
			}
		}
		if _, ok := isAggregate(rc.X); ok {
			hasAgg = true
		}
		cols = append(cols, outCol{name: name, x: rc.X, rel: -1})
	}
	s.cols = cols
	outNames := make([]string, len(cols))
	for i := range cols {
		outNames[i] = cols[i].name
	}

	// Listing 8 hijack: the double-quoted index part overrides the
	// renamed column's projected value under DISTINCT. The combo and its
	// rows are borrowed, so the hijacked row and its combo are copies.
	hijack := func(combo []*storage.Row) []*storage.Row {
		if !n.Distinct || e.d != dialect.SQLite || !e.fs.Has(faults.DoubleQuoteIndex) {
			return combo
		}
		out := combo
		for ri, r := range rels {
			if r.table == "" {
				continue
			}
			st := e.tableState(r.table)
			if st.dqHijackCol < 0 || combo[ri] == nil {
				continue
			}
			cp := combo[ri].Clone()
			if st.dqHijackCol < len(cp.Vals) {
				cp.Vals[st.dqHijackCol] = sqlval.Text(st.dqHijackVal)
			}
			if &out[0] == &combo[0] {
				out = slices.Clone(combo)
			}
			out[ri] = cp
		}
		return out
	}

	// Bind every projected expression once (aggregates are computed per
	// group below and never through the scalar path). GROUP BY keys,
	// HAVING and aggregate arguments share this evaluator, so one
	// compile-or-interpret choice over the input combos covers them all.
	x := &s.proj
	x.reset(e, rels, len(combos)/w)
	colFns := scratchBuf(s.colFns, len(cols))[:len(cols)]
	s.colFns = colFns
	for i, c := range cols {
		if c.x == nil {
			continue
		}
		if _, ok := isAggregate(c.x); ok {
			continue
		}
		var err error
		if colFns[i], err = x.bind(c.x); err != nil {
			return nil, nil, err
		}
	}

	evalRowInto := func(row []sqlval.Value, combo []*storage.Row) error {
		combo = hijack(combo)
		x.setRow(combo)
		for i, c := range cols {
			if c.x == nil {
				if combo[c.rel] == nil || c.col >= len(combo[c.rel].Vals) {
					row[i] = sqlval.Null()
				} else {
					row[i] = combo[c.rel].Vals[c.col]
				}
				continue
			}
			v, err := colFns[i].value()
			if err != nil {
				return err
			}
			row[i] = v
		}
		return nil
	}

	if len(n.GroupBy) == 0 && !hasAgg {
		nc := len(combos) / w
		rows := make([][]sqlval.Value, nc)
		// One arena backs every output row: the per-row make() here was
		// the single largest allocation site in campaign profiles.
		arena := make([]sqlval.Value, len(cols)*nc)
		for ci := range rows {
			rows[ci] = arena[ci*len(cols) : (ci+1)*len(cols) : (ci+1)*len(cols)]
			if err := evalRowInto(rows[ci], combos[ci*w:(ci+1)*w:(ci+1)*w]); err != nil {
				return nil, nil, err
			}
		}
		return outNames, rows, nil
	}

	// Grouping.
	e.cov.hit("dql.group-by")
	groupKeys := n.GroupBy
	// Fault site (postgres.inheritance-group-by, Listing 15): grouping an
	// inheritance scan collapses groups onto the first key only.
	if e.d == dialect.Postgres && e.fs.Has(faults.InheritanceGroupBy) && len(groupKeys) > 1 {
		inherited := false
		for _, r := range rels {
			if r.table == "" {
				continue
			}
			if t, ok := e.cat.Table(r.table); ok && len(t.Children) > 0 {
				inherited = true
			}
		}
		if inherited {
			groupKeys = groupKeys[:1]
		}
	}

	pc := &projCtx{n: n, rels: rels, cols: cols, outNames: outNames,
		x: x, colFns: colFns, groupKeys: groupKeys, w: w}
	if !e.off.Has(strategy.HashAgg) && streamableAgg(cols) {
		return e.projectGroupedHash(pc, combos)
	}
	return e.projectGroupedNaive(pc, combos)
}

// projectGroupedNaive is the materialized grouped/aggregate projection:
// groups resolve by a linear keysEqual scan, every group retains its
// combos, and aggregates re-iterate them per column. It is the ablation
// baseline (strategy.HashAgg disabled) the streaming path must match byte-for-byte.
func (e *Engine) projectGroupedNaive(pc *projCtx, combos []*storage.Row) ([]string, [][]sqlval.Value, error) {
	n, rels, cols, x, colFns, groupKeys, w :=
		pc.n, pc.rels, pc.cols, pc.x, pc.colFns, pc.groupKeys, pc.w

	type group struct {
		key    []sqlval.Value
		combos []*storage.Row // flat, width w
	}
	var groups []*group
	if len(groupKeys) == 0 {
		// Implicit single group over all rows (pure-aggregate query).
		groups = []*group{{combos: combos}}
	} else {
		keyFns := make([]boundExpr, len(groupKeys))
		for i, gx := range groupKeys {
			var err error
			if keyFns[i], err = x.bind(gx); err != nil {
				return nil, nil, err
			}
		}
		for ci := 0; ci < len(combos); ci += w {
			combo := combos[ci : ci+w : ci+w]
			x.setRow(combo)
			key := make([]sqlval.Value, len(groupKeys))
			for i := range keyFns {
				v, err := keyFns[i].value()
				if err != nil {
					return nil, nil, err
				}
				key[i] = v
			}
			var g *group
			for _, cand := range groups {
				if keysEqual(cand.key, key) {
					g = cand
					break
				}
			}
			if g == nil {
				g = &group{key: key}
				groups = append(groups, g)
			}
			g.combos = append(g.combos, combo...)
		}
	}

	var having boundExpr
	if n.Having != nil {
		var err error
		if having, err = x.bind(n.Having); err != nil {
			return nil, nil, err
		}
	}
	// One aggCol per output column: an aggregate's argument binds on the
	// first group that reaches it and every later group reuses the binding
	// (zero-group queries never bind, as in the streaming path).
	aggs := make([]aggCol, len(cols))
	var rows [][]sqlval.Value
	for _, g := range groups {
		rep := make([]*storage.Row, len(rels)) // all-NULL row for empty groups
		if len(g.combos) > 0 {
			rep = g.combos[:w:w]
		} else if len(groupKeys) > 0 {
			continue // only the implicit aggregate group may be empty
		}
		if n.Having != nil {
			x.setRow(rep)
			tb, err := having.test()
			if err != nil {
				return nil, nil, err
			}
			if tb != sqlval.TriTrue {
				continue
			}
		}
		row := make([]sqlval.Value, len(cols))
		for i, c := range cols {
			if c.x == nil {
				if rep[c.rel] == nil || c.col >= len(rep[c.rel].Vals) {
					row[i] = sqlval.Null()
				} else {
					row[i] = rep[c.rel].Vals[c.col]
				}
				continue
			}
			if fc, ok := isAggregate(c.x); ok {
				aggs[i].fc = fc
				v, err := e.aggregate(&aggs[i], x, g.combos, w)
				if err != nil {
					return nil, nil, err
				}
				row[i] = v
				continue
			}
			// setRow per column: the aggregate above iterates the group's
			// combos and leaves the evaluation state on the last one.
			x.setRow(rep)
			v, err := colFns[i].value()
			if err != nil {
				return nil, nil, err
			}
			row[i] = v
		}
		rows = append(rows, row)
	}
	return pc.outNames, rows, nil
}

// keysEqual compares group keys: NULLs group together (SQL GROUP BY
// semantics), unlike ordinary equality.
func keysEqual(a, b []sqlval.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].IsNull() || b[i].IsNull() {
			if a[i].IsNull() != b[i].IsNull() {
				return false
			}
			continue
		}
		if sqlval.Compare(a[i], b[i], sqlval.CollBinary) != 0 {
			return false
		}
	}
	return true
}

// aggregate computes one aggregate over a group's flat combos of width w.
// The argument binds through ac (aggCol.bind), so one program serves every
// group of the statement.
func (e *Engine) aggregate(ac *aggCol, x *exprEval, combos []*storage.Row, w int) (sqlval.Value, error) {
	fc := ac.fc
	up := strings.ToUpper(fc.Name)
	e.cov.hitNamed("dql.aggregate.", up)
	// Fault site (sqlite.agg-empty-group): an aggregate whose filtered
	// input is empty materializes a phantom row — COUNT reports 1,
	// SUM/MIN/MAX report 0 instead of NULL. PQS never aggregates; TLP's
	// partition aggregates hit empty inputs constantly (the `p IS NULL`
	// partition is usually empty).
	if e.d == dialect.SQLite && e.fs.Has(faults.AggEmptyGroup) && len(combos) == 0 {
		switch up {
		case "COUNT":
			return sqlval.Int(1), nil
		case "SUM", "MIN", "MAX":
			return sqlval.Int(0), nil
		}
	}
	if up == "COUNT" && len(fc.Args) == 0 {
		return sqlval.Int(int64(len(combos) / w)), nil
	}
	if len(fc.Args) != 1 {
		return sqlval.Null(), xerr.New(xerr.CodeType, "aggregate %s expects one argument", fc.Name)
	}
	ac.bind(x)
	if ac.bindErr != nil {
		return sqlval.Null(), ac.bindErr
	}
	var vals []sqlval.Value
	for ci := 0; ci < len(combos); ci += w {
		x.setRow(combos[ci : ci+w : ci+w])
		v, err := ac.arg.value()
		if err != nil {
			return sqlval.Null(), err
		}
		if !v.IsNull() {
			vals = append(vals, v)
		}
	}
	switch up {
	case "COUNT":
		return sqlval.Int(int64(len(vals))), nil
	case "MIN", "MAX":
		if len(vals) == 0 {
			return sqlval.Null(), nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c := sqlval.Compare(v, best, sqlval.CollBinary)
			if (up == "MIN" && c < 0) || (up == "MAX" && c > 0) {
				best = v
			}
		}
		return best, nil
	case "SUM", "TOTAL", "AVG":
		if len(vals) == 0 {
			if up == "TOTAL" {
				return sqlval.Real(0), nil
			}
			return sqlval.Null(), nil
		}
		allInt := up != "TOTAL" && up != "AVG"
		var isum int64
		var fsum float64
		for _, v := range vals {
			if e.d == dialect.Postgres && !v.IsNumeric() {
				return sqlval.Null(), xerr.New(xerr.CodeType, "%s(%s)", fc.Name, v.Kind())
			}
			var num sqlval.Value
			switch v.Kind() {
			case sqlval.KInt, sqlval.KUint, sqlval.KReal, sqlval.KBool:
				num = v
			default:
				num = sqlval.Real(0)
				if parsed, ok := sqlval.TextToNumeric(v.Display()); ok {
					num = parsed
				}
			}
			if num.Kind() == sqlval.KInt || num.Kind() == sqlval.KBool {
				isum += num.Int64()
				fsum += float64(num.Int64())
			} else {
				allInt = false
				fsum += num.AsFloat()
			}
		}
		switch up {
		case "AVG":
			return sqlval.Real(fsum / float64(len(vals))), nil
		case "TOTAL":
			return sqlval.Real(fsum), nil
		default:
			if allInt {
				return sqlval.Int(isum), nil
			}
			return sqlval.Real(fsum), nil
		}
	}
	return sqlval.Null(), xerr.New(xerr.CodeUnsupported, "aggregate %s", fc.Name)
}

// distinct deduplicates output rows.
func (e *Engine) distinct(rows [][]sqlval.Value) [][]sqlval.Value {
	e.cov.hit("dql.distinct")
	// Fault site (generic.distinct-collation): DISTINCT compares text
	// case-insensitively regardless of column collation.
	coll := sqlval.CollBinary
	if e.d == dialect.SQLite && e.fs.Has(faults.DistinctCollation) {
		coll = sqlval.CollNoCase
	}
	// Large result sets bucket rows by a conservative hash key first
	// (Compare-equal rows always share a key; key collisions fall back to
	// pairwise Compare), turning the O(n²) scan into near-linear work.
	// The collated fault path keeps the plain scan: its equality is
	// deliberately non-standard and rare.
	if coll == sqlval.CollBinary && len(rows) > 16 {
		return e.distinctHashed(rows)
	}
	var out [][]sqlval.Value
	for _, row := range rows {
		dup := false
		for _, prev := range out {
			if rowsEqual(row, prev, coll) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, row)
		}
	}
	return out
}

func rowsEqual(a, b []sqlval.Value, coll sqlval.Collation) bool {
	for i := range a {
		if a[i].IsNull() || b[i].IsNull() {
			if a[i].IsNull() != b[i].IsNull() {
				return false
			}
			continue
		}
		if sqlval.Compare(a[i], b[i], coll) != 0 {
			return false
		}
	}
	return true
}

// distinctHashed is the binary-collation DISTINCT fast path.
func (e *Engine) distinctHashed(rows [][]sqlval.Value) [][]sqlval.Value {
	buckets := make(map[string][][]sqlval.Value, len(rows))
	out := make([][]sqlval.Value, 0, len(rows))
	var key strings.Builder
	for _, row := range rows {
		key.Reset()
		for _, v := range row {
			switch {
			case v.IsNull():
				key.WriteString("\x00n")
			case v.Kind() == sqlval.KText:
				key.WriteString("\x00t")
				key.WriteString(v.Str())
			case v.Kind() == sqlval.KBlob:
				key.WriteString("\x00b")
				key.WriteString(v.BlobStr())
			default:
				// Numeric (incl. bool): Compare treats 1, 1.0, and TRUE
				// as equal, so the key folds them to one float rendering
				// (negative zero folds to zero — Compare says they are
				// equal but FormatFloat renders them apart). Distinct huge
				// integers can collide on the same float; the in-bucket
				// Compare pass disambiguates.
				f := v.AsFloat()
				if f == 0 {
					f = 0
				}
				key.WriteString("\x00f")
				key.WriteString(strconv.FormatFloat(f, 'g', -1, 64))
			}
		}
		k := key.String()
		dup := false
		for _, prev := range buckets[k] {
			if rowsEqual(row, prev, sqlval.CollBinary) {
				dup = true
				break
			}
		}
		if !dup {
			buckets[k] = append(buckets[k], row)
			out = append(out, row)
		}
	}
	return out
}

// resolveOrderKeys maps ORDER BY expressions onto output-column indexes by
// rendered SQL (or positionally through star expansions), shared by the
// full sort and the top-K path so both raise the identical resolution
// error.
func (e *Engine) resolveOrderKeys(n *sqlast.Select, rels []*relation) ([]int, error) {
	keyIdx := make([]int, len(n.OrderBy))
	for i, oi := range n.OrderBy {
		keyIdx[i] = -1
		want := sqlast.ExprSQL(oi.X, e.d)
		for ci, rc := range n.Cols {
			if rc.Star {
				continue
			}
			if sqlast.ExprSQL(rc.X, e.d) == want || (rc.Alias != "" && rc.Alias == want) {
				keyIdx[i] = ci
				break
			}
		}
		// Star projections: resolve a bare column reference positionally.
		if keyIdx[i] < 0 {
			if cr, ok := oi.X.(*sqlast.ColumnRef); ok {
				pos := 0
				for _, rc := range n.Cols {
					if !rc.Star {
						pos++
						continue
					}
					for _, r := range rels {
						for ci2 := range r.columns {
							if strings.EqualFold(r.columns[ci2].Name, cr.Column) &&
								(cr.Table == "" || strings.EqualFold(cr.Table, r.name)) {
								keyIdx[i] = pos
							}
							pos++
						}
					}
				}
			}
		}
		if keyIdx[i] < 0 {
			return nil, xerr.New(xerr.CodeNoObject, "ORDER BY term does not match any result column")
		}
	}
	return keyIdx, nil
}

// orderBy sorts output rows in place by the ORDER BY items. Sort keys are
// recomputed from output rows when the order expression matches an output
// column; otherwise they must be simple column references.
func (e *Engine) orderBy(n *sqlast.Select, rels []*relation, rows [][]sqlval.Value) error {
	e.cov.hit("dql.order-by")
	keyIdx, err := e.resolveOrderKeys(n, rels)
	if err != nil {
		return err
	}
	sort.SliceStable(rows, func(a, b int) bool {
		for i := range keyIdx {
			va, vb := rows[a][keyIdx[i]], rows[b][keyIdx[i]]
			c := sqlval.Compare(va, vb, sqlval.CollBinary)
			if n.OrderBy[i].Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	return nil
}

// applyLimit applies LIMIT/OFFSET.
func (e *Engine) applyLimit(n *sqlast.Select, rows [][]sqlval.Value) ([][]sqlval.Value, error) {
	if n.Limit == nil {
		return rows, nil
	}
	e.cov.hit("dql.limit")
	lv, err := e.constEval(n.Limit)
	if err != nil {
		return nil, err
	}
	limit := int(lv.Int64())
	if lv.Kind() != sqlval.KInt || limit < 0 {
		return nil, xerr.New(xerr.CodeType, "LIMIT must be a non-negative integer")
	}
	offset := 0
	if n.Offset != nil {
		ov, err := e.constEval(n.Offset)
		if err != nil {
			return nil, err
		}
		if ov.Kind() != sqlval.KInt || ov.Int64() < 0 {
			return nil, xerr.New(xerr.CodeType, "OFFSET must be a non-negative integer")
		}
		offset = int(ov.Int64())
	}
	if offset >= len(rows) {
		return nil, nil
	}
	rows = rows[offset:]
	if limit < len(rows) {
		rows = rows[:limit]
	}
	// Fault site (generic.order-by-limit-drop): ORDER BY + LIMIT loses
	// the last row when any emitted sort key is NULL.
	if e.d == dialect.Postgres && e.fs.Has(faults.OrderByLimitDrop) &&
		len(n.OrderBy) > 0 && len(rows) > 0 && anyRowHasNull(rows) {
		rows = rows[:len(rows)-1]
	}
	return rows, nil
}

// anyRowHasNull reports whether any emitted value is NULL, returning on
// the first hit (the fault gate above keeps the scan off sound engines).
func anyRowHasNull(rows [][]sqlval.Value) bool {
	for _, row := range rows {
		for _, v := range row {
			if v.IsNull() {
				return true
			}
		}
	}
	return false
}
