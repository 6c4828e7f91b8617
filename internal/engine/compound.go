package engine

import (
	"repro/internal/dialect"
	"repro/internal/faults"
	"repro/internal/sqlast"
	"repro/internal/sqlval"
	"repro/internal/xerr"
)

// execCompound evaluates UNION / UNION ALL / INTERSECT / EXCEPT chains,
// left-associatively. The set operators use SQL's DISTINCT-style equality:
// NULLs compare equal, numeric values compare across storage classes.
func (e *Engine) execCompound(n *sqlast.Compound) (*Result, error) {
	e.cov.hit("dql.compound")
	if len(n.Selects) < 2 || len(n.Ops) != len(n.Selects)-1 {
		return nil, xerr.New(xerr.CodeSyntax, "malformed compound select")
	}
	hasUnionAll := false
	for _, op := range n.Ops {
		if op == sqlast.OpUnionAll {
			hasUnionAll = true
		}
	}
	// arm evaluates one compound arm. Fault site
	// (sqlite.null-partition-drop): inside a UNION ALL chain, an arm whose
	// WHERE root is an IS NULL test contributes no rows — the shape of
	// TLP's third partition, which no pivot query ever takes.
	arm := func(sel *sqlast.Select) (*Result, error) {
		res, err := e.execSelect(sel)
		if err != nil {
			return nil, err
		}
		if hasUnionAll && e.d == dialect.SQLite && e.fs.Has(faults.NullPartitionDrop) {
			if u, ok := sel.Where.(*sqlast.Unary); ok && u.Op == sqlast.OpIsNull {
				res = &Result{Columns: res.Columns}
			}
		}
		return res, nil
	}
	acc, err := arm(n.Selects[0])
	if err != nil {
		return nil, err
	}
	for i, sel := range n.Selects[1:] {
		right, err := arm(sel)
		if err != nil {
			return nil, err
		}
		if len(acc.Columns) != len(right.Columns) {
			return nil, xerr.New(xerr.CodeSyntax,
				"SELECTs to the left and right of %s do not have the same number of result columns",
				n.Ops[i])
		}
		switch n.Ops[i] {
		case sqlast.OpUnionAll:
			rows := append(acc.Rows, right.Rows...)
			// Fault site (sqlite.union-all-dedup): UNION ALL deduplicates
			// its concatenation the way UNION does.
			if e.d == dialect.SQLite && e.fs.Has(faults.UnionAllDedup) {
				rows = setDedup(rows)
			}
			acc = &Result{Columns: acc.Columns, Rows: rows}
		case sqlast.OpUnion:
			acc = &Result{Columns: acc.Columns, Rows: setDedup(append(acc.Rows, right.Rows...))}
		case sqlast.OpIntersect:
			acc = &Result{Columns: acc.Columns, Rows: setIntersect(acc.Rows, right.Rows)}
		case sqlast.OpExcept:
			acc = &Result{Columns: acc.Columns, Rows: setExcept(acc.Rows, right.Rows)}
		}
		e.cov.hitNamed("dql.compound.", n.Ops[i].String())
	}
	return acc, nil
}

// rowsSetEqual is DISTINCT-style row equality: NULLs equal, numerics
// compare across storage classes, text under BINARY.
func rowsSetEqual(a, b []sqlval.Value) bool {
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

func setContains(rows [][]sqlval.Value, row []sqlval.Value) bool {
	for _, r := range rows {
		if rowsSetEqual(r, row) {
			return true
		}
	}
	return false
}

func setDedup(rows [][]sqlval.Value) [][]sqlval.Value {
	var out [][]sqlval.Value
	for _, r := range rows {
		if !setContains(out, r) {
			out = append(out, r)
		}
	}
	return out
}

func setIntersect(left, right [][]sqlval.Value) [][]sqlval.Value {
	var out [][]sqlval.Value
	for _, r := range setDedup(left) {
		if setContains(right, r) {
			out = append(out, r)
		}
	}
	return out
}

func setExcept(left, right [][]sqlval.Value) [][]sqlval.Value {
	var out [][]sqlval.Value
	for _, r := range setDedup(left) {
		if !setContains(right, r) {
			out = append(out, r)
		}
	}
	return out
}
