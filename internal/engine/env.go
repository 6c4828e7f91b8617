package engine

import (
	"strings"

	"repro/internal/eval"
	"repro/internal/schema"
	"repro/internal/sqlval"
	"repro/internal/storage"
)

// relation is one FROM source during query execution: a named set of
// columns and rows (a base table, inheritance scan, or view result).
type relation struct {
	name    string // alias or table name, used for qualified lookups
	table   string // underlying base table name ("" for views/derived)
	columns []schema.Column
	engine  string // MySQL storage engine of the base table
	// rows are the source's rows. A base-table scan borrows the heap's
	// rows (see storage.Row): nothing here may write through them.
	rows []*storage.Row
}

// joinedEnv resolves columns over a set of relations with one current row
// each. It implements eval.Env.
type joinedEnv struct {
	rels    []*relation
	current []*storage.Row // parallel to rels
}

// eqFold is strings.EqualFold with an exact-match fast path: generated
// identifiers are case-consistent, so the byte comparison almost always
// decides and the rune-wise fold never runs.
func eqFold(a, b string) bool {
	return a == b || strings.EqualFold(a, b)
}

// findColumn resolves a (possibly unqualified) column reference over a
// relation set. ambiguous reports an unqualified name matching more than
// one column — a distinct condition from a missing name (both return
// ri = -1). The tree-walk env below, which is also the compile-time
// layout, resolves through it.
func findColumn(rels []*relation, table, column string) (ri, ci int, ambiguous bool) {
	if table != "" {
		for ri, r := range rels {
			if eqFold(r.name, table) || eqFold(r.table, table) {
				for ci := range r.columns {
					if eqFold(r.columns[ci].Name, column) {
						return ri, ci, false
					}
				}
				return -1, -1, false
			}
		}
		return -1, -1, false
	}
	foundR, foundC, n := -1, -1, 0
	for ri, r := range rels {
		for ci := range r.columns {
			if eqFold(r.columns[ci].Name, column) {
				foundR, foundC = ri, ci
				n++
			}
		}
	}
	if n == 1 {
		return foundR, foundC, false
	}
	return -1, -1, n > 1
}

func (j *joinedEnv) find(table, column string) (int, int) {
	ri, ci, _ := findColumn(j.rels, table, column)
	return ri, ci
}

// ColumnErr implements eval.ResolveErrEnv: an unqualified reference
// matching more than one relation column reports "ambiguous column name"
// instead of masquerading as a missing column.
func (j *joinedEnv) ColumnErr(table, column string) error {
	if _, _, ambiguous := findColumn(j.rels, table, column); ambiguous {
		return eval.ErrAmbiguousColumn(column)
	}
	return nil
}

// ColumnValue implements eval.Env.
func (j *joinedEnv) ColumnValue(table, column string) (sqlval.Value, bool) {
	ri, ci := j.find(table, column)
	if ri < 0 {
		return sqlval.Null(), false
	}
	row := j.current[ri]
	if row == nil {
		// NULL-extended side of an outer join.
		return sqlval.Null(), true
	}
	if ci >= len(row.Vals) {
		return sqlval.Null(), true
	}
	return row.Vals[ci], true
}

// ColumnMeta implements eval.Env.
func (j *joinedEnv) ColumnMeta(table, column string) (eval.Meta, bool) {
	ri, ci := j.find(table, column)
	if ri < 0 {
		return eval.Meta{}, false
	}
	return j.meta(ri, ci), true
}

// Resolve implements eval.Layout: the same relations are the compile-time
// (and bind-time) layout of the statement's programs, so compiled and
// interpreted paths resolve names identically.
func (j *joinedEnv) Resolve(table, column string) (eval.Slot, eval.Meta, error) {
	ri, ci, ambiguous := findColumn(j.rels, table, column)
	if ambiguous {
		return eval.Slot{}, eval.Meta{}, eval.ErrAmbiguousColumn(column)
	}
	if ri < 0 {
		return eval.Slot{}, eval.Meta{}, eval.ErrNoSuchColumn(table, column)
	}
	return eval.Slot{Rel: ri, Col: ci}, j.meta(ri, ci), nil
}

func (j *joinedEnv) meta(ri, ci int) eval.Meta {
	col := j.rels[ri].columns[ci]
	return eval.Meta{
		Coll:        col.Collate,
		Affinity:    col.Affinity,
		Unsigned:    col.Unsigned,
		TypeName:    col.TypeName,
		TableEngine: j.rels[ri].engine,
	}
}

// tableEnv is a single-table row environment (DML paths, index keys).
type tableEnv struct {
	t      *schema.Table
	engine string
	vals   []sqlval.Value
}

func newTableEnv(t *schema.Table, vals []sqlval.Value) *tableEnv {
	return &tableEnv{t: t, engine: t.Engine, vals: vals}
}

// ColumnValue implements eval.Env.
func (te *tableEnv) ColumnValue(table, column string) (sqlval.Value, bool) {
	if table != "" && !strings.EqualFold(table, te.t.Name) {
		return sqlval.Null(), false
	}
	ci := te.t.ColumnIndex(column)
	if ci < 0 || ci >= len(te.vals) {
		return sqlval.Null(), false
	}
	return te.vals[ci], true
}

// ColumnMeta implements eval.Env.
func (te *tableEnv) ColumnMeta(table, column string) (eval.Meta, bool) {
	if table != "" && !strings.EqualFold(table, te.t.Name) {
		return eval.Meta{}, false
	}
	ci := te.t.ColumnIndex(column)
	if ci < 0 {
		return eval.Meta{}, false
	}
	col := te.t.Columns[ci]
	return eval.Meta{
		Coll:        col.Collate,
		Affinity:    col.Affinity,
		Unsigned:    col.Unsigned,
		TypeName:    col.TypeName,
		TableEngine: te.engine,
	}, true
}
