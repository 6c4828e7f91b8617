package engine

import (
	"strings"

	"repro/internal/dialect"
	"repro/internal/faults"
	"repro/internal/sqlast"
	"repro/internal/sqlval"
	"repro/internal/storage"
	"repro/internal/xerr"
)

func (e *Engine) maintenance(n *sqlast.Maintenance) (*Result, error) {
	switch n.Op {
	case sqlast.MaintVacuum, sqlast.MaintVacuumFull:
		return e.vacuum(n.Op == sqlast.MaintVacuumFull)
	case sqlast.MaintReindex:
		return e.reindex(n.Table)
	case sqlast.MaintAnalyze:
		return e.analyze(n.Table)
	case sqlast.MaintRepairTable:
		return e.repairTable(n.Table)
	case sqlast.MaintCheckTable, sqlast.MaintCheckTableForUpgrade:
		return e.checkTable(n.Table, n.Op == sqlast.MaintCheckTableForUpgrade)
	case sqlast.MaintDiscard:
		if e.d != dialect.Postgres {
			return nil, xerr.New(xerr.CodeUnsupported, "DISCARD is PostgreSQL-only")
		}
		e.cov.hit("maint.discard")
		return &Result{}, nil
	}
	return nil, xerr.New(xerr.CodeUnsupported, "unsupported maintenance statement")
}

// vacuum rebuilds the whole database image.
func (e *Engine) vacuum(full bool) (*Result, error) {
	e.cov.hit("maint.vacuum")
	if full && e.d != dialect.Postgres {
		return nil, xerr.New(xerr.CodeSyntax, "VACUUM FULL is PostgreSQL-only")
	}

	// Fault site (generic.vacuum-corrupt): VACUUM breaks the image.
	if e.fs.Has(faults.VacuumCorrupt) {
		e.corrupt = "database disk image is malformed"
		return nil, xerr.New(xerr.CodeCorrupt, "%s", e.corrupt)
	}

	// Fault site (sqlite.case-sensitive-like-pragma, Listing 9): VACUUM
	// re-evaluates LIKE expression indexes; a flipped pragma makes them
	// disagree with the stored schema.
	if e.d == dialect.SQLite && e.fs.Has(faults.CaseSensitiveLikePragma) {
		for _, name := range e.cat.IndexNames() {
			ix, _ := e.cat.Index(name)
			if ix == nil {
				continue
			}
			hasLike := false
			for _, p := range ix.Parts {
				sqlast.WalkExprs(p.X, func(x sqlast.Expr) bool {
					if b, ok := x.(*sqlast.Binary); ok && (b.Op == sqlast.OpLike || b.Op == sqlast.OpNotLike) {
						hasLike = true
					}
					return true
				})
			}
			if hasLike && ix.BuildCaseSensitiveLike != e.caseSensitiveLike {
				return nil, xerr.New(xerr.CodeCorrupt,
					"malformed database schema (%s) - non-deterministic functions prohibited in index expressions", ix.Name)
			}
		}
	}

	// Fault site (postgres.vacuum-overflow, Listing 18): VACUUM FULL
	// re-evaluates expression indexes against a stale high-water value
	// and overflows.
	if e.d == dialect.Postgres && full && e.fs.Has(faults.VacuumOverflow) {
		for _, table := range e.cat.TableNames() {
			st := e.tableState(table)
			if !st.bigIntSeen {
				continue
			}
			for _, ix := range e.cat.IndexesOn(table) {
				for _, p := range ix.Parts {
					if _, bare := p.X.(*sqlast.ColumnRef); !bare {
						return nil, xerr.New(xerr.CodeRange, "integer out of range")
					}
				}
			}
		}
	}

	// The real work: rebuild every index from the heap.
	for _, table := range e.cat.TableNames() {
		if err := e.rebuildIndexesOn(table, false); err != nil {
			return nil, err
		}
	}
	return &Result{}, nil
}

// reindex rebuilds indexes for one table (or all).
func (e *Engine) reindex(table string) (*Result, error) {
	e.cov.hit("maint.reindex")
	tables := e.cat.TableNames()
	if table != "" {
		t, _, err := e.table(table)
		if err != nil {
			return nil, err
		}
		tables = []string{t.Name}
	}
	for _, tn := range tables {
		if err := e.rebuildIndexesOn(tn, true); err != nil {
			return nil, err
		}
	}
	return &Result{}, nil
}

// rebuildIndexesOn rebuilds each index of a table from the heap.
// checkUnique re-verifies unique constraints (REINDEX semantics).
func (e *Engine) rebuildIndexesOn(table string, checkUnique bool) error {
	t, ok := e.cat.Table(table)
	if !ok || t.IsView {
		return nil
	}
	td := e.data[lower(t.Name)]
	for _, ix := range e.cat.IndexesOn(t.Name) {
		ixd := e.idx[lower(ix.Name)]
		if ixd == nil {
			continue
		}
		// Fault site (sqlite.reindex-unique): REINDEX rebuilds a collated
		// unique index under BINARY and reports a spurious UNIQUE
		// violation for collation-equal keys.
		if checkUnique && e.d == dialect.SQLite && e.fs.Has(faults.ReindexUnique) && ix.Unique {
			for _, p := range ix.Parts {
				if p.Collate != sqlval.CollBinary && e.idx[lower(ix.Name)].Len() >= 2 {
					return xerr.New(xerr.CodeUnique, "UNIQUE constraint failed: index %s", ix.Name)
				}
			}
		}
		fresh := storage.NewIndexData(ixd.Collations(), nil)
		for _, r := range td.Rows() {
			key, include, err := e.indexKey(ix, t, r.Vals)
			if err != nil {
				return err
			}
			if !include {
				continue
			}
			// Fault site (sqlite.nocase-unique-index): rebuilds silently
			// dedup case-variant PK keys the same way the initial build
			// does — the duplicate never reaches the uniqueness check.
			if e.nocaseIndexDrops(t, ix, key, fresh) {
				continue
			}
			if checkUnique && ix.Unique && !allNull(key) && len(fresh.Equal(key)) > 0 {
				return xerr.New(xerr.CodeUnique, "UNIQUE constraint failed: index %s", ix.Name)
			}
			fresh.Insert(key, r.Rowid)
		}
		ixd.Clear()
		for _, entry := range fresh.Entries() {
			ixd.Insert(entry.Key, entry.Rowid)
		}
		ix.BuildSeq = e.seq
		ix.BuildCaseSensitiveLike = e.caseSensitiveLike
	}
	return nil
}

// analyze records planner statistics (the skip-scan trigger).
func (e *Engine) analyze(table string) (*Result, error) {
	e.cov.hit("maint.analyze")
	tables := e.cat.TableNames()
	if table != "" {
		t, _, err := e.table(table)
		if err != nil {
			return nil, err
		}
		tables = []string{t.Name}
	}
	for _, tn := range tables {
		e.tableState(tn).analyzed = true
	}
	return &Result{}, nil
}

func (e *Engine) repairTable(table string) (*Result, error) {
	if e.d != dialect.MySQL {
		return nil, xerr.New(xerr.CodeUnsupported, "REPAIR TABLE is MySQL-only")
	}
	e.cov.hit("maint.repair-table")
	t, td, err := e.table(table)
	if err != nil {
		return nil, err
	}
	// Fault site (mysql.repair-table-truncate): REPAIR drops the
	// highest-rowid row and marks the table crashed.
	if e.fs.Has(faults.RepairTableTruncate) && td.Len() > 0 {
		td.DeleteLast()
		e.corrupt = "table " + t.Name + " is marked as crashed and should be repaired"
		return nil, xerr.New(xerr.CodeCorrupt, "%s", e.corrupt)
	}
	return e.reindexTableOnly(t.Name)
}

func (e *Engine) reindexTableOnly(name string) (*Result, error) {
	if err := e.rebuildIndexesOn(name, false); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

func (e *Engine) checkTable(table string, forUpgrade bool) (*Result, error) {
	if e.d != dialect.MySQL {
		return nil, xerr.New(xerr.CodeUnsupported, "CHECK TABLE is MySQL-only")
	}
	e.cov.hit("maint.check-table")
	t, td, err := e.table(table)
	if err != nil {
		return nil, err
	}
	// Fault site (mysql.check-table-crash, Listing 14 / CVE-2019-2879):
	// CHECK TABLE ... FOR UPGRADE crashes on expression indexes.
	if forUpgrade && e.fs.Has(faults.CheckTableCrash) {
		for _, ix := range e.cat.IndexesOn(t.Name) {
			for _, p := range ix.Parts {
				if _, bare := p.X.(*sqlast.ColumnRef); !bare {
					panic(crashPanic{site: "check_table_for_upgrade"})
				}
			}
		}
	}
	// Integrity verification: every index must agree with the heap.
	for _, ix := range e.cat.IndexesOn(t.Name) {
		ixd := e.idx[lower(ix.Name)]
		if ixd == nil {
			continue
		}
		expected := 0
		for _, r := range td.Rows() {
			_, include, err := e.indexKey(ix, t, r.Vals)
			if err != nil {
				return nil, err
			}
			if include {
				expected++
			}
		}
		if expected != ixd.Len() {
			e.corrupt = "table " + t.Name + " is marked as crashed and should be repaired"
			return nil, xerr.New(xerr.CodeCorrupt, "%s", e.corrupt)
		}
	}
	return &Result{Columns: []string{"Table", "Msg_text"}, Rows: [][]sqlval.Value{
		{sqlval.Text(t.Name), sqlval.Text("OK")},
	}}, nil
}

// knownOptions lists the option names each dialect accepts.
var knownOptions = map[dialect.Dialect]map[string]bool{
	dialect.SQLite: {
		"case_sensitive_like":       true,
		"reverse_unordered_selects": true,
		"legacy_file_format":        true,
	},
	dialect.MySQL: {
		"key_cache_division_limit": true,
		"sort_buffer_size":         true,
		"max_heap_table_size":      true,
	},
	dialect.Postgres: {
		"enable_seqscan":   true,
		"enable_indexscan": true,
		"work_mem":         true,
	},
}

func (e *Engine) setOption(n *sqlast.SetOption) (*Result, error) {
	e.cov.hitNamed("opt.", n.Name)
	if !knownOptions[e.d][n.Name] {
		return nil, xerr.New(xerr.CodeOption, "unknown option: %s", n.Name)
	}
	val := sqlval.Null()
	if n.Value != nil {
		v, err := e.constEval(n.Value)
		if err != nil {
			return nil, err
		}
		val = v
	}
	// Fault site (mysql.set-option-error, Listing 3): setting the key
	// cache option fails with "Incorrect arguments to SET" for a
	// deterministic subset of values (standing in for the paper's
	// nondeterminism).
	if e.d == dialect.MySQL && e.fs.Has(faults.SetOptionError) &&
		n.Name == "key_cache_division_limit" && val.Kind() == sqlval.KInt && val.Int64()%100 == 0 {
		return nil, xerr.New(xerr.CodeOption, "Incorrect arguments to SET")
	}
	if e.d == dialect.SQLite && n.Name == "case_sensitive_like" {
		tb, err := e.ev.Truthy(coerceOptionBool(val))
		if err != nil {
			return nil, err
		}
		e.caseSensitiveLike = tb == sqlval.TriTrue
		e.ev.CaseSensitiveLike = e.caseSensitiveLike
	}
	e.globals[n.Name] = val
	return &Result{}, nil
}

// coerceOptionBool maps true/false identifiers (already parsed as column
// refs in option position) and numbers onto booleans.
func coerceOptionBool(v sqlval.Value) sqlval.Value {
	if v.Kind() == sqlval.KText {
		switch strings.ToLower(v.Str()) {
		case "true", "on", "yes":
			return sqlval.Int(1)
		case "false", "off", "no":
			return sqlval.Int(0)
		}
	}
	return v
}

// OptionValue reads back a global option (introspection for tests).
func (e *Engine) OptionValue(name string) (sqlval.Value, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	v, ok := e.globals[name]
	return v, ok
}

// CaseSensitiveLike reports the pragma state.
func (e *Engine) CaseSensitiveLike() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.caseSensitiveLike
}
