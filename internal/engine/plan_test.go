package engine

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/dialect"
	"repro/internal/faults"
	"repro/internal/strategy"
)

func execAll(t *testing.T, e *Engine, sqls ...string) {
	t.Helper()
	for _, sql := range sqls {
		mustExec(t, e, sql)
	}
}

func planFor(t *testing.T, e *Engine, q string) AccessPath {
	t.Helper()
	paths, err := e.PlanSQL(q)
	if err != nil {
		t.Fatalf("PlanSQL(%s): %v", q, err)
	}
	if len(paths) != 1 {
		t.Fatalf("PlanSQL(%s): %d paths, want 1", q, len(paths))
	}
	return paths[0]
}

// seedTable loads n rows with distinct integer keys and text payloads.
func seedTable(t *testing.T, e *Engine, n int) {
	t.Helper()
	execAll(t, e,
		"CREATE TABLE t0(c0 INT, c1 TEXT)",
		"CREATE INDEX i0 ON t0(c0)",
	)
	var b strings.Builder
	b.WriteString("INSERT INTO t0 VALUES ")
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, 'v%d')", i, i)
	}
	mustExec(t, e, b.String())
}

func TestPlanPointLookup(t *testing.T) {
	for _, d := range dialect.All {
		e := Open(d)
		seedTable(t, e, 50)
		p := planFor(t, e, "SELECT * FROM t0 WHERE c0 = 7")
		if p.Kind != PathIndexEq || p.Index != "i0" || p.EstRows != 1 {
			t.Errorf("%s: plan = %s, want index-eq via i0", d, p.Detail())
		}
		if n := rowCount(t, e, "SELECT * FROM t0 WHERE c0 = 7"); n != 1 {
			t.Errorf("%s: got %d rows", d, n)
		}
	}
}

func TestPlanRangeScan(t *testing.T) {
	for _, d := range dialect.All {
		e := Open(d)
		seedTable(t, e, 50)
		q := "SELECT * FROM t0 WHERE c0 > 10 AND c0 <= 15"
		p := planFor(t, e, q)
		if p.Kind != PathIndexRange || p.EstRows != 5 {
			t.Errorf("%s: plan = %s, want index-range of 5 rows", d, p.Detail())
		}
		if n := rowCount(t, e, q); n != 5 {
			t.Errorf("%s: got %d rows, want 5", d, n)
		}
		// BETWEEN maps onto an inclusive range.
		p = planFor(t, e, "SELECT * FROM t0 WHERE c0 BETWEEN 10 AND 15")
		if p.Kind != PathIndexRange || p.EstRows != 6 {
			t.Errorf("%s: BETWEEN plan = %s, want 6-row range", d, p.Detail())
		}
	}
}

func TestPlanFullScanWhenUnselective(t *testing.T) {
	e := Open(dialect.SQLite)
	seedTable(t, e, 50)
	// Every row matches: scanning the heap is cheaper than probing the
	// index and fetching everything.
	p := planFor(t, e, "SELECT * FROM t0 WHERE c0 >= 0")
	if p.Kind != PathFullScan {
		t.Errorf("plan = %s, want full scan for unselective range", p.Detail())
	}
	// Non-sargable predicates never use an index.
	p = planFor(t, e, "SELECT * FROM t0 WHERE c0 + 1 = 3")
	if p.Kind != PathFullScan {
		t.Errorf("plan = %s, want full scan for non-sargable WHERE", p.Detail())
	}
}

func TestPlanCollationEligibility(t *testing.T) {
	e := Open(dialect.SQLite)
	execAll(t, e,
		"CREATE TABLE t0(c0 TEXT)",
		"CREATE INDEX i0 ON t0(c0)", // BINARY order
		"INSERT INTO t0 VALUES ('a'), ('A'), ('b'), ('B'), ('c'), ('C')",
	)
	// A NOCASE comparison cannot be served by a BINARY-ordered index.
	p := planFor(t, e, "SELECT * FROM t0 WHERE c0 COLLATE NOCASE = 'a'")
	if p.Kind != PathFullScan {
		t.Errorf("plan = %s, want full scan for collation mismatch", p.Detail())
	}
	if n := rowCount(t, e, "SELECT * FROM t0 WHERE c0 COLLATE NOCASE = 'a'"); n != 2 {
		t.Errorf("got %d rows, want 2", n)
	}
	// A BINARY comparison may use it.
	p = planFor(t, e, "SELECT * FROM t0 WHERE c0 = 'a'")
	if p.Kind != PathIndexEq {
		t.Errorf("plan = %s, want index-eq for binary comparison", p.Detail())
	}
}

func TestPlanMySQLMixedClassIneligible(t *testing.T) {
	e := Open(dialect.MySQL)
	execAll(t, e,
		"CREATE TABLE t0(c0 INT)",
		"CREATE INDEX i0 ON t0(c0)",
		// Non-numeric text survives INT affinity, so the raw index order
		// disagrees with MySQL's coercing comparisons.
		"INSERT INTO t0 VALUES (1), (2), ('abc'), (4), (5), (6)",
	)
	p := planFor(t, e, "SELECT * FROM t0 WHERE c0 = 4")
	if p.Kind != PathFullScan {
		t.Errorf("plan = %s, want full scan over mixed-class index", p.Detail())
	}
}

func TestPlanPostgresTextIndex(t *testing.T) {
	e := Open(dialect.Postgres)
	execAll(t, e,
		"CREATE TABLE t0(c0 TEXT)",
		"CREATE INDEX i0 ON t0(c0)",
		"INSERT INTO t0 VALUES ('a'), ('b'), ('c'), ('d'), ('e'), ('f')",
	)
	p := planFor(t, e, "SELECT * FROM t0 WHERE c0 = 'c'")
	if p.Kind != PathIndexEq {
		t.Errorf("plan = %s, want index-eq on text column", p.Detail())
	}
	q := "SELECT * FROM t0 WHERE c0 >= 'b' AND c0 < 'e'"
	if n := rowCount(t, e, q); n != 3 {
		t.Errorf("got %d rows, want 3", n)
	}
}

func TestExplainStatement(t *testing.T) {
	e := Open(dialect.SQLite)
	seedTable(t, e, 30)
	res, err := e.Exec("EXPLAIN SELECT * FROM t0 WHERE c0 = 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || !strings.Contains(res.Rows[0][0].Display(), "SEARCH t0 USING INDEX i0") {
		t.Errorf("EXPLAIN = %v", res.Rows)
	}
	res, err = e.Exec("EXPLAIN QUERY PLAN SELECT * FROM t0")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || !strings.Contains(res.Rows[0][0].Display(), "SCAN t0") {
		t.Errorf("EXPLAIN QUERY PLAN = %v", res.Rows)
	}
	// Compound selects report one line per member.
	res, err = e.Exec("EXPLAIN SELECT * FROM t0 WHERE c0 = 1 UNION SELECT * FROM t0")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("compound EXPLAIN rows = %d, want 2", len(res.Rows))
	}
	if _, err := e.Exec("EXPLAIN CREATE TABLE t9(c0 INT)"); err == nil {
		t.Error("EXPLAIN of DDL should be unsupported")
	}
}

func TestDisabledPlannerForcesFullScan(t *testing.T) {
	e := Open(dialect.SQLite, WithDisabled(strategy.Planner))
	seedTable(t, e, 30)
	p := planFor(t, e, "SELECT * FROM t0 WHERE c0 = 3")
	if p.Kind != PathFullScan {
		t.Errorf("plan = %s, want full scan with planner disabled", p.Detail())
	}
	if n := rowCount(t, e, "SELECT * FROM t0 WHERE c0 = 3"); n != 1 {
		t.Errorf("got %d rows", n)
	}
}

func TestFaultRangeScanBoundary(t *testing.T) {
	e := Open(dialect.SQLite, WithFaults(faults.NewSet(faults.RangeScanBoundary)))
	seedTable(t, e, 40)
	q := "SELECT * FROM t0 WHERE c0 >= 10 AND c0 <= 13"
	p := planFor(t, e, q)
	if p.Kind != PathIndexRange {
		t.Fatalf("plan = %s, want index-range", p.Detail())
	}
	// Inclusive bounds behave exclusively: rows 10 and 13 are dropped.
	if n := rowCount(t, e, q); n != 2 {
		t.Errorf("got %d rows, want 2 under boundary fault", n)
	}
	// The fault only distorts index ranges; a healthy engine returns 4.
	sane := Open(dialect.SQLite)
	seedTable(t, sane, 40)
	if n := rowCount(t, sane, q); n != 4 {
		t.Errorf("fault-free engine got %d rows, want 4", n)
	}
}

func TestFaultStaleIndexAfterUpdate(t *testing.T) {
	e := Open(dialect.SQLite, WithFaults(faults.NewSet(faults.StaleIndexAfterUpdate)))
	seedTable(t, e, 40)
	mustExec(t, e, "UPDATE t0 SET c0 = 99 WHERE c0 = 7")
	// The updated row exists in the heap but has no index entry, so the
	// index-eq path misses it.
	if n := rowCount(t, e, "SELECT * FROM t0 WHERE c0 = 99"); n != 0 {
		t.Errorf("got %d rows via stale index, want 0", n)
	}
	// A full scan still sees it: the heap row is intact.
	base := rowCount(t, e, "SELECT * FROM t0 WHERE c0 + 0 = 99")
	if base != 1 {
		t.Errorf("heap row missing: got %d rows via full scan, want 1", base)
	}
}

func TestFaultPlannerCollationConfusion(t *testing.T) {
	e := Open(dialect.SQLite, WithFaults(faults.NewSet(faults.PlannerCollationConfusion)))
	execAll(t, e,
		"CREATE TABLE t0(c0 TEXT)",
		"CREATE INDEX i0 ON t0(c0)",
		"INSERT INTO t0 VALUES ('a'), ('A'), ('b'), ('B'), ('c'), ('C')",
	)
	q := "SELECT * FROM t0 WHERE c0 COLLATE NOCASE = 'a'"
	p := planFor(t, e, q)
	if p.Kind != PathIndexEq {
		t.Fatalf("plan = %s, want the confused index-eq path", p.Detail())
	}
	// The BINARY-ordered probe finds only the exact-case variant.
	if n := rowCount(t, e, q); n != 1 {
		t.Errorf("got %d rows, want 1 under collation confusion", n)
	}
}

func TestPlanInheritanceParentUnplanned(t *testing.T) {
	e := Open(dialect.Postgres)
	execAll(t, e,
		"CREATE TABLE t0(c0 INT)",
		"CREATE TABLE t1(c0 INT) INHERITS (t0)",
		"CREATE INDEX i0 ON t0(c0)",
		"INSERT INTO t0 VALUES (1), (2), (3), (4), (5), (6)",
		"INSERT INTO t1 VALUES (3)",
	)
	// Parent scans include child rows the parent's index has never seen:
	// the planner must stay on the full-scan path.
	p := planFor(t, e, "SELECT * FROM t0 WHERE c0 = 3")
	if p.Kind != PathFullScan {
		t.Errorf("plan = %s, want full scan on inheritance parent", p.Detail())
	}
	if n := rowCount(t, e, "SELECT * FROM t0 WHERE c0 = 3"); n != 2 {
		t.Errorf("got %d rows, want 2 (parent + child)", n)
	}
}

// TestExplainTopKMatchesExecutor is the regression test for EXPLAIN
// printing ORDER USING TOP-K when k reaches the row count, where the
// executor falls through to the full sort: on exact single-table
// estimates, EXPLAIN shows TOP-K exactly when executing the query takes
// the heap path.
func TestExplainTopKMatchesExecutor(t *testing.T) {
	e := Open(dialect.SQLite)
	execAll(t, e,
		"CREATE TABLE t(c0 INT, c1 TEXT)",
		"INSERT INTO t VALUES (3, 'a'), (1, 'b'), (2, 'c')",
	)
	for _, tc := range []struct {
		sql  string
		topK bool
	}{
		{"SELECT c0 FROM t ORDER BY c0 LIMIT 2", true},
		{"SELECT c0 FROM t ORDER BY c0 LIMIT 3", false},
		{"SELECT c0 FROM t ORDER BY c0 LIMIT 5", false},
		{"SELECT c0 FROM t ORDER BY c0 LIMIT 1 OFFSET 1", true},
		{"SELECT c0 FROM t ORDER BY c0 LIMIT 2 OFFSET 1", false},
		{"SELECT COUNT(*) AS n FROM t ORDER BY n LIMIT 1", false},
		{"SELECT t.c0 FROM t, t AS u ORDER BY t.c0 LIMIT 5", true},
	} {
		res, err := e.Exec("EXPLAIN " + tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		explained := false
		for _, row := range res.Rows {
			explained = explained || strings.Contains(row[0].Display(), "TOP-K")
		}
		before := e.Coverage().Snapshot()["dql.order-topk"]
		if _, err := e.Exec(tc.sql); err != nil {
			t.Fatal(err)
		}
		executed := e.Coverage().Snapshot()["dql.order-topk"] > before
		if explained != tc.topK || executed != tc.topK {
			t.Errorf("%s: EXPLAIN TOP-K %v, executor TOP-K %v, want %v", tc.sql, explained, executed, tc.topK)
		}
	}
}
