package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dialect"
	"repro/internal/strategy"
)

// joinTestSchema builds three tables with overlapping key domains,
// duplicate keys, NULLs, and case/trailing-space text variants — the
// shapes hash-key normalization has to get right.
func joinTestSchema(t *testing.T, e *Engine) {
	t.Helper()
	execAll(t, e,
		"CREATE TABLE j0(k INT, s TEXT, v INT)",
		"CREATE TABLE j1(k INT, s TEXT, v INT)",
		"CREATE TABLE j2(k INT, s TEXT)",
		"INSERT INTO j0 VALUES (1, 'a', 10), (2, 'B', 20), (2, 'b ', 21), (3, NULL, 30), (NULL, 'c', 40)",
		"INSERT INTO j1 VALUES (1, 'A', 100), (2, 'b', 200), (4, 'd', 400), (NULL, NULL, 500), (2, 'a', 201)",
		"INSERT INTO j2 VALUES (1, 'a'), (3, 'C'), (5, 'e')",
	)
}

// runQuery returns a canonical string form of a query result (or its
// error) for byte-identical comparison across engines.
func runQuery(e *Engine, sql string) string {
	res, err := e.Exec(sql)
	if err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	b.WriteString(strings.Join(res.Columns, "|"))
	b.WriteString("\n")
	for _, row := range res.Rows {
		for i, v := range row {
			if i > 0 {
				b.WriteString("|")
			}
			b.WriteString(v.Literal())
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestHashVsNestedEquivalence is the differential oracle for the join
// strategies: across all three dialects, a spread of handcrafted and
// randomly generated join queries must return byte-identical results on
// the all-on engine and on every StrategyDiff ablation, including
// HashJoin disabled, which pins every level to the nested loop. Joins are
// unordered, yet both paths must agree on order: the nested loop's combo
// order is the specified one and the hash path preserves it.
func TestHashVsNestedEquivalence(t *testing.T) {
	handcrafted := []string{
		// Pure equi inner joins, single and multi key.
		"SELECT * FROM j0 JOIN j1 ON j0.k = j1.k",
		"SELECT * FROM j0 JOIN j1 ON j0.k = j1.k AND j0.s = j1.s",
		"SELECT * FROM j0 JOIN j1 ON j1.k = j0.k",
		// Equi keys plus a non-key residual conjunct.
		"SELECT * FROM j0 JOIN j1 ON j0.k = j1.k AND j0.v < j1.v",
		// LEFT JOIN: unmatched left rows survive with NULLs.
		"SELECT * FROM j0 LEFT JOIN j1 ON j0.k = j1.k",
		"SELECT * FROM j0 LEFT JOIN j1 ON j0.k = j1.k AND j0.s = j1.s",
		"SELECT * FROM j0 LEFT JOIN j1 ON j0.k = j1.k WHERE j1.v IS NULL",
		// Three-way chains, mixed kinds.
		"SELECT * FROM j0 JOIN j1 ON j0.k = j1.k JOIN j2 ON j1.k = j2.k",
		"SELECT * FROM j0 LEFT JOIN j1 ON j0.k = j1.k LEFT JOIN j2 ON j0.k = j2.k",
		"SELECT * FROM j0 JOIN j1 ON j0.k = j1.k LEFT JOIN j2 ON j1.s = j2.s",
		// Implicit cross join with WHERE-derived keys.
		"SELECT * FROM j0, j1 WHERE j0.k = j1.k",
		"SELECT * FROM j0, j1 WHERE j0.k = j1.k AND j0.v < j1.v",
		"SELECT * FROM j0, j1, j2 WHERE j0.k = j1.k AND j1.k = j2.k",
		// Theta-only ON: no keys, nested loop on both engines.
		"SELECT * FROM j0 JOIN j1 ON j0.k < j1.k",
		// Aggregation and DISTINCT over joined rows.
		"SELECT COUNT(*), MIN(j1.v) FROM j0 JOIN j1 ON j0.k = j1.k",
		"SELECT DISTINCT j0.k FROM j0 JOIN j1 ON j0.k = j1.k",
	}
	for _, d := range dialect.All {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			sd := NewStrategyDiff(t, d, runQuery)
			for _, e := range sd.Engines() {
				joinTestSchema(t, e)
			}
			for _, q := range handcrafted {
				sd.Check(q)
			}
			rnd := rand.New(rand.NewSource(8))
			for i := 0; i < 150; i++ {
				sd.Check(randomJoinQuery(rnd))
			}
		})
	}
}

// randomJoinQuery generates a two- or three-way join whose ON mixes equi
// keys with residual comparisons, occasionally LEFT, occasionally via an
// implicit cross join plus WHERE.
func randomJoinQuery(rnd *rand.Rand) string {
	tables := []string{"j0", "j1", "j2"}
	rnd.Shuffle(len(tables), func(i, j int) { tables[i], tables[j] = tables[j], tables[i] })
	nway := 2 + rnd.Intn(2)
	cols := func(tbl string) []string {
		if tbl == "j2" {
			return []string{"k", "s"}
		}
		return []string{"k", "s", "v"}
	}
	cond := func(a, b string) string {
		ca := cols(a)[rnd.Intn(len(cols(a)))]
		cb := cols(b)[rnd.Intn(len(cols(b)))]
		op := []string{"=", "=", "=", "<", "<=", "<>"}[rnd.Intn(6)]
		return fmt.Sprintf("%s.%s %s %s.%s", a, ca, op, b, cb)
	}
	onClause := func(a, b string) string {
		c := cond(a, b)
		for rnd.Intn(3) == 0 {
			c += " AND " + cond(a, b)
		}
		return c
	}
	if rnd.Intn(4) == 0 { // implicit cross join + WHERE
		from := strings.Join(tables[:nway], ", ")
		var conds []string
		for i := 1; i < nway; i++ {
			conds = append(conds, onClause(tables[i-1], tables[i]))
		}
		return fmt.Sprintf("SELECT * FROM %s WHERE %s", from, strings.Join(conds, " AND "))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "SELECT * FROM %s", tables[0])
	for i := 1; i < nway; i++ {
		kind := "JOIN"
		if rnd.Intn(3) == 0 {
			kind = "LEFT JOIN"
		}
		fmt.Fprintf(&b, " %s %s ON %s", kind, tables[i], onClause(tables[i-1], tables[i]))
	}
	return b.String()
}

// TestHashJoinEdgeCases pins the tricky key-normalization rows: NULL keys
// never match (but LEFT-preserve), cross-collation ON folds case, and
// affinity-mismatched key columns still compare numerically.
func TestHashJoinEdgeCases(t *testing.T) {
	t.Run("null keys", func(t *testing.T) {
		for _, d := range dialect.All {
			e := Open(d)
			execAll(t, e,
				"CREATE TABLE a(k INT)", "CREATE TABLE b(k INT)",
				"INSERT INTO a VALUES (1), (NULL), (2)",
				"INSERT INTO b VALUES (NULL), (1), (NULL)",
			)
			if n := rowCount(t, e, "SELECT * FROM a JOIN b ON a.k = b.k"); n != 1 {
				t.Errorf("%s: NULL keys joined: got %d rows, want 1", d, n)
			}
			if n := rowCount(t, e, "SELECT * FROM a LEFT JOIN b ON a.k = b.k"); n != 3 {
				t.Errorf("%s: LEFT JOIN over NULL keys: got %d rows, want 3", d, n)
			}
		}
	})
	t.Run("cross collation", func(t *testing.T) {
		e := Open(dialect.SQLite)
		execAll(t, e,
			"CREATE TABLE a(s TEXT)", "CREATE TABLE b(s TEXT COLLATE NOCASE)",
			"INSERT INTO a VALUES ('x'), ('Y')",
			"INSERT INTO b VALUES ('X'), ('y')",
		)
		// ON collation comes from the left operand's column (BINARY): no
		// fold, no matches.
		if n := rowCount(t, e, "SELECT * FROM a JOIN b ON a.s = b.s"); n != 0 {
			t.Errorf("BINARY-collated join matched %d rows, want 0", n)
		}
		// NOCASE (from b's column or an explicit COLLATE) folds case.
		if n := rowCount(t, e, "SELECT * FROM b JOIN a ON b.s = a.s"); n != 2 {
			t.Errorf("NOCASE-collated join matched %d rows, want 2", n)
		}
		if n := rowCount(t, e, "SELECT * FROM a JOIN b ON a.s = b.s COLLATE NOCASE"); n != 2 {
			t.Errorf("explicit COLLATE NOCASE join matched %d rows, want 2", n)
		}
		// RTRIM ignores trailing spaces.
		execAll(t, e,
			"CREATE TABLE c(s TEXT)",
			"INSERT INTO c VALUES ('x   '), ('z')",
		)
		if n := rowCount(t, e, "SELECT * FROM a JOIN c ON a.s = c.s COLLATE RTRIM"); n != 1 {
			t.Errorf("COLLATE RTRIM join matched %d rows, want 1", n)
		}
	})
	t.Run("affinity mismatch", func(t *testing.T) {
		for _, d := range []dialect.Dialect{dialect.SQLite, dialect.MySQL} {
			e := Open(d)
			execAll(t, e,
				"CREATE TABLE a(k INT)", "CREATE TABLE b(k TEXT)",
				"INSERT INTO a VALUES (1), (2), (3)",
				"INSERT INTO b VALUES ('1'), ('2'), ('x')",
			)
			eOff := Open(d, WithDisabled(strategy.HashJoin))
			execAll(t, eOff,
				"CREATE TABLE a(k INT)", "CREATE TABLE b(k TEXT)",
				"INSERT INTO a VALUES (1), (2), (3)",
				"INSERT INTO b VALUES ('1'), ('2'), ('x')",
			)
			q := "SELECT * FROM a JOIN b ON a.k = b.k"
			if got, want := runQuery(e, q), runQuery(eOff, q); got != want {
				t.Errorf("%s: affinity-mismatched join diverges:\nhash:\n%s\nnested:\n%s", d, got, want)
			}
		}
	})
	t.Run("empty build side", func(t *testing.T) {
		for _, d := range dialect.All {
			e := Open(d)
			execAll(t, e,
				"CREATE TABLE a(k INT)", "CREATE TABLE b(k INT)",
				"INSERT INTO a VALUES (1), (2)",
			)
			if n := rowCount(t, e, "SELECT * FROM a JOIN b ON a.k = b.k"); n != 0 {
				t.Errorf("%s: join against empty table returned %d rows", d, n)
			}
			if n := rowCount(t, e, "SELECT * FROM a LEFT JOIN b ON a.k = b.k"); n != 2 {
				t.Errorf("%s: LEFT JOIN against empty table returned %d rows, want 2", d, n)
			}
			if n := rowCount(t, e, "SELECT * FROM b JOIN a ON b.k = a.k"); n != 0 {
				t.Errorf("%s: join from empty table returned %d rows", d, n)
			}
		}
	})
}

// seedJoinPair loads two plain tables big enough that the cost model
// always picks hash over nested for their equi-join.
func seedJoinPair(t *testing.T, e *Engine, rows int) {
	t.Helper()
	execAll(t, e,
		"CREATE TABLE big0(k INT, v TEXT)",
		"CREATE TABLE big1(k INT, v TEXT)",
	)
	for _, tbl := range []string{"big0", "big1"} {
		var b strings.Builder
		fmt.Fprintf(&b, "INSERT INTO %s VALUES ", tbl)
		for i := 0; i < rows; i++ {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, 'v%d')", i, i)
		}
		mustExec(t, e, b.String())
	}
}

// TestJoinStrategyExplain asserts the planner surfaces the chosen join
// strategy — HASH, INDEX LOOKUP, or NESTED LOOP — through Plan and
// EXPLAIN QUERY PLAN, and that the ablation pins everything to nested.
func TestJoinStrategyExplain(t *testing.T) {
	e := Open(dialect.SQLite)
	seedJoinPair(t, e, 40)

	// Index lookup pays off when a small outer side probes a large indexed
	// inner table (its cost scales with the outer row count).
	execAll(t, e,
		"CREATE TABLE probe(k INT)",
		"INSERT INTO probe VALUES (1), (2), (3)",
		"CREATE INDEX ib1 ON big1(k)",
	)
	paths, err := e.PlanSQL("SELECT * FROM probe JOIN big1 ON probe.k = big1.k")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 || paths[0].Join != "" {
		t.Fatalf("paths = %+v, want 2 with no join tag on the driving relation", paths)
	}
	if paths[1].Join != "INDEX LOOKUP" || !strings.Contains(paths[1].JoinCond, "INDEX ib1") {
		t.Errorf("indexed equi-join plan = %s, want INDEX LOOKUP via ib1", paths[1].Detail())
	}

	mustExec(t, e, "DROP INDEX ib1")
	paths, err = e.PlanSQL("SELECT * FROM big0 JOIN big1 ON big0.k = big1.k")
	if err != nil {
		t.Fatal(err)
	}
	if paths[1].Join != "HASH" || !strings.Contains(paths[1].JoinCond, "big0.k = big1.k") {
		t.Errorf("equi-join plan = %s, want HASH on big0.k = big1.k", paths[1].Detail())
	}
	if !strings.Contains(paths[1].Detail(), "JOIN USING HASH") {
		t.Errorf("Detail() = %q, want JOIN USING HASH", paths[1].Detail())
	}

	paths, err = e.PlanSQL("SELECT * FROM big0 JOIN big1 ON big0.k < big1.k")
	if err != nil {
		t.Fatal(err)
	}
	if paths[1].Join != "NESTED LOOP" {
		t.Errorf("theta-join plan = %s, want NESTED LOOP", paths[1].Detail())
	}

	// EXPLAIN QUERY PLAN carries the same tag through SQL.
	res, err := e.Exec("EXPLAIN QUERY PLAN SELECT * FROM big0 JOIN big1 ON big0.k = big1.k")
	if err != nil {
		t.Fatal(err)
	}
	var joined []string
	for _, row := range res.Rows {
		joined = append(joined, row[0].Display())
	}
	all := strings.Join(joined, "\n")
	if !strings.Contains(all, "JOIN USING HASH") {
		t.Errorf("EXPLAIN QUERY PLAN = %q, want JOIN USING HASH line", all)
	}

	// Ablation: disabling strategy.HashJoin pins the annotation to nested loop too.
	off := Open(dialect.SQLite, WithDisabled(strategy.HashJoin))
	seedJoinPair(t, off, 40)
	paths, err = off.PlanSQL("SELECT * FROM big0 JOIN big1 ON big0.k = big1.k")
	if err != nil {
		t.Fatal(err)
	}
	if paths[1].Join != "NESTED LOOP" {
		t.Errorf("ablated plan = %s, want NESTED LOOP", paths[1].Detail())
	}
}

// TestJoinCostModelCrossover pins the measured cost crossover: joins up
// to 6×6 keep the nested loop (the hash build's fixed cost dominates),
// larger ones flip to hash.
func TestJoinCostModelCrossover(t *testing.T) {
	a := &joinAnalysis{keys: []equiKey{{}}}
	if s, _ := chooseJoinStrategy(a, 6, 6); s != JoinNested {
		t.Errorf("6x6 equi-join chose %s, want nested (cost 36 vs 36)", s)
	}
	if s, _ := chooseJoinStrategy(a, 7, 7); s != JoinHash {
		t.Errorf("7x7 equi-join chose %s, want hash (cost 38 vs 49)", s)
	}
	if s, _ := chooseJoinStrategy(a, 1000, 1000); s != JoinHash {
		t.Errorf("1000x1000 equi-join chose %s, want hash", s)
	}
}

// TestHashJoinRuntimeCoverage proves the executor actually runs the hash
// and index-lookup paths (not just the planner annotation) via the
// engine's coverage counters.
func TestHashJoinRuntimeCoverage(t *testing.T) {
	e := Open(dialect.SQLite)
	seedJoinPair(t, e, 40)
	if n := rowCount(t, e, "SELECT * FROM big0 JOIN big1 ON big0.k = big1.k"); n != 40 {
		t.Fatalf("equi-join returned %d rows, want 40", n)
	}
	if e.Coverage().Snapshot()["join.hash"] == 0 {
		t.Error("hash join path never executed")
	}
	execAll(t, e,
		"CREATE TABLE probe(k INT)",
		"INSERT INTO probe VALUES (1), (2), (3)",
		"CREATE INDEX ib1 ON big1(k)",
	)
	if n := rowCount(t, e, "SELECT * FROM probe JOIN big1 ON probe.k = big1.k"); n != 3 {
		t.Fatalf("indexed equi-join returned %d rows, want 3", n)
	}
	if e.Coverage().Snapshot()["join.index-lookup"] == 0 {
		t.Error("index-lookup join path never executed")
	}

	off := Open(dialect.SQLite, WithDisabled(strategy.HashJoin))
	seedJoinPair(t, off, 40)
	if n := rowCount(t, off, "SELECT * FROM big0 JOIN big1 ON big0.k = big1.k"); n != 40 {
		t.Fatalf("ablated equi-join returned %d rows, want 40", n)
	}
	cov := off.Coverage().Snapshot()
	if cov["join.hash"] != 0 || cov["join.index-lookup"] != 0 {
		t.Error("HashJoin-disabled engine still took a non-nested join path")
	}
}
