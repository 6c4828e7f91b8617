package engine

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/dialect"
	"repro/internal/faults"
	"repro/internal/xerr"
)

// scratchSetup builds t0 (8 rows), t1 (4 rows), a view v0 over t0 and a
// view v1 that joins v0 with t1, so that scanning v1 runs a view body two
// levels below the statement.
func scratchSetup(t *testing.T, e *Engine) {
	t.Helper()
	mustExec(t, e, "CREATE TABLE t0(c0 INT, c1 INT, c3 TEXT)")
	mustExec(t, e, "CREATE TABLE t1(c0 INT, c1 TEXT)")
	for i := 0; i < 8; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO t0 VALUES (%d, %d, 'v%d')", i, i*7, i))
	}
	for i := 0; i < 4; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO t1 VALUES (%d, 'w%d')", i*2, i))
	}
	mustExec(t, e, "CREATE VIEW v0 AS SELECT c0, c3 FROM t0 WHERE c0 > 1")
	mustExec(t, e, "CREATE VIEW v1 AS SELECT v0.c0, t1.c1 FROM v0 JOIN t1 ON v0.c0 >= t1.c0")
}

// resultText renders a result for comparison.
func resultText(res *Result) string {
	return fmt.Sprint(res.Columns, res.Rows)
}

// TestScratchViewsMatchFreshEngine runs views nested in joins, in compound
// branches and in other views on one engine whose frames earlier
// statements have filled, and checks every result against a fresh engine,
// compiled and interpreted.
func TestScratchViewsMatchFreshEngine(t *testing.T) {
	queries := []string{
		"SELECT t1.c0, v0.c3 FROM t1 JOIN v0 ON t1.c0 = v0.c0 WHERE v0.c0 > 0",
		"SELECT v0.c0, t0.c1 FROM t0 JOIN v0 ON t0.c0 < v0.c0 WHERE t0.c1 < 30",
		"SELECT c0 FROM v0 WHERE c0 < 6 UNION ALL SELECT t1.c0 FROM t1 JOIN v0 ON t1.c0 = v0.c0",
		"SELECT t1.c1 FROM t1 WHERE c0 > 2 UNION SELECT v1.c1 FROM t0, v1 WHERE t0.c0 = v1.c0",
		"SELECT * FROM v1 JOIN t1 ON v1.c0 = t1.c0",
		"SELECT c0, COUNT(*), MAX(c1) FROM v1 GROUP BY c0 HAVING c0 > 2",
		"SELECT a.c0, b.c0 FROM v0 AS a JOIN v0 AS b ON a.c0 + 1 = b.c0",
	}
	for _, threshold := range []int{0, 1 << 30} {
		t.Run(fmt.Sprintf("threshold=%d", threshold), func(t *testing.T) {
			withThreshold(t, threshold)
			warm := Open(dialect.SQLite)
			scratchSetup(t, warm)
			for round := 0; round < 2; round++ {
				for _, q := range queries {
					fresh := Open(dialect.SQLite)
					scratchSetup(t, fresh)
					want := resultText(mustExec(t, fresh, q))
					if got := resultText(mustExec(t, warm, q)); got != want {
						t.Errorf("round %d: %s\ngot  %s\nwant %s", round, q, got, want)
					}
				}
			}
			if warm.depth != 0 {
				t.Errorf("depth %d after the statements, want 0", warm.depth)
			}
		})
	}
}

// TestScratchAfterCrash raises the sqlite.rowid-alias-crash panic inside a
// view body, below a join whose frame is half filled, and checks that the
// engine's next SELECTs give the results of a fresh engine.
func TestScratchAfterCrash(t *testing.T) {
	e := Open(dialect.SQLite, WithFaults(faults.NewSet(faults.RowidAliasCrash)))
	scratchSetup(t, e)
	mustExec(t, e, "CREATE TABLE t2(c0 INT)")
	mustExec(t, e, "INSERT INTO t2 VALUES (1), (2)")
	mustExec(t, e, "CREATE VIEW v2 AS SELECT * FROM t2")
	mustExec(t, e, "ALTER TABLE t2 RENAME COLUMN c0 TO c9")
	_, err := e.Exec("SELECT t1.c0 FROM t1 JOIN v2 ON t1.c0 = v2.c9")
	if !xerr.Is(err, xerr.CodeCrash) {
		t.Fatalf("crash fault: %v", err)
	}
	if e.depth != 0 {
		t.Fatalf("depth %d after the crash, want 0", e.depth)
	}
	fresh := Open(dialect.SQLite)
	scratchSetup(t, fresh)
	for _, q := range []string{
		"SELECT t1.c0, t0.c3 FROM t1 JOIN t0 ON t1.c0 = t0.c0 WHERE t0.c1 > 0",
		"SELECT * FROM v1",
		"SELECT c1 FROM t0 WHERE c0 >= 3",
	} {
		if got, want := resultText(mustExec(t, e, q)), resultText(mustExec(t, fresh, q)); got != want {
			t.Errorf("%s\ngot  %s\nwant %s", q, got, want)
		}
	}
}

// TestScratchRetentionCapped runs a 300×300 join, whose combo buffers far
// exceed scratchRetainMax, then an 8-row query, and checks that no frame
// keeps a buffer above the cap or a reference into either statement.
func TestScratchRetentionCapped(t *testing.T) {
	e := Open(dialect.SQLite)
	seedJoinPair(t, e, 300)
	mustExec(t, e, "SELECT big0.v, big1.v FROM big0 JOIN big1 ON big0.k < big1.k WHERE big0.k > 1")
	if s := &e.scratch[0]; cap(s.combos[0]) != 0 || cap(s.combos[1]) != 0 {
		t.Errorf("frame keeps combo buffers of %d and %d pointers after the large join, want both dropped",
			cap(s.combos[0]), cap(s.combos[1]))
	}
	mustExec(t, e, "SELECT v FROM big0 WHERE k < 8")
	for i := range e.scratch {
		s := &e.scratch[i]
		if c := maxScratchCap(s); c > scratchRetainMax {
			t.Errorf("frame %d keeps a buffer of %d elements, cap %d", i, c, scratchRetainMax)
		}
		if !scratchClear(s) {
			t.Errorf("frame %d still references the finished statement", i)
		}
	}
}

// maxScratchCap is the largest capacity a frame's combo, relation or
// column buffer retains.
func maxScratchCap(s *stmtScratch) int {
	return max(cap(s.rels), cap(s.relBuf), cap(s.joins), cap(s.on), cap(s.cols),
		cap(s.colFns), cap(s.combos[0]), cap(s.combos[1]),
		cap(s.where.frame.Rows), cap(s.proj.frame.Rows))
}

// scratchClear reports whether every element a frame retains, up to each
// buffer's capacity, is the zero value.
func scratchClear(s *stmtScratch) bool {
	zero := func(v any) bool {
		rv := reflect.ValueOf(v)
		for i := 0; i < rv.Cap(); i++ {
			if !rv.Slice(0, rv.Cap()).Index(i).IsZero() {
				return false
			}
		}
		return true
	}
	for _, x := range append([]exprEval{s.where, s.proj}, s.on[:cap(s.on)]...) {
		if x.e != nil || !reflect.ValueOf(x.env).IsZero() || !zero(x.frame.Rows) {
			return false
		}
	}
	return zero(s.rels) && zero(s.relBuf) && zero(s.joins) && zero(s.cols) &&
		zero(s.colFns) && zero(s.combos[0]) && zero(s.combos[1])
}

// TestFirstSelectAllocs checks that frames cost a fresh engine nothing:
// they are part of the Engine and each buffer is sized on first use as it
// was sized before frames existed, so the first SELECT on a fresh engine
// allocates no more objects than it did then. The bounds are the counts
// measured before frames existed (Go 1.24, linux/amd64).
func TestFirstSelectAllocs(t *testing.T) {
	withThreshold(t, compileMinRows)
	for _, c := range []struct {
		query string
		max   uint64
	}{
		{crossoverSQL, 59},
		{"SELECT * FROM t0", 13},
		{"SELECT c0 FROM t1 WHERE c0 > 1", 20},
		{"SELECT t0.c0, t1.c1 FROM t0 JOIN t1 ON t0.c0 < t1.c0", 30},
		{"SELECT c0, COUNT(*) FROM t0 GROUP BY c0", 85},
		{"SELECT 1", 11},
	} {
		if got := firstSelectAllocs(t, c.query); got > c.max {
			t.Errorf("%s: first SELECT allocates %d objects, want <= %d", c.query, got, c.max)
		}
	}
}

// firstSelectAllocs returns the objects query allocates as the first
// SELECT of a fresh engine holding t0 (8 rows) and t1 (4 rows), the
// fewest over a few fresh engines.
func firstSelectAllocs(t *testing.T, query string) uint64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	best := ^uint64(0)
	for range 5 {
		e := Open(dialect.SQLite)
		mustExec(t, e, "CREATE TABLE t0(c0 INT, c1 INT, c2 REAL, c3 TEXT)")
		mustExec(t, e, "CREATE TABLE t1(c0 INT, c1 TEXT)")
		for i := 0; i < 8; i++ {
			mustExec(t, e, fmt.Sprintf("INSERT INTO t0 VALUES (%d, %d, %d.5, 'v%d')", i, i*7, i, i))
		}
		for i := 0; i < 4; i++ {
			mustExec(t, e, fmt.Sprintf("INSERT INTO t1 VALUES (%d, 'w%d')", i, i))
		}
		sel := parseSelect(t, query)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := e.ExecStmt(sel); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		best = min(best, after.Mallocs-before.Mallocs)
	}
	return best
}
