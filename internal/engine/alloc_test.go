package engine

import (
	"runtime"
	"testing"

	"repro/internal/dialect"
	"repro/internal/sqlast"
	"repro/internal/sqlparse"
	"repro/internal/strategy"
)

// TestScanAllocsFlatInRows is a tripwire for per-row allocations on the
// scan path: scans borrow the heap and filtered combos land in one flat
// slice, so a filtered single-table SELECT allocates the same number of
// objects over 8 rows as over 64 (the compile gate compiles both).
func TestScanAllocsFlatInRows(t *testing.T) {
	withThreshold(t, compileMinRows)
	allocs := func(rows int) float64 {
		e, sel := crossoverEngine(t, rows)
		return testing.AllocsPerRun(20, func() {
			if _, err := e.ExecStmt(sel); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a8, a64 := allocs(8), allocs(64); a8 != a64 {
		t.Errorf("filtered scan allocates %.0f objects at 8 rows but %.0f at 64", a8, a64)
	}
}

// TestSmallJoinBytes is a tripwire for fixed-size join buffers: a level's
// combos are sized from its own L·R+L bound, so a 4×4 nested-loop join
// (a theta ON the hash path cannot take) allocates under 2 KB per query,
// result included. A fixed 8 KB block would fail it. It measures the
// tree walk: a compiled ON adds the compiler's per-program metadata memo
// (about 0.7 KB), which belongs to the compile gate, not to the join.
func TestSmallJoinBytes(t *testing.T) {
	e := Open(dialect.SQLite, WithDisabled(strategy.Compile))
	seedJoinPair(t, e, 4)
	if b := bytesPerQuery(t, e, "SELECT big0.v, big1.v FROM big0 JOIN big1 ON big0.k < big1.k"); b >= 2048 {
		t.Errorf("4x4 nested join allocates %d bytes per query, want < 2048", b)
	}
	if e.Coverage().Snapshot()["join.hash"] != 0 {
		t.Error("theta join took the hash path")
	}
}

// TestLargeEquiJoinBytes is the other side of TestSmallJoinBytes: the
// L·R+L pre-size is capped (joinPresizeMax, nestedPresizeMax), so a
// 300×300 equi-join that keeps 300 combos allocates far less than its
// 90,000 pairs would ask for (an uncapped pre-size alone is 1.4 MB per
// query), on the hash path and on the nested loop.
func TestLargeEquiJoinBytes(t *testing.T) {
	const query = "SELECT big0.v, big1.v FROM big0 JOIN big1 ON big0.k = big1.k"
	for _, c := range []struct {
		name  string
		opts  []Option
		limit uint64
	}{
		{"hash", nil, 256 << 10},
		{"nested", []Option{WithDisabled(strategy.HashJoin)}, 512 << 10},
	} {
		e := Open(dialect.SQLite, c.opts...)
		seedJoinPair(t, e, 300)
		if b := bytesPerQuery(t, e, query); b >= c.limit {
			t.Errorf("%s: 300x300 equi-join allocates %d bytes per query, want < %d", c.name, b, c.limit)
		}
		if hashed := e.Coverage().Snapshot()["join.hash"] != 0; hashed != (c.name == "hash") {
			t.Errorf("%s: took the hash path = %v", c.name, hashed)
		}
	}
}

// bytesPerQuery runs query on e and returns the bytes it allocates per
// execution, averaged over repeated runs on one P.
func bytesPerQuery(t *testing.T, e *Engine, query string) uint64 {
	t.Helper()
	sel := parseSelect(t, query)
	const runs = 100
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := e.ExecStmt(sel); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// parseSelect parses a SQLite SELECT.
func parseSelect(t *testing.T, query string) *sqlast.Select {
	t.Helper()
	st, err := sqlparse.ParseOne(query, dialect.SQLite)
	if err != nil {
		t.Fatal(err)
	}
	return st.(*sqlast.Select)
}

// TestWarmQueryAllocs is a tripwire for per-statement setup allocations:
// on a warmed engine a SELECT reuses its frame (stmtScratch) and binds
// clauses without closures, so a filtered 8-row SELECT (compiled: its 8
// rows reach compileMinRows) and a 4×4 nested-loop join each allocate at
// most the objects measured when the frames were introduced, result and
// compiled programs included.
func TestWarmQueryAllocs(t *testing.T) {
	withThreshold(t, compileMinRows)
	filtered, sel := crossoverEngine(t, 8)
	joined := Open(dialect.SQLite)
	seedJoinPair(t, joined, 4)
	join := parseSelect(t, "SELECT big0.v, big1.v FROM big0 JOIN big1 ON big0.k < big1.k")
	for _, c := range []struct {
		name string
		e    *Engine
		sel  *sqlast.Select
		max  float64
	}{
		{"filtered 8-row SELECT", filtered, sel, 35},
		{"4x4 join", joined, join, 13},
	} {
		a := testing.AllocsPerRun(50, func() {
			if _, err := c.e.ExecStmt(c.sel); err != nil {
				t.Fatal(err)
			}
		})
		if a > c.max {
			t.Errorf("%s allocates %.0f objects per query, want <= %.0f", c.name, a, c.max)
		}
	}
}
