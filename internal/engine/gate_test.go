package engine

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/dialect"
	"repro/internal/sqlast"
	"repro/internal/sqlparse"
	"repro/internal/strategy"
)

// withThreshold sets compileThreshold for the rest of the calling test or
// benchmark and restores the package-test default (0, compile always)
// afterwards. Callers must not run in parallel with other tests.
func withThreshold(tb testing.TB, n int) {
	tb.Helper()
	compileThreshold = n
	tb.Cleanup(func() { compileThreshold = 0 })
}

// crossoverSQL is the compile-gate workload: a 4-leaf WHERE predicate that
// every row passes, plus 3 projected columns, the shape of a pivot query
// over one generated table.
const crossoverSQL = "SELECT c0, c1 + 1, c3 FROM t0 WHERE c0 >= 0 AND c1 < 100000 AND (c2 IS NOT NULL OR c3 = 'x')"

// crossoverEngine opens a SQLite engine holding t0 with rows rows.
func crossoverEngine(tb testing.TB, rows int, opts ...Option) (*Engine, *sqlast.Select) {
	tb.Helper()
	e := Open(dialect.SQLite, opts...)
	stmts := []string{"CREATE TABLE t0(c0 INT, c1 INT, c2 REAL, c3 TEXT)"}
	for i := 0; i < rows; i++ {
		stmts = append(stmts, fmt.Sprintf("INSERT INTO t0 VALUES (%d, %d, %d.5, 'v%d')", i, i*7, i, i))
	}
	for _, s := range stmts {
		if _, err := e.Exec(s); err != nil {
			tb.Fatal(err)
		}
	}
	st, err := sqlparse.ParseOne(crossoverSQL, dialect.SQLite)
	if err != nil {
		tb.Fatal(err)
	}
	return e, st.(*sqlast.Select)
}

// crossoverModes are the three evaluation policies BenchmarkCompileCrossover
// compares: the production gate, compile at every row count, and the tree
// walk at every row count.
var crossoverModes = []struct {
	name      string
	threshold int
	opts      []Option
}{
	{"gated", compileMinRows, nil},
	{"forced-compile", 0, nil},
	{"tree-walk", 0, []Option{WithDisabled(strategy.Compile)}},
}

// BenchmarkCompileCrossover measures one pivot-shaped query (crossoverSQL)
// at 1 to 128 rows under each evaluation policy: the forced-compile and
// tree-walk columns locate the crossover compileMinRows is set from, and
// the gated column shows the engine tracking the faster of the two. Its
// self-timed table (logged with -v) interleaves the three policies and
// keeps each one's best of several rounds, which is what DESIGN.md
// records. The tripwire (the -benchtime=1x CI smoke runs it): at 128 rows
// the gated engine must be at least 1.3x faster than the tree walk, and
// at 2 rows it must allocate no more than the tree walk.
func BenchmarkCompileCrossover(b *testing.B) {
	rowCounts := []int{1, 2, 4, 6, 8, 12, 16, 32, 64, 128}
	for _, rows := range rowCounts {
		for _, m := range crossoverModes {
			b.Run(fmt.Sprintf("rows=%d/%s", rows, m.name), func(b *testing.B) {
				withThreshold(b, m.threshold)
				e, sel := crossoverEngine(b, rows, m.opts...)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := e.ExecStmt(sel); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}

	withThreshold(b, 0)
	type cell struct {
		best   time.Duration
		allocs float64
	}
	table := make(map[int][]cell, len(rowCounts))
	for _, rows := range rowCounts {
		engines := make([]*Engine, len(crossoverModes))
		var sel *sqlast.Select
		for i, m := range crossoverModes {
			engines[i], sel = crossoverEngine(b, rows, m.opts...)
		}
		run := func(i int) {
			compileThreshold = crossoverModes[i].threshold
			if _, err := engines[i].ExecStmt(sel); err != nil {
				b.Fatal(err)
			}
		}
		cells := make([]cell, len(crossoverModes))
		for i := range cells {
			cells[i] = cell{best: time.Duration(1<<63 - 1), allocs: testing.AllocsPerRun(10, func() { run(i) })}
		}
		iters := 4000 / rows
		for round := 0; round < 5; round++ {
			for i := range cells {
				start := time.Now()
				for n := 0; n < iters; n++ {
					run(i)
				}
				if d := time.Since(start) / time.Duration(iters); d < cells[i].best {
					cells[i].best = d
				}
			}
		}
		table[rows] = cells
	}
	var out strings.Builder
	fmt.Fprintf(&out, "%6s  %22s  %22s  %22s\n", "rows", "gated", "forced-compile", "tree-walk")
	for _, rows := range rowCounts {
		fmt.Fprintf(&out, "%6d", rows)
		for _, c := range table[rows] {
			fmt.Fprintf(&out, "  %10.1f µs %4.0f allocs", float64(c.best)/1e3, c.allocs)
		}
		out.WriteString("\n")
	}
	b.Log("best of 5 interleaved rounds per cell:\n" + out.String())

	const gated, walk = 0, 2
	if r := float64(table[128][walk].best) / float64(table[128][gated].best); r < 1.3 {
		b.Errorf("gated engine only %.2fx the tree walk at 128 rows (tripwire 1.3x)", r)
	}
	if g, w := table[2][gated].allocs, table[2][walk].allocs; g > w {
		b.Errorf("gated engine allocates %.0f/op at 2 rows, more than the tree walk's %.0f", g, w)
	}
}

// TestBindParity pins that the compile gate never changes which error a
// statement raises: bad, ambiguous and doubled bad references, and
// SQLite's double-quoted MaybeString token, raise byte-identical errors
// (or identical rows) on a gated engine, a forced-compile engine and an
// engine with compilation disabled — over an empty table, where the tree
// walk never evaluates a clause, and over a one-row table. Each clause
// kind the gate covers (WHERE, projection, JOIN ON, GROUP BY, HAVING,
// aggregate arguments) appears at least once.
func TestBindParity(t *testing.T) {
	queries := []string{
		"SELECT nosuch FROM %[1]s",
		"SELECT c0 FROM %[1]s WHERE nosuch > 1",
		"SELECT c0 FROM %[1]s WHERE bad1 = bad2",
		"SELECT c0 + bad1, bad2 FROM %[1]s",
		"SELECT c0 FROM %[1]s, other",
		"SELECT %[1]s.c0 FROM %[1]s, other WHERE c0 = 1",
		"SELECT %[1]s.c0 FROM %[1]s JOIN other ON %[1]s.nosuch = other.c0",
		"SELECT %[1]s.c0 FROM %[1]s JOIN other ON c0 = 1",
		"SELECT c1 FROM %[1]s GROUP BY nosuch",
		"SELECT c1, COUNT(*) FROM %[1]s GROUP BY c1 HAVING MAX(nosuch) > 0",
		"SELECT SUM(nosuch) FROM %[1]s",
		`SELECT c0 FROM %[1]s WHERE "nosuch" = 'nosuch'`,
		`SELECT "nosuch", c1 FROM %[1]s`,
		`SELECT %[1]s.c0 FROM %[1]s, other WHERE "c0" = 1`,
	}
	withThreshold(t, compileMinRows)
	for _, d := range dialect.All {
		gated := Open(d)
		off := Open(d, WithDisabled(strategy.Compile))
		for _, e := range []*Engine{gated, off} {
			execAll(t, e,
				"CREATE TABLE empty0(c0 INT, c1 TEXT)",
				"CREATE TABLE one1(c0 INT, c1 TEXT)",
				"INSERT INTO one1 VALUES (1, 'a')",
				"CREATE TABLE other(c0 INT)",
				"INSERT INTO other VALUES (1)",
			)
		}
		for _, table := range []string{"empty0", "one1"} {
			for _, q := range queries {
				q = fmt.Sprintf(q, table)
				compileThreshold = compileMinRows
				want := renderTyped(gated, q)
				compileThreshold = 0
				if got := renderTyped(gated, q); got != want {
					t.Errorf("%s: %s: forced compile = %q, gated = %q", d, q, got, want)
				}
				if got := renderTyped(off, q); got != want {
					t.Errorf("%s: %s: compile disabled = %q, gated = %q", d, q, got, want)
				}
				if strings.Contains(q, "bad1") && !strings.Contains(want, "bad1") {
					t.Errorf("%s: %s = %q, want the first bad reference reported", d, q, want)
				}
			}
		}
	}
}

// TestGateAllocs pins the gate's point end to end: on a table below
// compileMinRows the all-on engine interprets, so a WHERE plus projection
// allocates no more than with compilation disabled; on 128 rows it takes
// the compiled path, allocating exactly what a forced-compile engine does.
func TestGateAllocs(t *testing.T) {
	withThreshold(t, compileMinRows)
	allocs := func(rows, threshold int, opts ...Option) float64 {
		compileThreshold = threshold
		e, sel := crossoverEngine(t, rows, opts...)
		return testing.AllocsPerRun(20, func() {
			if _, err := e.ExecStmt(sel); err != nil {
				t.Fatal(err)
			}
		})
	}
	off := WithDisabled(strategy.Compile)
	if on, walk := allocs(4, compileMinRows), allocs(4, compileMinRows, off); on > walk {
		t.Errorf("4 rows: all-on engine allocates %.0f/op, compile disabled %.0f/op", on, walk)
	}
	on, forced, walk := allocs(128, compileMinRows), allocs(128, 0), allocs(128, 0, off)
	if on != forced || on == walk {
		t.Errorf("128 rows: all-on %.0f allocs/op, forced compile %.0f, tree walk %.0f; want all-on = forced compile", on, forced, walk)
	}
}
