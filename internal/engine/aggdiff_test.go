package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dialect"
)

// aggTestSchema builds a table whose group keys carry every shape the
// hash normalizer has to get right: NULLs (one group, not one each),
// case variants under an explicit NOCASE column collation, duplicate
// keys, and value columns mixing ints, reals, huge floats, and NULLs.
func aggTestSchema(t *testing.T, e *Engine) {
	t.Helper()
	execAll(t, e,
		"CREATE TABLE g0(k INT, s TEXT, n TEXT COLLATE NOCASE, v INT, r REAL)",
		`INSERT INTO g0 VALUES
			(1, 'a', 'x', 10, 0.5),
			(1, 'a', 'X', 20, 1.5),
			(2, 'B', 'y', NULL, 1e308),
			(2, 'b', 'Y', 30, 1e308),
			(NULL, NULL, NULL, 40, -1e308),
			(NULL, 'c', 'z', NULL, NULL),
			(3, 'c', 'z', -5, 2.25)`,
		"CREATE TABLE empty0(k INT, v INT)",
	)
}

// TestHashAggVsMaterializedEquivalence is the differential oracle for the
// aggregation and ordering strategies: across all three dialects, a
// spread of handcrafted edge queries and randomly generated
// grouped/ordered/limited queries must return byte-identical results or
// errors on the all-on engine and on every StrategyDiff ablation,
// including HashAgg disabled, which pins the engine to materialized
// grouping and full sorts. Grouped output order is part of the contract
// (first-seen key order), as is ordered output under ORDER BY/LIMIT —
// top-K must reproduce the full sort's stable tie order exactly.
func TestHashAggVsMaterializedEquivalence(t *testing.T) {
	const (
		badArgEmpty   = "SELECT k, SUM(nosuch) FROM empty0 GROUP BY k"
		badArgGrouped = "SELECT k, SUM(nosuch) FROM g0 GROUP BY k"
	)
	handcrafted := []string{
		// NULL group keys collapse into one group on both paths.
		"SELECT k, COUNT(*) FROM g0 GROUP BY k",
		"SELECT s, COUNT(*), SUM(v) FROM g0 GROUP BY s",
		// Column collation folds case into one group ('x' and 'X').
		"SELECT n, COUNT(*) FROM g0 GROUP BY n",
		"SELECT n, MIN(v), MAX(v) FROM g0 GROUP BY n",
		// Multi-key grouping, keys of mixed kinds.
		"SELECT k, s, COUNT(*) FROM g0 GROUP BY k, s",
		// Accumulator semantics: NULLs skipped, AVG int/real split,
		// COUNT(*) vs COUNT(col), huge-float SUM overflow behavior.
		"SELECT k, COUNT(v), COUNT(*), SUM(v), AVG(v), MIN(v), MAX(v) FROM g0 GROUP BY k",
		"SELECT k, SUM(r), AVG(r) FROM g0 GROUP BY k",
		"SELECT SUM(r) FROM g0",
		// Ungrouped aggregates over empty input: one row of NULL/zero.
		"SELECT COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v) FROM empty0",
		// Grouped aggregates over empty input: no rows at all.
		"SELECT k, COUNT(*) FROM empty0 GROUP BY k",
		// HAVING filters groups, including down to none.
		"SELECT k, SUM(v) FROM g0 GROUP BY k HAVING SUM(v) > 25",
		"SELECT k, SUM(v) FROM g0 GROUP BY k HAVING COUNT(*) > 99",
		"SELECT k, COUNT(*) FROM empty0 GROUP BY k HAVING COUNT(*) > 0",
		// A bad aggregate argument binds once per output column, on the
		// first group: no group, no error; with groups, the same error.
		badArgEmpty,
		badArgGrouped,
		// Aggregates of expressions and DISTINCT over grouped output.
		"SELECT k, SUM(v + 1) FROM g0 GROUP BY k",
		"SELECT DISTINCT COUNT(*) FROM g0 GROUP BY k",
		// Top-K shapes: ties on the sort key must keep input order (the
		// heap's eviction boundary), OFFSET shifts the window, LIMIT
		// beyond the table degrades to the full sort.
		"SELECT * FROM g0 ORDER BY k LIMIT 3",
		"SELECT * FROM g0 ORDER BY k DESC LIMIT 3",
		"SELECT * FROM g0 ORDER BY k LIMIT 2 OFFSET 2",
		"SELECT * FROM g0 ORDER BY s, v DESC LIMIT 4",
		"SELECT * FROM g0 ORDER BY n LIMIT 5",
		"SELECT * FROM g0 ORDER BY k LIMIT 0",
		"SELECT * FROM g0 ORDER BY k LIMIT 100",
		"SELECT * FROM g0 ORDER BY k LIMIT 2 OFFSET 100",
		"SELECT * FROM empty0 ORDER BY k LIMIT 3",
		// ORDER BY + LIMIT over grouped results.
		"SELECT k, SUM(v) FROM g0 GROUP BY k ORDER BY k LIMIT 2",
		"SELECT s, COUNT(*) FROM g0 GROUP BY s ORDER BY COUNT(*) DESC LIMIT 2",
	}
	for _, d := range dialect.All {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			sd := NewStrategyDiff(t, d, runQuery)
			for _, e := range sd.Engines() {
				aggTestSchema(t, e)
			}
			for _, q := range handcrafted {
				sd.Check(q)
			}
			for _, e := range sd.Engines() {
				if _, err := e.Exec(badArgEmpty); err != nil {
					t.Errorf("disable=%s: %s: %v, want no error", e.Disabled(), badArgEmpty, err)
				}
				if _, err := e.Exec(badArgGrouped); err == nil || !strings.Contains(err.Error(), "no such column") {
					t.Errorf("disable=%s: %s: %v, want no such column", e.Disabled(), badArgGrouped, err)
				}
			}
			rnd := rand.New(rand.NewSource(10))
			for i := 0; i < 150; i++ {
				sd.Check(randomAggQuery(rnd))
			}
		})
	}
}

// randomAggQuery generates a grouped, ordered, and/or limited query over
// the aggTestSchema table — the shapes whose execution strategy the
// hash-agg/top-K selection changes.
func randomAggQuery(rnd *rand.Rand) string {
	cols := []string{"k", "s", "n", "v", "r"}
	aggs := []string{"COUNT(*)", "COUNT(%s)", "SUM(%s)", "AVG(%s)", "MIN(%s)", "MAX(%s)"}
	col := func() string { return cols[rnd.Intn(len(cols))] }
	agg := func() string {
		a := aggs[rnd.Intn(len(aggs))]
		if strings.Contains(a, "%s") {
			return fmt.Sprintf(a, col())
		}
		return a
	}
	var b strings.Builder
	if rnd.Intn(2) == 0 { // grouped
		nKeys := 1 + rnd.Intn(2)
		keys := make([]string, 0, nKeys)
		for len(keys) < nKeys {
			keys = append(keys, col())
		}
		var proj []string
		proj = append(proj, keys...)
		for n := 1 + rnd.Intn(3); n > 0; n-- {
			proj = append(proj, agg())
		}
		fmt.Fprintf(&b, "SELECT %s FROM g0", strings.Join(proj, ", "))
		if rnd.Intn(3) == 0 {
			fmt.Fprintf(&b, " WHERE %s IS NOT NULL", col())
		}
		fmt.Fprintf(&b, " GROUP BY %s", strings.Join(keys, ", "))
		if rnd.Intn(3) == 0 {
			fmt.Fprintf(&b, " HAVING COUNT(*) > %d", rnd.Intn(3))
		}
		if rnd.Intn(2) == 0 {
			fmt.Fprintf(&b, " ORDER BY %s", keys[rnd.Intn(len(keys))])
			if rnd.Intn(2) == 0 {
				b.WriteString(" DESC")
			}
			if rnd.Intn(2) == 0 {
				fmt.Fprintf(&b, " LIMIT %d", rnd.Intn(4))
			}
		}
		return b.String()
	}
	// Plain ordered/limited scan: small k keeps the top-K heap hot and
	// duplicate sort keys exercise its tie handling.
	fmt.Fprintf(&b, "SELECT * FROM g0")
	if rnd.Intn(3) == 0 {
		fmt.Fprintf(&b, " WHERE %s IS NOT NULL", col())
	}
	fmt.Fprintf(&b, " ORDER BY %s", col())
	if rnd.Intn(3) == 0 {
		b.WriteString(" DESC")
	}
	if rnd.Intn(3) > 0 {
		fmt.Fprintf(&b, ", %s", col())
	}
	fmt.Fprintf(&b, " LIMIT %d", 1+rnd.Intn(6))
	if rnd.Intn(3) == 0 {
		fmt.Fprintf(&b, " OFFSET %d", rnd.Intn(4))
	}
	return b.String()
}
