package engine_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/dialect"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/sqlast"
	"repro/internal/sqlval"
)

// replayDiff builds the same random database (fault-free) on every engine
// of a StrategyDiff: the all-on engine and one per disabled set. The
// statement trace is generated once and executed on all of them, so
// catalog, heap, and index state agree exactly.
func replayDiff(t *testing.T, d dialect.Dialect, seed int64) *engine.StrategyDiff {
	t.Helper()
	sd := engine.NewStrategyDiff(t, d, renderMultiset)
	sd.Context = fmt.Sprintf("seed %d: ", seed)
	sg := &gen.StateGen{Rnd: gen.NewRand(d, seed), E: sd.On, MinRows: 2, MaxRows: 10, MaxTables: 3}
	apply := func(st sqlast.Stmt) error {
		sql := sqlast.SQL(st, d)
		_, want := sd.On.Exec(sql)
		for _, e := range sd.Off {
			if _, err := e.Exec(sql); (err == nil) != (want == nil) {
				t.Fatalf("seed %d: state statement diverged with %s disabled\nsql: %s\nall on: %v\ndisabled: %v",
					seed, e.Disabled(), sql, want, err)
			}
		}
		return nil
	}
	if err := sg.BuildDatabase(apply); err != nil {
		t.Fatalf("seed %d: build: %v", seed, err)
	}
	return sd
}

// renderMultiset is the planner suite's comparison: an order-insensitive
// row multiset, or only the fact of an error (runtime errors may surface
// on different rows when the access path changes the visit order).
func renderMultiset(e *engine.Engine, sql string) string {
	res, err := e.Exec(sql)
	if err != nil {
		return "error"
	}
	lines := make([]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = v.String()
		}
		lines = append(lines, strings.Join(parts, "|"))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestPlannerDifferential is the planner's primary correctness oracle: for
// generated queries over indexed random schemas, the planner-chosen access
// path must produce exactly the full-scan result set, in fault-free mode,
// across all three dialects — and so must every other StrategyDiff
// ablation. Both systematic sargable probes (every column
// × every stored value × every comparison operator) and random generated
// WHERE clauses run against every database.
func TestPlannerDifferential(t *testing.T) {
	seeds := int64(20)
	if testing.Short() {
		seeds = 4
	}
	ops := []string{"=", "<", "<=", ">", ">="}
	for _, d := range dialect.All {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			t.Parallel()
			indexPaths := 0
			for seed := int64(1); seed <= seeds; seed++ {
				sd := replayDiff(t, d, seed)
				planned := sd.On
				rnd := gen.NewRand(d, seed+1000)

				for _, table := range planned.Tables() {
					info, err := planned.Describe(table)
					if err != nil {
						continue
					}
					rows := planned.RawRows(table)
					// Systematic sargable probes over stored values (and
					// mutations of them, to land beside index boundaries).
					for ci, col := range info.Columns {
						for ri, row := range rows {
							if ri >= 4 {
								break
							}
							if ci >= len(row) || row[ci].IsNull() {
								continue
							}
							lits := []string{row[ci].Literal()}
							if row[ci].Kind() == sqlval.KText {
								lits = append(lits,
									sqlval.Text(gen.ToggleCase(row[ci].Str())).Literal(),
									sqlval.Text(row[ci].Str()+"  ").Literal())
							}
							for _, lit := range lits {
								for _, op := range ops {
									sd.Check(fmt.Sprintf(
										"SELECT * FROM %s WHERE %s %s %s", table, col.Name, op, lit))
								}
								sd.Check(fmt.Sprintf(
									"SELECT * FROM %s WHERE %s BETWEEN %s AND %s", table, col.Name, lit, lit))
								if d == dialect.SQLite {
									sd.Check(fmt.Sprintf(
										"SELECT * FROM %s WHERE %s COLLATE NOCASE = %s", table, col.Name, lit))
									sd.Check(fmt.Sprintf(
										"SELECT DISTINCT %s FROM %s WHERE %s >= %s ORDER BY %s",
										col.Name, table, col.Name, lit, col.Name))
								}
							}
						}
					}

					// Random generated WHERE clauses over the same schema.
					var cols []gen.ColumnPick
					for _, c := range info.Columns {
						cols = append(cols, gen.ColumnPick{Table: table, Column: c})
					}
					var hints []sqlval.Value
					for _, row := range rows {
						hints = append(hints, row...)
					}
					eg := &gen.ExprGen{Rnd: rnd, Cols: cols, Hints: hints, MaxDepth: 3}
					for i := 0; i < 25; i++ {
						where := eg.Generate()
						sql := fmt.Sprintf("SELECT * FROM %s WHERE %s", table, sqlast.ExprSQL(where, d))
						sd.Check(sql)
					}
				}
				cov := planned.Coverage().Snapshot()
				indexPaths += cov["plan.index-eq-lookup"] + cov["plan.index-range-scan"] + cov["plan.partial-index-scan"]
			}
			// The oracle is vacuous if the planner never left the full-scan
			// path: require real index access on every dialect.
			if indexPaths == 0 {
				t.Fatalf("differential suite exercised no index access paths")
			}
			t.Logf("index access paths exercised: %d", indexPaths)
		})
	}
}
