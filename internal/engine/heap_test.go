package engine

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dialect"
	"repro/internal/faults"
	"repro/internal/sqlval"
	"repro/internal/strategy"
)

// heapSetup builds the heap-isolation schema: two indexed 40-row tables
// (enough rows for index probes and hash joins to win their costings),
// a partial index, a 3-row probe table for index-lookup joins, a view, and
// per dialect a renamed-column table under a double-quoted index part
// (SQLite, Listing 8) or an inherited child (PostgreSQL).
func heapSetup(t *testing.T, e *Engine, d dialect.Dialect) {
	t.Helper()
	execAll(t, e,
		"CREATE TABLE h0(k INT, v INT, s TEXT)",
		"CREATE TABLE h1(k INT, v INT, s TEXT)",
		"CREATE TABLE hp(k INT)",
	)
	for _, tbl := range []string{"h0", "h1"} {
		var b strings.Builder
		fmt.Fprintf(&b, "INSERT INTO %s VALUES ", tbl)
		for i := 0; i < 40; i++ {
			if i > 0 {
				b.WriteString(", ")
			}
			if i%9 == 4 {
				fmt.Fprintf(&b, "(%d, NULL, NULL)", i)
				continue
			}
			fmt.Fprintf(&b, "(%d, %d, 's%d')", i, i%5, i%3)
		}
		execAll(t, e, b.String())
	}
	execAll(t, e,
		"INSERT INTO hp VALUES (1), (7), (50)",
		"CREATE INDEX i0 ON h0(k)",
		"CREATE INDEX i1 ON h1(k)",
		"CREATE VIEW hv AS SELECT k, v FROM h0 WHERE v > 1",
	)
	switch d {
	case dialect.SQLite:
		execAll(t, e,
			"CREATE INDEX ip ON h1(v) WHERE v > 3",
			"CREATE TABLE hq(c1 TEXT, c2 INT)",
			"INSERT INTO hq VALUES ('a', 1), ('b', 2), ('a', 3)",
			`CREATE INDEX iq ON hq("C3")`,
			"ALTER TABLE hq RENAME COLUMN c1 TO c3",
		)
	case dialect.Postgres:
		execAll(t, e,
			"CREATE INDEX ip ON h1(v) WHERE v > 3",
			"CREATE TABLE hc(w INT) INHERITS (h0)",
			"INSERT INTO hc VALUES (100, 1, 'c', 7), (101, NULL, 'd', 8)",
		)
	}
}

// heapTables are the base tables heapSetup creates in dialect d.
func heapTables(d dialect.Dialect) []string {
	switch d {
	case dialect.SQLite:
		return []string{"h0", "h1", "hp", "hq"}
	case dialect.Postgres:
		return []string{"h0", "h1", "hp", "hc"}
	}
	return []string{"h0", "h1", "hp"}
}

// heapQueries cover every way a SELECT reads the heap: scans, the three
// planner paths, the three join operators, outer joins, grouping,
// DISTINCT, top-K, views, inheritance and the shapes of the fault sites
// that touch scanned or joined rows.
var heapQueries = []string{
	"SELECT * FROM h0",
	"SELECT * FROM h0 WHERE v > 2",
	"SELECT k, s FROM h1 WHERE k = 7",
	"SELECT * FROM h1 WHERE k > 33",
	"SELECT k FROM h1 WHERE v > 3",
	"SELECT * FROM h0 JOIN h1 ON h0.v < h1.k",
	"SELECT * FROM h0 JOIN h1 ON h0.k = h1.k",
	"SELECT * FROM hp JOIN h1 ON hp.k = h1.k",
	"SELECT * FROM h0, h1 WHERE h0.k = h1.k AND h0.v > 1",
	"SELECT * FROM h0, h1 WHERE h1.k = 3",
	"SELECT * FROM h0, hp, h1 WHERE h0.k = hp.k AND hp.k = h1.k",
	"SELECT * FROM h0 LEFT JOIN h1 ON h0.k = h1.v",
	"SELECT * FROM hp LEFT JOIN h1 ON hp.k = h1.k",
	"SELECT v, COUNT(*), SUM(k), MIN(s) FROM h0 GROUP BY v",
	"SELECT h0.v, MAX(h1.k), COUNT(h1.s) FROM h0 JOIN h1 ON h0.k = h1.k GROUP BY h0.v HAVING COUNT(*) > 1",
	"SELECT COUNT(*), AVG(v) FROM h0 WHERE k > 3",
	"SELECT DISTINCT v FROM h0",
	"SELECT DISTINCT * FROM h0 WHERE k < 5",
	"SELECT * FROM h0 ORDER BY v DESC, k LIMIT 3",
	"SELECT k, v FROM h0 ORDER BY s, k LIMIT 4 OFFSET 2",
	"SELECT * FROM hv WHERE k > 2",
	"SELECT * FROM hv JOIN h1 ON hv.k = h1.k",
	"SELECT * FROM ONLY h0 WHERE k < 3",
	"SELECT DISTINCT * FROM hq",
	"SELECT DISTINCT * FROM hq JOIN hp ON hq.c2 = hp.k",
	"SELECT 1 WHERE 1 = 1",
}

// heapEngine is one engine configuration of the isolation test.
type heapEngine struct {
	name string
	e    *Engine
}

// heapEngines opens the engine configurations of dialect d that the
// isolation test runs: all strategies on, all strategies off, and every
// fault whose site copies or drops borrowed rows.
func heapEngines(d dialect.Dialect) []heapEngine {
	es := []heapEngine{
		{"all-on", Open(d)},
		{"all-off", Open(d, WithDisabled(strategy.Planner|strategy.Compile|strategy.HashJoin|strategy.HashAgg))},
	}
	var fs []faults.Fault
	switch d {
	case dialect.SQLite:
		fs = []faults.Fault{faults.NorecCountMismatch, faults.DoubleQuoteIndex}
	case dialect.MySQL:
		fs = []faults.Fault{faults.InsertVisibility, faults.JoinPredicatePushdown}
	case dialect.Postgres:
		fs = []faults.Fault{faults.LeftJoinDrop}
	}
	for _, f := range fs {
		es = append(es, heapEngine{string(f), Open(d, WithFaults(faults.NewSet(f)))})
	}
	return es
}

// TestSelectLeavesHeapIntact checks the rule storage.Row documents:
// scans and joins borrow the heap's rows, so no SELECT may change them.
// Every table's raw rows must be identical before and after the query
// set, and overwriting the values of a returned Result must not change
// what the same query returns next time.
func TestSelectLeavesHeapIntact(t *testing.T) {
	for _, d := range dialect.All {
		for _, he := range heapEngines(d) {
			e := he.e
			t.Run(fmt.Sprintf("%s/%s", d, he.name), func(t *testing.T) {
				heapSetup(t, e, d)
				before := map[string][][]sqlval.Value{}
				for _, tbl := range heapTables(d) {
					before[tbl] = e.RawRows(tbl)
					if len(before[tbl]) == 0 {
						t.Fatalf("table %s is empty", tbl)
					}
				}
				for _, q := range heapQueries {
					first := runQuery(e, q)
					if res, err := e.Exec(q); err == nil {
						for _, row := range res.Rows {
							for i := range row {
								row[i] = sqlval.Text("clobbered")
							}
						}
					}
					if again := runQuery(e, q); again != first {
						t.Errorf("%s: result changed after its previous Result was overwritten:\nfirst:\n%s\nagain:\n%s", q, first, again)
					}
				}
				for _, tbl := range heapTables(d) {
					if after := e.RawRows(tbl); !reflect.DeepEqual(after, before[tbl]) {
						t.Errorf("SELECTs changed the heap of %s:\nbefore %v\nafter  %v", tbl, before[tbl], after)
					}
				}
				if he.name != "all-on" {
					return
				}
				// The query set must reach every borrowing path.
				want := []string{"plan.index-eq-lookup", "plan.index-range-scan", "join.hash",
					"dql.view-scan", "dql.group-by-hash", "dql.order-topk"}
				switch d {
				case dialect.SQLite:
					want = append(want, "join.index-lookup", "plan.partial-index-scan")
				case dialect.Postgres:
					want = append(want, "plan.partial-index-scan", "dql.inheritance-scan")
				}
				cov := e.Coverage().Snapshot()
				for _, site := range want {
					if cov[site] == 0 {
						t.Errorf("query set never reached %s", site)
					}
				}
			})
		}
	}
}
