package sut_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dialect"
	"repro/internal/faults"
	"repro/internal/oracle"
	"repro/internal/reduce"
	"repro/internal/runner"
	"repro/internal/strategy"
)

// TestFaultMatrixWireFidelity is the campaign-level boundary check: every
// one of the registered faults must still be detected through sut.DB with
// the session in wire-fidelity mode (render→reparse, the pre-boundary
// string round trip), each under the testing oracle its registry entry
// routes to. Together with runner's TestFullCorpusDetectable — which
// sweeps the same 56-fault matrix through the default ExecAST fast path —
// this proves both execution modes of the API detect the whole corpus
// (including TLP's UNION ALL compounds surviving render→reparse).
func TestFaultMatrixWireFidelity(t *testing.T) {
	if testing.Short() {
		t.Skip("fault matrix sweep is not short")
	}
	total := 0
	for _, d := range dialect.All {
		for _, info := range faults.ForDialect(d) {
			info := info
			d := d
			total++
			t.Run(string(info.ID), func(t *testing.T) {
				t.Parallel()
				res := runner.Run(runner.Campaign{
					Dialect:      d,
					Fault:        info.ID,
					MaxDatabases: 1500,
					Workers:      2,
					BaseSeed:     1,
					Oracles:      []string{oracle.ForFault(info)},
					Tester:       core.Config{WireFidelity: true},
				})
				if !res.Detected {
					t.Fatalf("fault %s not detected through wire-fidelity sut.DB in %d databases",
						info.ID, res.Databases)
				}
			})
		}
	}
	if total != 56 {
		t.Errorf("fault registry has %d faults, matrix expects 56", total)
	}
}

// strategyFaults is the fault-ownership table: for each execution
// strategy, the faults injected inside its code path. With the strategy
// disabled the faulty code never runs, so its faults must go quiet while
// every other fault keeps firing — the ablation doubles as the bisection
// tool. The planner's faults corrupt index contents or index choice, so
// only an index access path can observe them. Compiled programs own no
// fault: compilation changes how predicates evaluate, never what they
// evaluate to.
var strategyFaults = map[strategy.Set][]faults.Fault{
	strategy.Planner: {
		faults.CollateIndexOrder, faults.NocaseUniqueIndex, faults.PartialIndexNotNull,
		faults.PlannerCollationConfusion, faults.RangeScanBoundary, faults.RtrimCompare,
		faults.SkipScanDistinct, faults.BoolIndexScan,
	},
	strategy.Compile:  nil,
	strategy.HashJoin: {faults.HashJoinCollation, faults.HashJoinNullKey, faults.HashLeftJoinDrop},
	strategy.HashAgg:  {faults.HashAggCollation, faults.AggAccumulatorNullSkip, faults.TopKHeapBoundary},
}

// testStrategyParity sweeps the 56-fault matrix through the ExecAST fast
// path with the strategies in off disabled. Every fault outside those
// strategies' rows of strategyFaults must still be detected within 1500
// databases; every owned fault must stay undetected for 300, proving it
// lives in exactly the code the ablation removes.
func testStrategyParity(t *testing.T, off strategy.Set) {
	if testing.Short() {
		t.Skip("fault matrix sweep is not short")
	}
	owned := map[faults.Fault]bool{}
	for s, fs := range strategyFaults {
		if off.Has(s) {
			for _, f := range fs {
				owned[f] = true
			}
		}
	}
	for _, d := range dialect.All {
		for _, info := range faults.ForDialect(d) {
			info := info
			d := d
			t.Run(string(info.ID), func(t *testing.T) {
				t.Parallel()
				budget := 1500
				if owned[info.ID] {
					budget = 300
				}
				res := runner.Run(runner.Campaign{
					Dialect:      d,
					Fault:        info.ID,
					MaxDatabases: budget,
					Workers:      2,
					BaseSeed:     1,
					Oracles:      []string{oracle.ForFault(info)},
					Tester:       core.Config{Disable: off},
				})
				if owned[info.ID] {
					if res.Detected {
						t.Fatalf("fault %s detected with its strategy disabled (disable=%s):\n  %s",
							info.ID, off, strings.Join(res.Bug.Trace, ";\n  "))
					}
					return
				}
				if !res.Detected {
					t.Fatalf("fault %s not detected with disable=%s within %d databases",
						info.ID, off, res.Databases)
				}
			})
		}
	}
}

// TestFaultMatrixCompiledParity runs the parity sweep with every strategy
// on ("compiled") and with compiled expression programs disabled
// ("interpreted"): every injected fault keeps firing in both modes.
func TestFaultMatrixCompiledParity(t *testing.T) {
	t.Run("compiled", func(t *testing.T) { testStrategyParity(t, 0) })
	t.Run("interpreted", func(t *testing.T) { testStrategyParity(t, strategy.Compile) })
}

// TestFaultMatrixPlannerParity runs the parity sweep with index access
// paths disabled: the eight index faults go quiet.
func TestFaultMatrixPlannerParity(t *testing.T) { testStrategyParity(t, strategy.Planner) }

// TestFaultMatrixHashJoinParity runs the parity sweep with hash and
// index-lookup joins disabled: the three hash-join faults go quiet.
func TestFaultMatrixHashJoinParity(t *testing.T) { testStrategyParity(t, strategy.HashJoin) }

// TestFaultMatrixHashAggParity runs the parity sweep with hash
// aggregation and top-K ordering disabled: the three hash-agg faults go
// quiet.
func TestFaultMatrixHashAggParity(t *testing.T) { testStrategyParity(t, strategy.HashAgg) }

// TestCompiledSoundness is the false-positive guard for the compiled
// path: with no faults injected, the engine (running compiled programs)
// and the independent interpreter oracle must agree on every pivot check,
// so campaigns detect nothing.
func TestCompiledSoundness(t *testing.T) {
	for _, d := range dialect.All {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			t.Parallel()
			tester := core.NewTester(core.Config{Dialect: d, Seed: 77, QueriesPerDB: 20})
			for i := 0; i < 60; i++ {
				bug, err := tester.RunDatabase()
				if err != nil {
					t.Fatal(err)
				}
				if bug != nil {
					t.Fatalf("sound engine flagged: %s\ntrace:\n  %s",
						bug.Message, strings.Join(bug.Trace, ";\n  "))
				}
			}
		})
	}
}

// TestCampaignThroughWireBackend proves an end-to-end detection with the
// campaign stack driving the actual database/sql wire backend — the
// farthest execution surface from the engine.
func TestCampaignThroughWireBackend(t *testing.T) {
	res := runner.Run(runner.Campaign{
		Dialect:      dialect.SQLite,
		Fault:        faults.PartialIndexNotNull,
		MaxDatabases: 400,
		Workers:      2,
		BaseSeed:     1,
		Tester:       core.Config{Backend: "wire"},
	})
	if !res.Detected {
		t.Fatalf("wire backend campaign missed %s in %d databases",
			faults.PartialIndexNotNull, res.Databases)
	}
	if res.Bug.Oracle != faults.OracleContainment {
		t.Errorf("oracle = %s, want containment", res.Bug.Oracle)
	}
}

// strategyReductions are the six strategy-owned faults of strategyFaults,
// each with the dialect and oracle its reduction runs under.
var strategyReductions = []struct {
	fault   faults.Fault
	dialect dialect.Dialect
	oracle  string
}{
	{faults.HashJoinCollation, dialect.SQLite, "pqs"},
	{faults.HashJoinNullKey, dialect.SQLite, "tlp"},
	{faults.HashLeftJoinDrop, dialect.Postgres, "tlp"},
	{faults.HashAggCollation, dialect.SQLite, "pqs"},
	{faults.AggAccumulatorNullSkip, dialect.SQLite, "tlp"},
	{faults.TopKHeapBoundary, dialect.MySQL, "pqs"},
}

// testFaultReduction proves the faults owned by one strategy reduce to
// replayable repro scripts, like the rest of the corpus: the reducer's
// checker must reproduce on a faulty engine and stay quiet on a clean one.
func testFaultReduction(t *testing.T, owner strategy.Set) {
	ours := map[faults.Fault]bool{}
	for _, f := range strategyFaults[owner] {
		ours[f] = true
	}
	for _, tc := range strategyReductions {
		if !ours[tc.fault] {
			continue
		}
		tc := tc
		t.Run(string(tc.fault), func(t *testing.T) {
			t.Parallel()
			res := runner.Run(runner.Campaign{
				Dialect:      tc.dialect,
				Fault:        tc.fault,
				MaxDatabases: 1500,
				BaseSeed:     1,
				Reduce:       true,
				Oracles:      []string{tc.oracle},
			})
			if !res.Detected {
				t.Fatalf("%s not detected", tc.fault)
			}
			if len(res.Reduced) == 0 || len(res.Reduced) > len(res.Bug.Trace) {
				t.Fatalf("reduction produced %d statements from %d", len(res.Reduced), len(res.Bug.Trace))
			}
			check := reduce.CheckerFor(res.Bug, tc.dialect, faults.NewSet(tc.fault))
			if !check(res.Reduced) {
				t.Fatalf("reduced trace no longer reproduces:\n  %s", strings.Join(res.Reduced, ";\n  "))
			}
			clean := reduce.CheckerFor(res.Bug, tc.dialect, nil)
			if clean(res.Reduced) {
				t.Fatalf("checker reproduces on the fault-free engine:\n  %s", strings.Join(res.Reduced, ";\n  "))
			}
		})
	}
}

// TestHashJoinFaultReduction reduces the three hash-join faults.
func TestHashJoinFaultReduction(t *testing.T) { testFaultReduction(t, strategy.HashJoin) }

// TestHashAggFaultReduction reduces the three hash-agg faults.
func TestHashAggFaultReduction(t *testing.T) { testFaultReduction(t, strategy.HashAgg) }
