package oracle_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dialect"
	"repro/internal/strategy"
)

// TestOracleFalsePositiveSoak is the soundness guard for the whole oracle
// registry: against the fault-free engine, N random databases per dialect
// must produce zero detections under every oracle, with every strategy on
// and with strategy.Compile disabled (the tree walk only). With every
// strategy on, the engine compiles only clauses over at least its
// row-count threshold of combinations and interprets the rest; the
// compiled path's fidelity at every row count is checked in internal/eval
// (TestCompiledTreeWalkEquivalence). A false positive here means either an engine bug or an oracle whose metamorphic identity
// does not actually hold (e.g. float-order-sensitive aggregation).
func TestOracleFalsePositiveSoak(t *testing.T) {
	databases := 40
	if testing.Short() {
		databases = 8
	}
	for _, d := range dialect.All {
		for _, name := range []string{"pqs", "tlp", "norec"} {
			for _, off := range []strategy.Set{0, strategy.Compile} {
				d, name, off := d, name, off
				label := "compiled"
				if off != 0 {
					label = "no-" + off.String()
				}
				t.Run(fmt.Sprintf("%s/%s/%s", d, name, label), func(t *testing.T) {
					t.Parallel()
					tester := core.NewTester(core.Config{
						Dialect:      d,
						Oracle:       name,
						Seed:         101,
						QueriesPerDB: 15,
						Disable:      off,
					})
					for i := 0; i < databases; i++ {
						bug, err := tester.RunDatabase()
						if err != nil {
							t.Fatal(err)
						}
						if bug != nil {
							t.Fatalf("fault-free engine flagged by %s (%s verdict): %s\ntrace:\n  %s",
								bug.DetectedBy, bug.Oracle, bug.Message, strings.Join(bug.Trace, ";\n  "))
						}
					}
				})
			}
		}
	}
}
