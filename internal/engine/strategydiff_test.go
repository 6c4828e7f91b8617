package engine

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/dialect"
	"repro/internal/strategy"
)

// DiffSets lists every disabled strategy set the differential suites
// compare against the all-on engine: each strategy alone, every pair, and
// all of them off. Pairs are where option interactions hide; one-off
// ablations alone would miss them.
func DiffSets() []strategy.Set {
	var out []strategy.Set
	var all strategy.Set
	for i, a := range strategy.All {
		all |= a
		out = append(out, a)
		for _, b := range strategy.All[i+1:] {
			out = append(out, a|b)
		}
	}
	return append(out, all)
}

// StrategyDiff is the shared differential harness of the planner, join,
// aggregation and compiled-eval suites: one all-on engine and one engine
// per DiffSets entry, all in one dialect. A suite loads the same state
// into every engine, then Check requires each query to render identically
// on all of them under the suite's own comparison.
type StrategyDiff struct {
	t      testing.TB
	d      dialect.Dialect
	render func(*Engine, string) string

	// On has every strategy enabled; Off[i] has DiffSets()[i] disabled.
	On  *Engine
	Off []*Engine
	// Context prefixes failure messages (e.g. the seed that built the
	// state).
	Context string
}

// NewStrategyDiff opens the engines. render is the suite's comparison:
// whatever it returns for a query must agree across every engine.
func NewStrategyDiff(t testing.TB, d dialect.Dialect, render func(*Engine, string) string) *StrategyDiff {
	s := &StrategyDiff{t: t, d: d, render: render, On: Open(d)}
	for _, off := range DiffSets() {
		s.Off = append(s.Off, Open(d, WithDisabled(off)))
	}
	return s
}

// Engines returns the all-on engine followed by every ablated one.
func (s *StrategyDiff) Engines() []*Engine {
	return append([]*Engine{s.On}, s.Off...)
}

// Check runs q on every engine and reports each disabled set whose
// rendering differs from the all-on engine's.
func (s *StrategyDiff) Check(q string) {
	s.t.Helper()
	want := s.render(s.On, q)
	var diverged strings.Builder
	for _, e := range s.Off {
		if got := s.render(e, q); got != want {
			fmt.Fprintf(&diverged, "disable=%s:\n%s\n", e.Disabled(), got)
		}
	}
	if diverged.Len() > 0 {
		s.t.Errorf("%s%s: strategy divergence on %q\nall on:\n%s\n%s", s.Context, s.d, q, want, diverged.String())
	}
}
