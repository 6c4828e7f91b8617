// Package strategy names the engine's optional execution strategies as one
// typed set. Each strategy has a naive counterpart the engine falls back to
// when it is disabled, so a campaign can bisect a detection to the code path
// it lives in. The set is shared by the engine, the SUT session, the DSN,
// the tester configurations and the CLIs, the way faults.Set is.
package strategy

import (
	"fmt"
	"strings"
)

// Set is a set of execution strategies. The zero value is the empty set;
// as a disabled set it means "every strategy on".
type Set uint8

const (
	// Planner is index access-path selection; disabled, every table is a
	// full scan.
	Planner Set = 1 << iota
	// Compile is compiled expression programs; disabled, every clause
	// evaluates through the tree-walk interpreter.
	Compile
	// HashJoin is hash and index-lookup join selection; disabled, every
	// join level is a nested loop.
	HashJoin
	// HashAgg is streaming hash aggregation and top-K ordering; disabled,
	// grouping is materialized and ORDER BY + LIMIT sorts in full.
	HashAgg
)

// All lists every strategy in canonical order.
var All = []Set{Planner, Compile, HashJoin, HashAgg}

// names holds the lowercase name of All[i] at index i.
var names = [...]string{"planner", "compile", "hashjoin", "hashagg"}

// Has reports whether every strategy of o is in s.
func (s Set) Has(o Set) bool { return s&o == o }

// String joins the member names with commas, in canonical order; the
// empty set is "".
func (s Set) String() string {
	var parts []string
	for i, o := range All {
		if s.Has(o) {
			parts = append(parts, names[i])
		}
	}
	return strings.Join(parts, ",")
}

// Parse reads a comma-separated list of strategy names, the inverse of
// String. Blank entries are ignored, so "" parses to the empty set.
func Parse(list string) (Set, error) {
	var s Set
next:
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		for i, n := range names {
			if n == name {
				s |= All[i]
				continue next
			}
		}
		return 0, fmt.Errorf("strategy: unknown strategy %q (valid: %s)", name, strings.Join(names[:], ", "))
	}
	return s, nil
}
