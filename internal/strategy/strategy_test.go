package strategy

import (
	"strings"
	"testing"
)

func TestStringParseRoundTrip(t *testing.T) {
	for s := Set(0); s < 1<<len(All); s++ {
		got, err := Parse(s.String())
		if err != nil || got != s {
			t.Errorf("Parse(%q) = %v, %v; want %v", s.String(), got, err, uint8(s))
		}
	}
	if got := (HashJoin | HashAgg).String(); got != "hashjoin,hashagg" {
		t.Errorf("String = %q, want canonical order hashjoin,hashagg", got)
	}
	if got, err := Parse(" hashagg, planner "); err != nil || got != Planner|HashAgg {
		t.Errorf("Parse with spaces = %v, %v", got, err)
	}
}

func TestParseRejectsUnknownListingValidNames(t *testing.T) {
	_, err := Parse("hashjoin,bogus")
	if err == nil {
		t.Fatal("Parse accepted an unknown strategy")
	}
	for _, n := range names {
		if !strings.Contains(err.Error(), n) {
			t.Errorf("error %q does not list valid name %q", err, n)
		}
	}
}

func TestHas(t *testing.T) {
	s := Compile | HashAgg
	if !s.Has(Compile) || !s.Has(HashAgg) || s.Has(Planner) || s.Has(Compile|Planner) {
		t.Errorf("Has is wrong for %v", s)
	}
	if !Set(0).Has(0) {
		t.Error("every set has the empty set")
	}
}
