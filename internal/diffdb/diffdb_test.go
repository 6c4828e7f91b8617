package diffdb

import (
	"testing"

	"repro/internal/dialect"
	"repro/internal/faults"
	"repro/internal/strategy"
	"repro/internal/sut"
)

func pairs() [][2]dialect.Dialect {
	return [][2]dialect.Dialect{
		{dialect.SQLite, dialect.MySQL},
		{dialect.SQLite, dialect.Postgres},
		{dialect.MySQL, dialect.Postgres},
	}
}

// Differential soundness: with no faults, the common core agrees across
// every dialect pair. This is the hard part of RAGS-style testing — the
// generator must avoid every semantic divergence between dialects.
func TestDifferentialSoundness(t *testing.T) {
	for _, p := range pairs() {
		for seed := int64(0); seed < 40; seed++ {
			s := New(Config{Pair: p, Seed: seed})
			m, err := s.RunDatabase()
			if err != nil {
				t.Fatalf("%v seed %d: %v", p, seed, err)
			}
			if m != nil {
				t.Fatalf("%v seed %d: spurious mismatch on %q: %s left=%v right=%v",
					p, seed, m.Query, m.Err, m.LeftRes, m.RightRes)
			}
		}
	}
}

// Differential testing catches common-core logic faults...
func TestDifferentialFindsCommonCoreFault(t *testing.T) {
	found := false
	for seed := int64(0); seed < 200 && !found; seed++ {
		s := New(Config{
			Pair:   [2]dialect.Dialect{dialect.MySQL, dialect.SQLite},
			Seed:   seed,
			Faults: faults.NewSet(faults.InsertVisibility),
		})
		m, err := s.RunDatabase()
		if err != nil {
			t.Fatal(err)
		}
		found = m != nil
	}
	if !found {
		t.Error("differential testing should catch the insert-visibility fault")
	}
}

// ...but is blind to dialect-specific faults, which its common core cannot
// express (partial indexes, IS NOT, WITHOUT ROWID, collations, ...).
func TestDifferentialBlindToDialectFaults(t *testing.T) {
	for _, f := range []faults.Fault{faults.PartialIndexNotNull, faults.NocaseUniqueIndex} {
		for seed := int64(0); seed < 60; seed++ {
			s := New(Config{
				Pair:   [2]dialect.Dialect{dialect.SQLite, dialect.Postgres},
				Seed:   seed,
				Faults: faults.NewSet(f),
			})
			m, err := s.RunDatabase()
			if err != nil {
				t.Fatal(err)
			}
			if m != nil {
				t.Fatalf("differential testing unexpectedly detected %s: %q", f, m.Query)
			}
		}
	}
}

// recordingDriver opens memengine databases and appends each Session it
// was asked to open to recorded, so a test can see what diffdb passes to
// both sides.
type recordingDriver struct{}

var recorded []sut.Session

func (recordingDriver) Open(s sut.Session) (sut.DB, error) {
	recorded = append(recorded, s)
	return sut.Open("memengine", s)
}

func init() { sut.Register("diffdb-recording", recordingDriver{}) }

// Config.Disable reaches both compared sessions, and a differential run
// with a strategy disabled stays sound.
func TestDifferentialDisablesBothSessions(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		recorded = nil
		s := New(Config{Pair: [2]dialect.Dialect{dialect.SQLite, dialect.MySQL}, Seed: seed,
			Backend: "diffdb-recording", Disable: strategy.HashJoin})
		m, err := s.RunDatabase()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if m != nil {
			t.Fatalf("seed %d: spurious mismatch on %q", seed, m.Query)
		}
		if len(recorded) != 2 || recorded[0].Disable != strategy.HashJoin || recorded[1].Disable != strategy.HashJoin {
			t.Fatalf("seed %d: opened sessions %+v, want two with Disable=hashjoin", seed, recorded)
		}
	}
}
