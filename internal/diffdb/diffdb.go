// Package diffdb is the RAGS-style differential-testing baseline (Slutz
// 1998): the same common-core SQL runs on two dialect engines and result
// sets are compared. Its reach is limited to the small common core of the
// dialects — the paper's motivation for PQS — so it cannot exercise
// partial indexes, collations, WITHOUT ROWID, storage engines,
// inheritance, IS NOT, or implicit coercions, where most bugs live.
package diffdb

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/dialect"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/sqlval"
	"repro/internal/strategy"
	"repro/internal/sut"
	_ "repro/internal/sut/memengine" // default backend
)

// Config parameterizes a differential session.
type Config struct {
	// Pair is the two dialects compared. Faults apply to Pair[0] only.
	Pair         [2]dialect.Dialect
	Seed         int64
	Faults       *faults.Set
	QueriesPerDB int
	Rows         int
	// Backend names the sut driver both sides run on ("" =
	// sut.DefaultBackend).
	Backend string
	// Disable turns execution strategies off on both sides
	// (sut.Session.Disable).
	Disable strategy.Set
}

// Mismatch is a differential detection.
type Mismatch struct {
	Query    string
	Trace    []string
	LeftRes  []string
	RightRes []string
	// Err records an execution divergence (one side erroring).
	Err string
}

// Session runs the differential baseline.
type Session struct {
	cfg Config
	rnd *gen.Rand
	// Statements counts work for throughput comparison.
	Statements int
}

// New creates a session.
func New(cfg Config) *Session {
	if cfg.QueriesPerDB <= 0 {
		cfg.QueriesPerDB = 30
	}
	if cfg.Rows <= 0 {
		cfg.Rows = 6
	}
	// The common-core generator must avoid dialect-specific constructs,
	// so it runs under the stricter dialect's rules.
	return &Session{cfg: cfg, rnd: gen.NewRand(dialect.Postgres, cfg.Seed)}
}

// RunDatabase builds one common-core database on both engines and compares
// query results. It returns the first mismatch, or nil.
func (s *Session) RunDatabase() (*Mismatch, error) {
	left, err := sut.Open(s.cfg.Backend, sut.Session{Dialect: s.cfg.Pair[0], Faults: s.cfg.Faults, Disable: s.cfg.Disable})
	if err != nil {
		return nil, err
	}
	defer left.Close()
	right, err := sut.Open(s.cfg.Backend, sut.Session{Dialect: s.cfg.Pair[1], Disable: s.cfg.Disable})
	if err != nil {
		return nil, err
	}
	defer right.Close()
	var trace []string

	apply := func(sql string) error {
		trace = append(trace, sql)
		s.Statements += 2
		_, errL := left.Exec(sql)
		_, errR := right.Exec(sql)
		if (errL == nil) != (errR == nil) {
			return &diffSignal{m: &Mismatch{
				Query: sql,
				Trace: append([]string(nil), trace...),
				Err:   fmt.Sprintf("execution divergence: left=%v right=%v", errL, errR),
			}}
		}
		return nil
	}

	// Common-core schema: INT and TEXT columns only, no constraints
	// beyond NOT NULL, no indexes, no dialect clauses.
	nTables := 1 + s.rnd.Intn(2)
	for t := 0; t < nTables; t++ {
		nCols := 1 + s.rnd.Intn(3)
		var defs []string
		for c := 0; c < nCols; c++ {
			typ := "INT"
			if s.rnd.Bool(0.4) {
				typ = "TEXT"
			}
			defs = append(defs, fmt.Sprintf("c%d %s", c, typ))
		}
		sql := fmt.Sprintf("CREATE TABLE t%d(%s)", t, strings.Join(defs, ", "))
		if err := apply(sql); err != nil {
			return signalOf(err)
		}
		rows := 1 + s.rnd.Intn(s.cfg.Rows)
		for r := 0; r < rows; r++ {
			var vals []string
			for c := 0; c < nCols; c++ {
				vals = append(vals, s.commonValue(strings.Contains(defs[c], "TEXT")))
			}
			ins := fmt.Sprintf("INSERT INTO t%d VALUES (%s)", t, strings.Join(vals, ", "))
			if err := apply(ins); err != nil {
				return signalOf(err)
			}
		}
	}

	for q := 0; q < s.cfg.QueriesPerDB; q++ {
		query := s.commonQuery(left.Introspect())
		if query == "" {
			continue
		}
		trace = append(trace, query)
		s.Statements += 2
		resL, errL := left.Query(query)
		resR, errR := right.Query(query)
		if (errL == nil) != (errR == nil) {
			return &Mismatch{
				Query: query,
				Trace: append([]string(nil), trace...),
				Err:   fmt.Sprintf("execution divergence: left=%v right=%v", errL, errR),
			}, nil
		}
		if errL != nil {
			trace = trace[:len(trace)-1]
			continue
		}
		l, r := canon(resL.Rows), canon(resR.Rows)
		if !equalStrings(l, r) {
			return &Mismatch{
				Query:    query,
				Trace:    append([]string(nil), trace...),
				LeftRes:  l,
				RightRes: r,
			}, nil
		}
		trace = trace[:len(trace)-1]
	}
	return nil, nil
}

type diffSignal struct{ m *Mismatch }

// Error implements the error interface.
func (d *diffSignal) Error() string { return "differential mismatch" }

func signalOf(err error) (*Mismatch, error) {
	if sig, ok := err.(*diffSignal); ok {
		return sig.m, nil
	}
	return nil, err
}

// commonValue draws values whose semantics agree across dialects:
// lowercase-only text (MySQL's case-insensitive default collation would
// otherwise diverge from the others) and moderate integers (no overflow
// divergence).
func (s *Session) commonValue(isText bool) string {
	if s.rnd.Bool(0.15) {
		return "NULL"
	}
	if isText {
		pool := []string{"''", "'a'", "'b'", "'ab'", "'x y'", "'0'"}
		return pool[s.rnd.Intn(len(pool))]
	}
	pool := []int64{0, 1, -1, 2, 5, 10, 100, -7}
	return fmt.Sprintf("%d", pool[s.rnd.Intn(len(pool))])
}

// commonQuery builds a query from the dialects' common core: comparisons
// composed with AND/OR/NOT, LEFT/INNER JOIN, DISTINCT, no dialect
// keywords.
func (s *Session) commonQuery(intro sut.Introspection) string {
	tables := intro.Tables()
	if len(tables) == 0 {
		return ""
	}
	t0 := tables[s.rnd.Intn(len(tables))]
	info, err := intro.Describe(t0)
	if err != nil || len(info.Columns) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.rnd.Bool(0.3) {
		b.WriteString("DISTINCT ")
	}
	b.WriteString("* FROM ")
	b.WriteString(t0)
	if len(tables) > 1 && s.rnd.Bool(0.4) {
		t1 := tables[(s.rnd.Intn(len(tables)-1)+1+indexOf(tables, t0))%len(tables)]
		if t1 != t0 {
			join := " JOIN "
			if s.rnd.Bool(0.5) {
				join = " LEFT JOIN "
			}
			info1, err := intro.Describe(t1)
			// Join keys must share a type category, or the strictly-typed
			// dialect would diverge by erroring.
			if err == nil && len(info1.Columns) > 0 &&
				isTextType(info.Columns[0].TypeName) == isTextType(info1.Columns[0].TypeName) {
				b.WriteString(join)
				b.WriteString(t1)
				fmt.Fprintf(&b, " ON (%s.%s = %s.%s)", t0, info.Columns[0].Name, t1, info1.Columns[0].Name)
			}
		}
	}
	if s.rnd.Bool(0.8) {
		col := info.Columns[s.rnd.Intn(len(info.Columns))]
		b.WriteString(" WHERE ")
		b.WriteString(s.commonPredicate(t0, col.Name, isTextType(col.TypeName), 0))
	}
	return b.String()
}

func isTextType(typeName string) bool {
	return strings.Contains(strings.ToUpper(typeName), "TEXT")
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return 0
}

func (s *Session) commonPredicate(table, col string, isText bool, depth int) string {
	if depth < 2 && s.rnd.Bool(0.4) {
		op := "AND"
		if s.rnd.Bool(0.5) {
			op = "OR"
		}
		return fmt.Sprintf("(%s %s %s)",
			s.commonPredicate(table, col, isText, depth+1), op, s.commonPredicate(table, col, isText, depth+1))
	}
	if s.rnd.Bool(0.2) {
		return fmt.Sprintf("(NOT %s)", s.commonPredicate(table, col, isText, depth+1))
	}
	ops := []string{"=", "<", ">", "<=", ">=", "!="}
	if s.rnd.Bool(0.25) {
		return fmt.Sprintf("(%s.%s IS NULL)", table, col)
	}
	v := s.commonValue(isText)
	if v == "NULL" {
		v = "0"
		if isText {
			v = "'a'"
		}
	}
	return fmt.Sprintf("(%s.%s %s %s)", table, col, ops[s.rnd.Intn(len(ops))], v)
}

// canon renders result rows as sorted canonical strings (differential
// comparison is order-insensitive, like RAGS).
func canon(rows [][]sqlval.Value) []string {
	out := make([]string, 0, len(rows))
	for _, row := range rows {
		parts := make([]string, len(row))
		for i, v := range row {
			// Numeric canonicalization: 1 and 1.0 agree across engines.
			if v.IsNumeric() {
				parts[i] = fmt.Sprintf("%g", v.AsFloat())
			} else {
				parts[i] = v.String()
			}
		}
		out = append(out, strings.Join(parts, "|"))
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
