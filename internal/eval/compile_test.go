package eval_test

import (
	"strings"
	"testing"

	"repro/internal/dialect"
	"repro/internal/eval"
	"repro/internal/sqlast"
	"repro/internal/sqlval"
)

func sqliteWorld() *diffWorld {
	w, _ := diffWorldFor(dialect.SQLite)
	return w
}

func TestCompileSlotBinding(t *testing.T) {
	w := sqliteWorld()
	w.rows[0][0] = sqlval.Int(7)
	w.rows[1][3] = sqlval.Int(42)
	ev := eval.New(dialect.SQLite)

	// Qualified and unqualified references bind to fixed slots.
	prog, err := ev.Compile(&sqlast.Binary{
		Op: sqlast.OpAdd,
		L:  sqlast.Col("t0", "c0"),
		R:  sqlast.Col("t1", "dup"),
	}, w)
	if err != nil {
		t.Fatal(err)
	}
	v, err := prog.Eval(&eval.Frame{Rows: w.rows})
	if err != nil || v.Int64() != 49 {
		t.Fatalf("got %v, %v; want 49", v, err)
	}

	// A nil frame row is the NULL-extended outer-join side.
	v, err = prog.Eval(&eval.Frame{Rows: [][]sqlval.Value{nil, w.rows[1]}})
	if err != nil || !v.IsNull() {
		t.Fatalf("NULL-extended side: got %v, %v; want NULL", v, err)
	}
}

func TestCompileBindErrors(t *testing.T) {
	w := sqliteWorld()
	ev := eval.New(dialect.SQLite)

	// Missing column: surfaced at compile time, once.
	if _, err := ev.Compile(sqlast.Col("t0", "nope"), w); err == nil ||
		!strings.Contains(err.Error(), "no such column: t0.nope") {
		t.Fatalf("missing column: err = %v", err)
	}

	// Ambiguous unqualified column: the distinct diagnostic, not the
	// missing-column one.
	_, err := ev.Compile(&sqlast.ColumnRef{Column: "dup"}, w)
	if !eval.IsAmbiguousColumn(err) {
		t.Fatalf("ambiguous column: err = %v, want ambiguous diagnostic", err)
	}
	if !strings.Contains(err.Error(), "ambiguous column name: dup") {
		t.Fatalf("ambiguous column message = %q", err.Error())
	}

	// The tree-walk fallback reports the same distinction at lookup time
	// through the ResolveErrEnv extension.
	_, err = ev.Eval(&sqlast.ColumnRef{Column: "dup"}, w)
	if !eval.IsAmbiguousColumn(err) {
		t.Fatalf("tree-walk ambiguous column: err = %v", err)
	}
	_, err = ev.Eval(sqlast.Col("t0", "nope"), w)
	if err == nil || !strings.Contains(err.Error(), "no such column") {
		t.Fatalf("tree-walk missing column: err = %v", err)
	}
}

func TestCompileMaybeStringDemotion(t *testing.T) {
	w := sqliteWorld()
	ev := eval.New(dialect.SQLite)

	// An unresolvable double-quoted token demotes to a string constant in
	// the SQLite dialect — same value the interpreter produces.
	prog, err := ev.Compile(&sqlast.ColumnRef{Column: "ghost", MaybeString: true}, w)
	if err != nil {
		t.Fatal(err)
	}
	v, err := prog.Eval(&eval.Frame{Rows: w.rows})
	if err != nil || v.Kind() != sqlval.KText || v.Str() != "ghost" {
		t.Fatalf("got %v, %v; want TEXT 'ghost'", v, err)
	}

	// An ambiguous double-quoted token is an identifier error, not a
	// string, in both paths.
	if _, err := ev.Compile(&sqlast.ColumnRef{Column: "dup", MaybeString: true}, w); !eval.IsAmbiguousColumn(err) {
		t.Fatalf("compiled ambiguous MaybeString: err = %v", err)
	}
	if _, err := ev.Eval(&sqlast.ColumnRef{Column: "dup", MaybeString: true}, w); !eval.IsAmbiguousColumn(err) {
		t.Fatalf("tree-walk ambiguous MaybeString: err = %v", err)
	}

	// Outside SQLite the unresolvable token stays a missing column.
	if _, err := eval.New(dialect.Postgres).Compile(&sqlast.ColumnRef{Column: "ghost", MaybeString: true}, w); err == nil {
		t.Fatal("postgres MaybeString should not demote to string")
	}
}

// countingLayout wraps a layout and counts Resolve calls, proving folded
// and slot-bound programs never resolve at evaluation time.
type countingLayout struct {
	eval.Layout
	calls int
}

func (c *countingLayout) Resolve(table, column string) (eval.Slot, eval.Meta, error) {
	c.calls++
	return c.Layout.Resolve(table, column)
}

func TestCompileConstantFolding(t *testing.T) {
	w := sqliteWorld()
	ev := eval.New(dialect.SQLite)
	cl := &countingLayout{Layout: w}

	// (1+2)*3 = 9 folds to a constant; no resolution, and evaluation
	// cannot touch the layout.
	prog, err := ev.Compile(&sqlast.Binary{
		Op: sqlast.OpMul,
		L:  &sqlast.Binary{Op: sqlast.OpAdd, L: sqlast.Lit(sqlval.Int(1)), R: sqlast.Lit(sqlval.Int(2))},
		R:  sqlast.Lit(sqlval.Int(3)),
	}, cl)
	if err != nil {
		t.Fatal(err)
	}
	v, err := prog.Eval(&eval.Frame{})
	if err != nil || v.Int64() != 9 {
		t.Fatalf("got %v, %v; want 9", v, err)
	}
	if cl.calls != 0 {
		t.Fatalf("constant expression resolved %d columns", cl.calls)
	}

	// A constant subtree that errors must stay lazy: inside a never-taken
	// CASE arm the interpreter raises nothing, so neither may the program.
	pg := eval.New(dialect.Postgres)
	divZero := &sqlast.Binary{Op: sqlast.OpDiv, L: sqlast.Lit(sqlval.Int(1)), R: sqlast.Lit(sqlval.Int(0))}
	caseExpr := &sqlast.Case{
		Whens: []sqlast.WhenClause{{When: sqlast.Lit(sqlval.Bool(true)), Then: sqlast.Lit(sqlval.Int(5))}},
		Else:  divZero,
	}
	prog, err = pg.Compile(caseExpr, w)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := prog.Eval(&eval.Frame{Rows: w.rows}); err != nil || v.Int64() != 5 {
		t.Fatalf("lazy error arm: got %v, %v; want 5", v, err)
	}
	// And when the arm is taken, the error fires like the interpreter's.
	prog, err = pg.Compile(divZero, w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Eval(&eval.Frame{Rows: w.rows}); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("taken error arm: err = %v", err)
	}
}

func TestCompileCaseSensitiveLikeIsRuntime(t *testing.T) {
	// LIKE must read the pragma at evaluation time, not bake it in at
	// compile time (the engine flips it via PRAGMA between statements
	// while cached programs survive).
	w := sqliteWorld()
	ev := eval.New(dialect.SQLite)
	like := &sqlast.Binary{Op: sqlast.OpLike, L: sqlast.Lit(sqlval.Text("ABC")), R: sqlast.Lit(sqlval.Text("abc"))}
	prog, err := ev.Compile(like, w)
	if err != nil {
		t.Fatal(err)
	}
	f := &eval.Frame{Rows: w.rows}
	if tb, _ := prog.EvalBool(f); tb != sqlval.TriTrue {
		t.Fatalf("case-insensitive LIKE = %v, want TRUE", tb)
	}
	ev.CaseSensitiveLike = true
	if tb, _ := prog.EvalBool(f); tb != sqlval.TriFalse {
		t.Fatalf("case-sensitive LIKE = %v, want FALSE", tb)
	}
}

// TestBindMatchesCompile pins Bind to Compile's binding rule: for every
// expression, in every dialect, Bind returns exactly the error Compile
// returns (nil included), so the first bad reference in Compile's
// resolution order is the one reported. A clause whose references all
// resolve binds without allocating.
func TestBindMatchesCompile(t *testing.T) {
	ghost := func(col string) *sqlast.ColumnRef { return &sqlast.ColumnRef{Column: col, MaybeString: true} }
	exprs := []sqlast.Expr{
		sqlast.Col("t0", "c0"),
		sqlast.Col("t0", "nope"),
		&sqlast.ColumnRef{Column: "dup"},
		&sqlast.Binary{Op: sqlast.OpEq, L: sqlast.Col("", "bad1"), R: sqlast.Col("", "bad2")},
		&sqlast.Between{X: sqlast.Col("t0", "c0"), Lo: sqlast.Col("", "lo"), Hi: sqlast.Col("", "hi")},
		&sqlast.InList{X: sqlast.Col("t0", "c0"), List: []sqlast.Expr{sqlast.Lit(sqlval.Int(1)), sqlast.Col("", "item")}},
		&sqlast.Case{Whens: []sqlast.WhenClause{{When: sqlast.Col("", "w"), Then: sqlast.Col("", "th")}}, Else: sqlast.Col("", "el")},
		&sqlast.FuncCall{Name: "ABS", Args: []sqlast.Expr{&sqlast.Cast{X: sqlast.Col("", "arg"), TypeName: "INT"}}},
		&sqlast.Unary{Op: sqlast.OpNot, X: &sqlast.Unary{Op: sqlast.OpNot, X: sqlast.Col("", "inner")}},
		ghost("ghost"),
		ghost("dup"),
		&sqlast.Binary{Op: sqlast.OpAnd, L: ghost("ghost"), R: sqlast.Col("", "after")},
	}
	for _, d := range dialect.All {
		w, _ := diffWorldFor(d)
		ev := eval.New(d)
		for _, x := range exprs {
			_, cerr := ev.Compile(x, w)
			berr := ev.Bind(x, w)
			if (cerr == nil) != (berr == nil) || (cerr != nil && cerr.Error() != berr.Error()) {
				t.Errorf("%s: %s: Bind = %v, Compile = %v", d, sqlast.ExprSQL(x, d), berr, cerr)
			}
		}
	}

	w := sqliteWorld()
	ev := eval.New(dialect.SQLite)
	ok := &sqlast.Binary{Op: sqlast.OpAnd,
		L: &sqlast.Binary{Op: sqlast.OpGt, L: sqlast.Col("t0", "c0"), R: sqlast.Lit(sqlval.Int(1))},
		R: &sqlast.Unary{Op: sqlast.OpIsNull, X: sqlast.Col("t1", "dup")}}
	if n := testing.AllocsPerRun(100, func() {
		if err := ev.Bind(ok, w); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Bind allocated %.0f times per call, want 0", n)
	}
}
