// Compiled-expression wiring for the executor: exprEval, the per-clause
// facade that binds each clause of a SELECT once and hands the query path
// a boundExpr value to evaluate it per row combination. A boundExpr runs
// a compiled program when the clause will run over enough row
// combinations to repay compiling it, and the tree-walk interpreter
// otherwise or when compilation is disabled (strategy.Compile in
// WithDisabled, the `-disable compile` escape hatch, which means "never
// compile"). Bound clauses are plain values: binding allocates nothing
// beyond what compiling itself builds.
//
// A program lives exactly as long as the statement that compiled it: it
// is compiled against that statement's relations and is garbage when the
// statement returns. Nothing caches programs, so schema changes, resets
// and snapshot restores have nothing to invalidate. The exprEvals
// themselves live in the engine's statement scratch (scratch.go) and are
// reset, not reallocated, per statement.
package engine

import (
	"repro/internal/eval"
	"repro/internal/sqlast"
	"repro/internal/sqlval"
	"repro/internal/storage"
	"repro/internal/strategy"
)

// compileMinRows is the number of row combinations from which a clause is
// compiled rather than interpreted. Compiling costs a fixed set of
// closures per clause and saves name resolution per row; below this count
// the tree walk is as fast and allocates less. The value is the measured
// crossover (table in DESIGN.md "Compiled expression programs",
// BenchmarkCompileCrossover in this package).
const compileMinRows = 8

// compileThreshold is the row count exprEval.reset compares against. It
// is compileMinRows except in this package's tests, which lower it so the
// differential suites keep running compiled programs on tables smaller
// than the crossover. Nothing outside tests writes it.
var compileThreshold = compileMinRows

// exprEval evaluates the expressions of one clause group of a SELECT
// execution. The query path binds each clause once (bind) and evaluates
// the bound clause once per row combination: compiled, it runs a
// slot-bound program over a reusable frame; interpreted, it walks the
// tree through the joined-row env.
type exprEval struct {
	e        *Engine
	compiled bool
	env      joinedEnv
	frame    eval.Frame
}

// reset prepares x for evaluation over a relation set whose clauses will
// run over rows row combinations. The choice is made here, once, from a
// count the caller already knows: compile when rows reaches
// compileThreshold and compilation is enabled, interpret otherwise. The
// frame's row slice keeps its capacity from earlier statements.
func (x *exprEval) reset(e *Engine, rels []*relation, rows int) {
	x.e, x.env = e, joinedEnv{rels: rels}
	x.compiled = !e.off.Has(strategy.Compile) && rows >= compileThreshold
	if x.compiled {
		if cap(x.frame.Rows) < len(rels) {
			x.frame.Rows = make([][]sqlval.Value, len(rels))
		}
		x.frame.Rows = x.frame.Rows[:len(rels)]
	}
}

// release drops x's references into the finished statement's rows and
// relations, keeping the frame's capacity unless it exceeds the scratch
// retention cap.
func (x *exprEval) release() {
	x.e, x.env = nil, joinedEnv{}
	x.frame.Rows = retainScratch(x.frame.Rows)
}

// setRow points the evaluation state at one row combination; bound
// clauses evaluate against the most recent setRow. Callers bind the row
// once per combination, however many expressions they then evaluate on
// it. A nil row (or a combo shorter than the layout) is the NULL-extended
// side of an outer join.
func (x *exprEval) setRow(combo []*storage.Row) {
	if !x.compiled {
		x.env.current = combo
		return
	}
	rows := x.frame.Rows
	for i := range rows {
		if i < len(combo) && combo[i] != nil {
			rows[i] = combo[i].Vals
		} else {
			rows[i] = nil
		}
	}
}

// boundExpr is one clause bound to an exprEval: its compiled program, or
// nil for the tree walk over expr. The zero value is an unbound clause.
type boundExpr struct {
	x    *exprEval
	expr sqlast.Expr
	prog *eval.Program
}

// bind binds expr for evaluation against the current row (see setRow).
// Missing and ambiguous column references surface here, once per clause,
// on both paths: compiled, from eval.Compile; interpreted, from
// eval.Bind, which reports the same first error. So whether a statement
// fails never depends on the path or on how many rows it reads (a bad
// reference over an empty table fails too, as a real DBMS's prepare step
// does).
func (x *exprEval) bind(expr sqlast.Expr) (boundExpr, error) {
	if !x.compiled {
		if err := x.e.ev.Bind(expr, &x.env); err != nil {
			return boundExpr{}, err
		}
		return boundExpr{x: x, expr: expr}, nil
	}
	prog, err := x.e.ev.Compile(expr, &x.env)
	if err != nil {
		return boundExpr{}, err
	}
	return boundExpr{x: x, expr: expr, prog: prog}, nil
}

// value computes the clause against the current row.
func (b *boundExpr) value() (sqlval.Value, error) {
	if b.prog != nil {
		return b.prog.Eval(&b.x.frame)
	}
	return b.x.e.ev.Eval(b.expr, &b.x.env)
}

// test evaluates the clause as a filter condition.
func (b *boundExpr) test() (sqlval.TriBool, error) {
	if b.prog != nil {
		return b.prog.EvalBool(&b.x.frame)
	}
	return b.x.e.ev.EvalBool(b.expr, &b.x.env)
}
