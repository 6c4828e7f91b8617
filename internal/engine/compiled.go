// Compiled-expression wiring for the executor: exprEval, the per-clause
// facade that hands the query path closures which evaluate through a
// compiled program when the clause will run over enough row combinations
// to repay compiling it, and through the tree-walk interpreter otherwise
// or when compilation is disabled (strategy.Compile in WithDisabled, the
// `-disable compile` escape hatch, which means "never compile").
//
// A program lives exactly as long as the statement that compiled it: it
// is compiled against that statement's relations and is garbage when the
// statement returns. Nothing caches programs, so schema changes, resets
// and snapshot restores have nothing to invalidate.
package engine

import (
	"repro/internal/eval"
	"repro/internal/sqlast"
	"repro/internal/sqlval"
	"repro/internal/strategy"
)

// compileMinRows is the number of row combinations from which a clause is
// compiled rather than interpreted. Compiling costs a fixed set of
// closures per clause and saves name resolution per row; below this count
// the tree walk is as fast and allocates less. The value is the measured
// crossover (table in DESIGN.md "Compiled expression programs",
// BenchmarkCompileCrossover in this package).
const compileMinRows = 8

// compileThreshold is the row count newExprEval compares against. It is
// compileMinRows except in this package's tests, which lower it so the
// differential suites keep running compiled programs on tables smaller
// than the crossover. Nothing outside tests writes it.
var compileThreshold = compileMinRows

// exprEval evaluates the expressions of one clause group of a SELECT
// execution. The query path asks it for a closure once per clause and
// calls the closure once per row combination: compiled, the closure runs
// a slot-bound program over a reusable frame; interpreted, it walks the
// tree through the joined-row env.
type exprEval struct {
	e        *Engine
	compiled bool
	env      joinedEnv
	frame    eval.Frame
}

// newExprEval prepares expression evaluation over a relation set whose
// clauses will run over rows row combinations. The choice is made here,
// once, from a count the caller already knows: compile when rows reaches
// compileThreshold and compilation is enabled, interpret otherwise.
func (e *Engine) newExprEval(rels []*relation, rows int) *exprEval {
	x := &exprEval{e: e, env: joinedEnv{rels: rels}}
	if !e.off.Has(strategy.Compile) && rows >= compileThreshold {
		x.compiled = true
		x.frame.Rows = make([][]sqlval.Value, len(rels))
	}
	return x
}

// setRow points the evaluation state at one row combination; the closures
// returned by valueFn/boolFn evaluate against the most recent setRow.
// Callers bind the row once per combination, however many expressions
// they then evaluate on it. A nil row (or a combo shorter than the
// layout) is the NULL-extended side of an outer join.
func (x *exprEval) setRow(combo []*rowVals) {
	if !x.compiled {
		x.env.current = combo
		return
	}
	rows := x.frame.Rows
	for i := range rows {
		if i < len(combo) && combo[i] != nil {
			rows[i] = combo[i].vals
		} else {
			rows[i] = nil
		}
	}
}

// valueFn returns a closure computing expr against the current row (see
// setRow). Missing and ambiguous column references surface here, once
// per clause, on both paths: compiled, from eval.Compile; interpreted,
// from eval.Bind, which reports the same first error. So whether a
// statement fails never depends on the path or on how many rows it reads
// (a bad reference over an empty table fails too, as a real DBMS's
// prepare step does).
func (x *exprEval) valueFn(expr sqlast.Expr) (func() (sqlval.Value, error), error) {
	if !x.compiled {
		if err := x.e.ev.Bind(expr, &x.env); err != nil {
			return nil, err
		}
		return func() (sqlval.Value, error) {
			return x.e.ev.Eval(expr, &x.env)
		}, nil
	}
	prog, err := x.e.ev.Compile(expr, &x.env)
	if err != nil {
		return nil, err
	}
	return func() (sqlval.Value, error) {
		return prog.Eval(&x.frame)
	}, nil
}

// boolFn is valueFn for filter conditions.
func (x *exprEval) boolFn(expr sqlast.Expr) (func() (sqlval.TriBool, error), error) {
	if !x.compiled {
		if err := x.e.ev.Bind(expr, &x.env); err != nil {
			return nil, err
		}
		return func() (sqlval.TriBool, error) {
			return x.e.ev.EvalBool(expr, &x.env)
		}, nil
	}
	prog, err := x.e.ev.Compile(expr, &x.env)
	if err != nil {
		return nil, err
	}
	return func() (sqlval.TriBool, error) {
		return prog.EvalBool(&x.frame)
	}, nil
}
