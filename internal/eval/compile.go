// Compiled expression programs: the compile-once/run-many half of the
// evaluator. Compile resolves every column reference to a fixed
// (relation, column) slot against a statement's relation layout, folds
// constant subtrees, and lowers the tree into a chain of closures — so the
// per-row cost of a WHERE/ON/HAVING clause is slot loads and value
// operations, never string-based column resolution or interface dispatch
// over AST nodes.
//
// Fault fidelity is the design constraint: compiled comparisons route
// through the very same comparisonFaults/comparisonCollation helpers the
// tree-walk interpreter uses (over a metadata env bound at compile time),
// and fault toggles that the interpreter consults at evaluation time
// (faults.Set.Has, CaseSensitiveLike) stay runtime reads in the compiled
// closures. The one deliberate deviation: constant folding bakes in results
// computed under the fault set active at compile time, so mutating an
// evaluator's fault set after compiling programs is unsupported (no caller
// does; engines fix their fault set at Open).
//
// A Program is not safe for concurrent evaluation: its metadata env
// memoizes resolutions and function-call nodes reuse argument scratch.
// The engine serializes statements, which is the contract the executor
// already relies on.
package eval

import (
	"strings"

	"repro/internal/dialect"
	"repro/internal/faults"
	"repro/internal/sqlast"
	"repro/internal/sqlval"
	"repro/internal/xerr"
)

// Slot addresses one column at run time: the relation's position in the
// statement's layout and the column's position within that relation.
type Slot struct {
	Rel, Col int
}

// Layout is the compile-time shape of a statement's FROM sources. Resolve
// binds a (possibly unqualified) column reference once; per-row evaluation
// then reads through the returned slot.
type Layout interface {
	// Resolve binds a column reference to its slot and metadata. A missing
	// column fails with a CodeNoObject "no such column" error; an
	// unqualified reference matching more than one column fails with
	// ErrAmbiguousColumn.
	Resolve(table, column string) (Slot, Meta, error)
}

// ErrAmbiguousColumn is the distinct diagnostic for an unqualified column
// reference matching more than one relation column. Layouts and envs must
// build it through this constructor so the compiled and tree-walk paths
// report identical errors.
func ErrAmbiguousColumn(column string) error {
	return xerr.New(xerr.CodeNoObject, "ambiguous column name: %s", column)
}

// IsAmbiguousColumn recognizes ErrAmbiguousColumn errors.
func IsAmbiguousColumn(err error) bool {
	return err != nil && strings.HasPrefix(err.Error(), "ambiguous column name: ")
}

// ErrNoSuchColumn is the missing-column diagnostic, shared by bind-time
// resolution and the tree-walk fallback.
func ErrNoSuchColumn(table, column string) error {
	name := column
	if table != "" {
		name = table + "." + column
	}
	return xerr.New(xerr.CodeNoObject, "no such column: %s", name)
}

// Frame is the per-row evaluation state of a compiled Program: the current
// row of each relation, parallel to the compile-time layout. A nil row is
// the NULL-extended side of an outer join (every column reads as NULL).
type Frame struct {
	Rows [][]sqlval.Value
}

// thunk is one compiled node: a closure from row state to value-or-error.
type thunk func(*Frame) (sqlval.Value, error)

// Program is a compiled expression. Eval/EvalBool mirror Evaluator.Eval
// and Evaluator.EvalBool exactly — same values, same errors, same fault
// behaviour — at slot-load cost per column reference.
type Program struct {
	ev   *Evaluator
	root thunk
}

// Eval computes the program's value for the frame's current rows.
func (p *Program) Eval(f *Frame) (sqlval.Value, error) { return p.root(f) }

// EvalBool computes the program as a filter condition.
func (p *Program) EvalBool(f *Frame) (sqlval.TriBool, error) {
	v, err := p.root(f)
	if err != nil {
		return sqlval.TriUnknown, err
	}
	return p.ev.Truthy(v)
}

// Compile lowers e into a Program bound to the layout. Column resolution
// errors (missing or ambiguous references) surface here, once, instead of
// per row — except the SQLite double-quote misfeature: an unresolvable
// MaybeString reference compiles to the string constant the interpreter
// would produce.
func (ev *Evaluator) Compile(e sqlast.Expr, lay Layout) (*Program, error) {
	c := &compiler{ev: ev, menv: &boundMetaEnv{lay: lay}}
	t, _, err := c.compile(e)
	if err != nil {
		return nil, err
	}
	return &Program{ev: ev, root: t}, nil
}

// Bind checks e's column references against the layout and returns the
// error Compile would return for it, or nil. It is the bind step of the
// tree-walk path: references resolve in the order Compile resolves them
// (pre-order, operands left to right) under the same rule (resolveRef),
// so a statement Compile rejects is rejected identically, with the same
// first error, when the engine interprets it instead. Bind builds nothing
// and, when every reference resolves, allocates nothing.
func (ev *Evaluator) Bind(e sqlast.Expr, lay Layout) error {
	var err error
	sqlast.WalkExprs(e, func(x sqlast.Expr) bool {
		if err != nil {
			return false
		}
		if n, ok := x.(*sqlast.ColumnRef); ok {
			_, _, err = ev.resolveRef(n, lay)
		}
		return true
	})
	return err
}

// resolveRef is the ColumnRef binding rule Compile and Bind share: the
// layout's slot, except for SQLite's double-quote misfeature, where an
// unresolvable MaybeString token is demoted to the string constant the
// interpreter would produce. An ambiguous reference stays an error even
// then.
func (ev *Evaluator) resolveRef(n *sqlast.ColumnRef, lay Layout) (slot Slot, demoted bool, err error) {
	slot, _, err = lay.Resolve(n.Table, n.Column)
	if err != nil && n.MaybeString && ev.D == dialect.SQLite && !IsAmbiguousColumn(err) {
		return Slot{}, true, nil
	}
	return slot, false, err
}

// boundMetaEnv adapts a Layout into the metadata half of Env, memoizing
// resolutions so the shared fault/collation helpers cost one map hit per
// consulted name instead of a layout scan per row. Values never travel
// through it — comparisonFaults, comparisonCollation, and outOfTypeRange
// consult ColumnMeta exclusively; slot thunks carry the values.
type boundMetaEnv struct {
	lay  Layout
	memo map[[2]string]metaMemo
}

type metaMemo struct {
	m  Meta
	ok bool
}

// ColumnValue implements Env; the compiled path never reads values by name.
func (b *boundMetaEnv) ColumnValue(string, string) (sqlval.Value, bool) {
	return sqlval.Null(), false
}

// ColumnMeta implements Env over the layout, with memoization.
func (b *boundMetaEnv) ColumnMeta(table, column string) (Meta, bool) {
	k := [2]string{table, column}
	if e, hit := b.memo[k]; hit {
		return e.m, e.ok
	}
	_, m, err := b.lay.Resolve(table, column)
	e := metaMemo{m: m, ok: err == nil}
	if b.memo == nil {
		b.memo = make(map[[2]string]metaMemo, 4)
	}
	b.memo[k] = e
	return e.m, e.ok
}

// compiler carries one Compile invocation's state.
type compiler struct {
	ev   *Evaluator
	menv *boundMetaEnv
}

// constThunk wraps a precomputed value.
func constThunk(v sqlval.Value) thunk {
	return func(*Frame) (sqlval.Value, error) { return v, nil }
}

// compile lowers one node, then folds it if the subtree is pure: no column
// references and no dependence on evaluator state that can change between
// compile and run (LIKE reads the case_sensitive_like pragma at eval time,
// so LIKE nodes stay unfolded). A pure subtree that evaluates to an error
// is deliberately left as a closure: the interpreter only raises such an
// error if the node is actually reached (e.g. a never-taken CASE arm), and
// folding eagerly would change that.
func (c *compiler) compile(e sqlast.Expr) (thunk, bool, error) {
	t, pure, err := c.compileNode(e)
	if err != nil {
		return nil, false, err
	}
	if pure {
		if _, isLit := e.(*sqlast.Literal); !isLit {
			if v, ferr := t(&Frame{}); ferr == nil {
				return constThunk(v), true, nil
			}
		}
	}
	return t, pure, nil
}

func (c *compiler) compileNode(e sqlast.Expr) (thunk, bool, error) {
	ev := c.ev
	switch n := e.(type) {
	case *sqlast.Literal:
		return constThunk(n.Val), true, nil

	case *sqlast.ColumnRef:
		slot, demoted, err := ev.resolveRef(n, c.menv.lay)
		if err != nil {
			return nil, false, err
		}
		if demoted {
			return constThunk(sqlval.Text(n.Column)), true, nil
		}
		rel, col := slot.Rel, slot.Col
		return func(f *Frame) (sqlval.Value, error) {
			row := f.Rows[rel]
			if row == nil || col >= len(row) {
				// NULL-extended outer-join side, or a short row.
				return sqlval.Null(), nil
			}
			return row[col], nil
		}, false, nil

	case *sqlast.Collate:
		// Collation influences enclosing comparisons structurally (the
		// comparison compiler inspects the AST); the node itself is
		// transparent, exactly as in the interpreter.
		return c.compile(n.X)

	case *sqlast.Unary:
		return c.compileUnary(n)

	case *sqlast.Binary:
		return c.compileBinary(n)

	case *sqlast.Between:
		x, xp, err := c.compile(n.X)
		if err != nil {
			return nil, false, err
		}
		lo, lop, err := c.compile(n.Lo)
		if err != nil {
			return nil, false, err
		}
		hi, hip, err := c.compile(n.Hi)
		if err != nil {
			return nil, false, err
		}
		coll := ev.comparisonCollation(n.X, n.Lo, c.menv)
		not := n.Not
		return func(f *Frame) (sqlval.Value, error) {
			xv, err := x(f)
			if err != nil {
				return sqlval.Null(), err
			}
			lov, err := lo(f)
			if err != nil {
				return sqlval.Null(), err
			}
			hiv, err := hi(f)
			if err != nil {
				return sqlval.Null(), err
			}
			ge, err := ev.compareOp(xv, lov, sqlast.OpGe, coll)
			if err != nil {
				return sqlval.Null(), err
			}
			le, err := ev.compareOp(xv, hiv, sqlast.OpLe, coll)
			if err != nil {
				return sqlval.Null(), err
			}
			res := ge.And(le)
			if not {
				res = res.Not()
			}
			return ev.boolVal(res), nil
		}, xp && lop && hip, nil

	case *sqlast.InList:
		x, xp, err := c.compile(n.X)
		if err != nil {
			return nil, false, err
		}
		pure := xp
		items := make([]thunk, len(n.List))
		for i, item := range n.List {
			it, ip, err := c.compile(item)
			if err != nil {
				return nil, false, err
			}
			items[i] = it
			pure = pure && ip
		}
		coll := ev.comparisonCollation(n.X, nil, c.menv)
		not := n.Not
		return func(f *Frame) (sqlval.Value, error) {
			xv, err := x(f)
			if err != nil {
				return sqlval.Null(), err
			}
			res := sqlval.TriFalse
			for _, it := range items {
				v, err := it(f)
				if err != nil {
					return sqlval.Null(), err
				}
				eq, err := ev.compareOp(xv, v, sqlast.OpEq, coll)
				if err != nil {
					return sqlval.Null(), err
				}
				res = res.Or(eq)
			}
			if not {
				res = res.Not()
			}
			return ev.boolVal(res), nil
		}, pure, nil

	case *sqlast.Cast:
		x, xp, err := c.compile(n.X)
		if err != nil {
			return nil, false, err
		}
		typeName := n.TypeName
		return func(f *Frame) (sqlval.Value, error) {
			v, err := x(f)
			if err != nil {
				return sqlval.Null(), err
			}
			return ev.Cast(v, typeName)
		}, xp, nil

	case *sqlast.Case:
		return c.compileCase(n)

	case *sqlast.FuncCall:
		pure := true
		args := make([]thunk, len(n.Args))
		for i, a := range n.Args {
			at, ap, err := c.compile(a)
			if err != nil {
				return nil, false, err
			}
			args[i] = at
			pure = pure && ap
		}
		name := n.Name
		scratch := make([]sqlval.Value, len(args))
		return func(f *Frame) (sqlval.Value, error) {
			for i, at := range args {
				v, err := at(f)
				if err != nil {
					return sqlval.Null(), err
				}
				scratch[i] = v
			}
			return ev.Scalar(name, scratch)
		}, pure, nil

	default:
		return func(*Frame) (sqlval.Value, error) {
			return sqlval.Null(), xerr.New(xerr.CodeUnsupported, "unsupported expression %T", e)
		}, false, nil
	}
}

func (c *compiler) compileUnary(n *sqlast.Unary) (thunk, bool, error) {
	ev := c.ev
	x, xp, err := c.compile(n.X)
	if err != nil {
		return nil, false, err
	}
	main := c.unaryOp(n.Op, x)

	// Structural fault shapes compile to runtime-gated alternates so the
	// rewrite fires exactly when the interpreter's Has check would.
	if n.Op == sqlast.OpNot && ev.D == dialect.MySQL {
		// Fault site (mysql.double-negation, Listing 13).
		if inner, ok := n.X.(*sqlast.Unary); ok && inner.Op == sqlast.OpNot {
			alt, _, err := c.compile(inner.X)
			if err != nil {
				return nil, false, err
			}
			return func(f *Frame) (sqlval.Value, error) {
				if ev.Faults.Has(faults.DoubleNegation) {
					return alt(f)
				}
				return main(f)
			}, false, nil
		}
	}
	if n.Op == sqlast.OpNot && ev.D == dialect.SQLite {
		// Fault site (sqlite.is-not-null-opt).
		if inner, ok := n.X.(*sqlast.Unary); ok && inner.Op == sqlast.OpIsNull {
			if _, isCol := inner.X.(*sqlast.ColumnRef); isCol {
				return func(f *Frame) (sqlval.Value, error) {
					if ev.Faults.Has(faults.IsNotNullOpt) {
						return sqlval.Int(1), nil
					}
					return main(f)
				}, false, nil
			}
		}
	}
	return main, xp, nil
}

// unaryOp builds the non-fault thunk for a unary operator over a compiled
// operand.
func (c *compiler) unaryOp(op sqlast.UnaryOp, x thunk) thunk {
	ev := c.ev
	switch op {
	case sqlast.OpNot:
		return func(f *Frame) (sqlval.Value, error) {
			v, err := x(f)
			if err != nil {
				return sqlval.Null(), err
			}
			t, err := ev.Truthy(v)
			if err != nil {
				return sqlval.Null(), err
			}
			return ev.boolVal(t.Not()), nil
		}
	case sqlast.OpIsNull:
		return func(f *Frame) (sqlval.Value, error) {
			v, err := x(f)
			if err != nil {
				return sqlval.Null(), err
			}
			return ev.boolVal(sqlval.TriOf(v.IsNull())), nil
		}
	case sqlast.OpNotNull:
		return func(f *Frame) (sqlval.Value, error) {
			v, err := x(f)
			if err != nil {
				return sqlval.Null(), err
			}
			return ev.boolVal(sqlval.TriOf(!v.IsNull())), nil
		}
	case sqlast.OpNeg:
		return func(f *Frame) (sqlval.Value, error) {
			v, err := x(f)
			if err != nil {
				return sqlval.Null(), err
			}
			return ev.negate(v)
		}
	case sqlast.OpPos:
		return func(f *Frame) (sqlval.Value, error) {
			v, err := x(f)
			if err != nil {
				return sqlval.Null(), err
			}
			if ev.D == dialect.Postgres && !v.IsNull() && !v.IsNumeric() {
				return sqlval.Null(), typeError("unary + on %s", v.Kind())
			}
			return v, nil
		}
	case sqlast.OpBitNot:
		return func(f *Frame) (sqlval.Value, error) {
			v, err := x(f)
			if err != nil {
				return sqlval.Null(), err
			}
			if v.IsNull() {
				return sqlval.Null(), nil
			}
			if ev.D == dialect.Postgres && v.Kind() != sqlval.KInt {
				return sqlval.Null(), typeError("~ on %s", v.Kind())
			}
			return sqlval.Int(^clampInt64(ev.numeric(v))), nil
		}
	default:
		return func(*Frame) (sqlval.Value, error) {
			return sqlval.Null(), xerr.New(xerr.CodeUnsupported, "unary operator")
		}
	}
}

func (c *compiler) compileBinary(n *sqlast.Binary) (thunk, bool, error) {
	ev := c.ev
	l, lp, err := c.compile(n.L)
	if err != nil {
		return nil, false, err
	}
	r, rp, err := c.compile(n.R)
	if err != nil {
		return nil, false, err
	}
	pure := lp && rp

	switch n.Op {
	case sqlast.OpAnd, sqlast.OpOr:
		// The interpreter evaluates both sides unconditionally (no short
		// circuit), so errors surface in the same order here.
		and := n.Op == sqlast.OpAnd
		return func(f *Frame) (sqlval.Value, error) {
			lv, err := l(f)
			if err != nil {
				return sqlval.Null(), err
			}
			lt, err := ev.Truthy(lv)
			if err != nil {
				return sqlval.Null(), err
			}
			rv, err := r(f)
			if err != nil {
				return sqlval.Null(), err
			}
			rt, err := ev.Truthy(rv)
			if err != nil {
				return sqlval.Null(), err
			}
			if and {
				return ev.boolVal(lt.And(rt)), nil
			}
			return ev.boolVal(lt.Or(rt)), nil
		}, pure, nil

	case sqlast.OpEq, sqlast.OpNe, sqlast.OpLt, sqlast.OpLe, sqlast.OpGt, sqlast.OpGe:
		coll := ev.comparisonCollation(n.L, n.R, c.menv)
		node, menv := n, c.menv
		return func(f *Frame) (sqlval.Value, error) {
			lv, err := l(f)
			if err != nil {
				return sqlval.Null(), err
			}
			rv, err := r(f)
			if err != nil {
				return sqlval.Null(), err
			}
			// Same injected-bug routing as the interpreter: the helper
			// checks the enabled-fault set itself, so detection parity is
			// by construction rather than by transcription.
			if v, handled, err := ev.comparisonFaults(node, lv, rv, menv); handled || err != nil {
				return v, err
			}
			t, err := ev.compareOp(lv, rv, node.Op, coll)
			if err != nil {
				return sqlval.Null(), err
			}
			return ev.boolVal(t), nil
		}, pure, nil

	case sqlast.OpIs, sqlast.OpIsNot:
		coll := ev.comparisonCollation(n.L, n.R, c.menv)
		isNot := n.Op == sqlast.OpIsNot
		return func(f *Frame) (sqlval.Value, error) {
			lv, err := l(f)
			if err != nil {
				return sqlval.Null(), err
			}
			rv, err := r(f)
			if err != nil {
				return sqlval.Null(), err
			}
			eq, err := ev.nullSafeEq(lv, rv, coll)
			if err != nil {
				return sqlval.Null(), err
			}
			if isNot {
				eq = !eq
			}
			return ev.boolVal(sqlval.TriOf(eq)), nil
		}, pure, nil

	case sqlast.OpNullSafeEq:
		coll := ev.comparisonCollation(n.L, n.R, c.menv)
		node, menv := n, c.menv
		return func(f *Frame) (sqlval.Value, error) {
			lv, err := l(f)
			if err != nil {
				return sqlval.Null(), err
			}
			rv, err := r(f)
			if err != nil {
				return sqlval.Null(), err
			}
			// Fault site (mysql.null-safe-eq-range, Listing 12).
			if ev.D == dialect.MySQL && ev.Faults.Has(faults.NullSafeEqRange) {
				if outOfTypeRange(node.L, rv, menv) {
					return ev.boolVal(sqlval.TriOf(lv.IsNull())), nil
				}
				if outOfTypeRange(node.R, lv, menv) {
					return ev.boolVal(sqlval.TriOf(rv.IsNull())), nil
				}
			}
			eq, err := ev.nullSafeEq(lv, rv, coll)
			if err != nil {
				return sqlval.Null(), err
			}
			return ev.boolVal(sqlval.TriOf(eq)), nil
		}, pure, nil

	case sqlast.OpLike, sqlast.OpNotLike:
		lExpr := n.L
		not := n.Op == sqlast.OpNotLike
		// Never pure: LIKE reads the case_sensitive_like pragma at
		// evaluation time, which can change between compile and run.
		return func(f *Frame) (sqlval.Value, error) {
			lv, err := l(f)
			if err != nil {
				return sqlval.Null(), err
			}
			rv, err := r(f)
			if err != nil {
				return sqlval.Null(), err
			}
			t, err := ev.like(lExpr, lv, rv)
			if err != nil {
				return sqlval.Null(), err
			}
			if not {
				t = t.Not()
			}
			return ev.boolVal(t), nil
		}, false, nil

	case sqlast.OpAdd, sqlast.OpSub, sqlast.OpMul, sqlast.OpDiv, sqlast.OpMod:
		op := n.Op
		return func(f *Frame) (sqlval.Value, error) {
			lv, err := l(f)
			if err != nil {
				return sqlval.Null(), err
			}
			rv, err := r(f)
			if err != nil {
				return sqlval.Null(), err
			}
			return ev.arith(lv, rv, op)
		}, pure, nil

	case sqlast.OpConcat:
		return func(f *Frame) (sqlval.Value, error) {
			lv, err := l(f)
			if err != nil {
				return sqlval.Null(), err
			}
			rv, err := r(f)
			if err != nil {
				return sqlval.Null(), err
			}
			return ev.concat(lv, rv)
		}, pure, nil

	case sqlast.OpBitAnd, sqlast.OpBitOr, sqlast.OpShl, sqlast.OpShr:
		op := n.Op
		return func(f *Frame) (sqlval.Value, error) {
			lv, err := l(f)
			if err != nil {
				return sqlval.Null(), err
			}
			rv, err := r(f)
			if err != nil {
				return sqlval.Null(), err
			}
			return ev.bits(lv, rv, op)
		}, pure, nil
	}
	return func(*Frame) (sqlval.Value, error) {
		return sqlval.Null(), xerr.New(xerr.CodeUnsupported, "binary operator")
	}, false, nil
}

func (c *compiler) compileCase(n *sqlast.Case) (thunk, bool, error) {
	ev := c.ev
	pure := true
	var operand thunk
	if n.Operand != nil {
		var op bool
		var err error
		operand, op, err = c.compile(n.Operand)
		if err != nil {
			return nil, false, err
		}
		pure = pure && op
	}
	whens := make([]thunk, len(n.Whens))
	thens := make([]thunk, len(n.Whens))
	colls := make([]sqlval.Collation, len(n.Whens))
	for i, w := range n.Whens {
		wt, wp, err := c.compile(w.When)
		if err != nil {
			return nil, false, err
		}
		tt, tp, err := c.compile(w.Then)
		if err != nil {
			return nil, false, err
		}
		whens[i], thens[i] = wt, tt
		pure = pure && wp && tp
		if n.Operand != nil {
			colls[i] = ev.comparisonCollation(n.Operand, w.When, c.menv)
		}
	}
	var elseT thunk
	if n.Else != nil {
		var ep bool
		var err error
		elseT, ep, err = c.compile(n.Else)
		if err != nil {
			return nil, false, err
		}
		pure = pure && ep
	}
	return func(f *Frame) (sqlval.Value, error) {
		for i := range whens {
			var hit sqlval.TriBool
			if operand != nil {
				// The interpreter re-evaluates the operand per arm; keep
				// that order so errors and side observations match.
				opv, err := operand(f)
				if err != nil {
					return sqlval.Null(), err
				}
				wv, err := whens[i](f)
				if err != nil {
					return sqlval.Null(), err
				}
				hit, err = ev.compareOp(opv, wv, sqlast.OpEq, colls[i])
				if err != nil {
					return sqlval.Null(), err
				}
			} else {
				wv, err := whens[i](f)
				if err != nil {
					return sqlval.Null(), err
				}
				hit, err = ev.Truthy(wv)
				if err != nil {
					return sqlval.Null(), err
				}
			}
			if hit == sqlval.TriTrue {
				return thens[i](f)
			}
		}
		if elseT != nil {
			return elseT(f)
		}
		return sqlval.Null(), nil
	}, pure, nil
}
