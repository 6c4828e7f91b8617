// Hash-join and index-lookup-join execution with cost-based strategy
// selection. joinRows (query.go) analyzes each join level and dispatches to
// one of three operators:
//
//   - nested loop: the always-correct baseline — every (combo, row) pair is
//     evaluated against the full ON condition;
//   - hash join: equality conjuncts of the ON condition (or, for implicit
//     cross joins, of the WHERE clause) become normalized byte keys; a hash
//     table built on the estimated-smaller side turns O(n×m) enumeration
//     into O(n+m) bucket probes. Bucket equality deliberately COARSENS the
//     evaluator's equality (eval-equal values always share a key; unequal
//     values may collide), so every candidate pair is still verified by the
//     full ON condition — collisions cost time, never correctness;
//   - index-lookup join: when the inner table has a usable index on the
//     join column, each outer combo probes it directly, skipping the build.
//
// Eligibility is conservative: the hash path only replaces the nested loop
// when skipping non-candidate pairs cannot be observed — the condition must
// be error-free to evaluate in SQLite/MySQL, and in Postgres (whose
// comparisons raise type errors) the ON must be a pure equi-join whose key
// columns hold runtime-compatible value classes on both sides. Faults that
// rewrite `=` semantics (affinity/typing faults) disable hashing outright,
// so the pre-existing 46-fault detection matrix is byte-identical with hashing on or
// off. Output order is preserved exactly: left-major, inner rows in scan
// order — byte-identical result sets, not just equal multisets.
package engine

import (
	"math"
	"sort"
	"strings"

	"repro/internal/dialect"
	"repro/internal/eval"
	"repro/internal/faults"
	"repro/internal/schema"
	"repro/internal/sqlast"
	"repro/internal/sqlval"
	"repro/internal/strategy"
)

// JoinStrategy names the operator chosen for one join level.
type JoinStrategy uint8

// Join strategies.
const (
	// JoinNested is the pairwise nested-loop baseline.
	JoinNested JoinStrategy = iota
	// JoinHash builds a hash table on the smaller side and probes it.
	JoinHash
	// JoinIndexLookup probes an inner-table index per outer combo.
	JoinIndexLookup
)

// String names the strategy in EXPLAIN output.
func (s JoinStrategy) String() string {
	switch s {
	case JoinHash:
		return "HASH"
	case JoinIndexLookup:
		return "INDEX LOOKUP"
	default:
		return "NESTED LOOP"
	}
}

// equiKey is one equality conjunct usable as a hash-join key: a column of
// an earlier relation equated with a column of the level's new relation.
type equiKey struct {
	lRel, lCol int // outer side: relation index < level, column index
	rCol       int // inner side: column index in the level's relation
	// coll is the effective comparison collation, resolved exactly the way
	// eval.comparisonCollation does (explicit COLLATE, else the first
	// column operand's declared collation).
	coll sqlval.Collation
}

// joinAnalysis is the per-level eligibility result feeding strategy choice.
type joinAnalysis struct {
	keys []equiKey
	// idx is a usable inner-table index on one key's column (SQLite,
	// fault-free engines only); idxKey/idxAff describe the probe.
	idx    *schema.Index
	idxKey equiKey
	idxAff sqlval.Affinity
}

// hashBlockingFaults rewrite equality/comparison semantics, breaking the
// "eval-equal implies key-equal" invariant hash bucketing relies on. Any of
// them enabled forces every join level back to the nested loop, so their
// detection behaviour is trivially identical with strategy.HashJoin on or off.
var hashBlockingFaults = []faults.Fault{
	faults.AffinityCompare,
	faults.MemoryEngineCast,
	faults.UnsignedCompare,
	faults.TinyintRangeClamp,
	faults.NullSafeEqRange,
}

func (e *Engine) hashJoinBlocked() bool {
	for _, f := range hashBlockingFaults {
		if e.fs.Has(f) {
			return true
		}
	}
	return false
}

// crossPrefilterOK reports whether implicit cross-join levels may use
// WHERE-derived equality conjuncts as hash keys. Sound because a combo can
// only survive filterCombos when the WHERE is TRUE, which requires every
// AND-conjunct TRUE — so dropping pairs that fail an equality conjunct
// early never changes the filtered result. Restricted to fault-free
// engines (faults like where-true-drop key off the exact combo stream) and
// non-Postgres dialects (Postgres comparisons can raise type errors that
// the full enumeration would surface).
func (e *Engine) crossPrefilterOK(n *sqlast.Select, rels []*relation) bool {
	return !e.off.Has(strategy.HashJoin) && e.d != dialect.Postgres && n.Where != nil &&
		e.fs.Empty() && errFreeOn(n.Where, rels)
}

// errFreeOn reports whether evaluating x can never raise a runtime error in
// the SQLite/MySQL dialects — the hash path evaluates the condition only on
// bucket-matched candidate pairs, so a pair-dependent error on a skipped
// pair would be an observable divergence from the nested loop. The
// whitelist is deliberately tight: literals, resolvable plain column
// references, COLLATE, NOT / IS NULL tests, logical connectives, and
// comparisons (whose NULL handling precedes ordering, and whose ordering
// never errors outside Postgres). Arithmetic (division by zero, overflow),
// LIKE, casts, function calls, and unresolvable or double-quoted
// maybe-string references all disqualify the condition.
func errFreeOn(x sqlast.Expr, rels []*relation) bool {
	switch n := x.(type) {
	case *sqlast.Literal:
		return true
	case *sqlast.ColumnRef:
		if n.MaybeString {
			return false
		}
		ri, _, _ := findColumn(rels, n.Table, n.Column)
		return ri >= 0
	case *sqlast.Collate:
		return errFreeOn(n.X, rels)
	case *sqlast.Unary:
		switch n.Op {
		case sqlast.OpNot, sqlast.OpIsNull, sqlast.OpNotNull:
			return errFreeOn(n.X, rels)
		}
		return false
	case *sqlast.Binary:
		switch n.Op {
		case sqlast.OpAnd, sqlast.OpOr, sqlast.OpEq, sqlast.OpNe,
			sqlast.OpLt, sqlast.OpLe, sqlast.OpGt, sqlast.OpGe,
			sqlast.OpIs, sqlast.OpIsNot, sqlast.OpNullSafeEq:
			return errFreeOn(n.L, rels) && errFreeOn(n.R, rels)
		}
		return false
	case *sqlast.Between:
		return errFreeOn(n.X, rels) && errFreeOn(n.Lo, rels) && errFreeOn(n.Hi, rels)
	}
	return false
}

// pureEquiOn reports whether every AND-conjunct of an ON condition is a
// cross-boundary column equality — the Postgres eligibility bar. With only
// such conjuncts, the sole runtime error a pair can raise is a cross-class
// comparison on a key column, which pgJoinClassesCompatible rules out
// before the hash path runs (falling back to the nested loop, which raises
// the identical error naturally, when it cannot).
func pureEquiOn(cond sqlast.Expr, vis []*relation, level int) bool {
	n := 0
	for _, conj := range conjuncts(cond) {
		if equiKeyOf(conj, vis, level) == nil {
			return false
		}
		n++
	}
	return n > 0
}

// equiKeyOf recognizes one conjunct as a cross-boundary equality key:
// `a = b` where both sides (each under at most one COLLATE) are plain
// column references resolving unambiguously, one into the level's new
// relation and the other into an earlier one.
func equiKeyOf(conj sqlast.Expr, vis []*relation, level int) *equiKey {
	b, ok := conj.(*sqlast.Binary)
	if !ok || b.Op != sqlast.OpEq {
		return nil
	}
	l, _, _ := stripOneCollate(b.L)
	r, _, _ := stripOneCollate(b.R)
	lcr, lok := l.(*sqlast.ColumnRef)
	rcr, rok := r.(*sqlast.ColumnRef)
	if !lok || !rok || lcr.MaybeString || rcr.MaybeString {
		return nil
	}
	lri, lci, _ := findColumn(vis, lcr.Table, lcr.Column)
	rri, rci, _ := findColumn(vis, rcr.Table, rcr.Column)
	if lri < 0 || rri < 0 {
		return nil
	}
	var k equiKey
	switch {
	case lri == level && rri < level:
		k = equiKey{lRel: rri, lCol: rci, rCol: lci}
	case rri == level && lri < level:
		k = equiKey{lRel: lri, lCol: lci, rCol: rci}
	default:
		return nil
	}
	k.coll = joinKeyCollation(b, vis)
	return &k
}

// joinKeyCollation mirrors eval.comparisonCollation for an equality whose
// operands are (possibly COLLATE-wrapped) column references: an explicit
// COLLATE wins (left operand first), else the first column operand's
// declared collation applies.
func joinKeyCollation(b *sqlast.Binary, vis []*relation) sqlval.Collation {
	if c, ok := b.L.(*sqlast.Collate); ok {
		return c.Coll
	}
	if c, ok := b.R.(*sqlast.Collate); ok {
		return c.Coll
	}
	for _, x := range []sqlast.Expr{b.L, b.R} {
		if cr, ok := x.(*sqlast.ColumnRef); ok {
			if ri, ci, _ := findColumn(vis, cr.Table, cr.Column); ri >= 0 {
				return vis[ri].columns[ci].Collate
			}
		}
	}
	return sqlval.CollBinary
}

// extractEquiKeys collects every cross-boundary equality conjunct of cond
// usable as a hash key at this level. Conjuncts that are not keys stay in
// the residual: the full condition is re-verified on every candidate pair.
func extractEquiKeys(cond sqlast.Expr, vis []*relation, level int) []equiKey {
	var keys []equiKey
	for _, conj := range conjuncts(cond) {
		if k := equiKeyOf(conj, vis, level); k != nil {
			keys = append(keys, *k)
		}
	}
	return keys
}

// analyzeJoin decides hash/index eligibility for one join level, returning
// nil when only the nested loop is sound.
func (e *Engine) analyzeJoin(n *sqlast.Select, rels []*relation, j joinInfo, level int, crossOK bool) *joinAnalysis {
	if e.off.Has(strategy.HashJoin) || e.hashJoinBlocked() {
		return nil
	}
	vis := rels[:level+1]
	cond := j.on
	if cond == nil {
		// Implicit cross join: WHERE-derived equality prefilter
		// (crossPrefilterOK vetted the full WHERE against all relations).
		if !crossOK {
			return nil
		}
		cond = n.Where
	} else if e.d == dialect.Postgres {
		if !pureEquiOn(cond, vis, level) {
			return nil
		}
	} else if !errFreeOn(cond, vis) {
		return nil
	}
	keys := extractEquiKeys(cond, vis, level)
	if len(keys) == 0 {
		return nil
	}
	a := &joinAnalysis{keys: keys}
	if e.d == dialect.SQLite && e.fs.Empty() && j.on != nil &&
		j.kind == sqlast.JoinInner && rels[level].table != "" {
		e.joinIndexCandidate(a, rels, level)
	}
	return a
}

// joinIndexCandidate looks for an inner-table index that can serve one of
// the equality keys directly. Mirrors indexUsable's equality rules: the
// index collation must equal the comparison collation, or the comparison
// must be BINARY (a coarser index yields a candidate superset the ON
// verification filters). Restricted to key columns whose two sides share a
// type affinity, so stored-value normal forms coincide and an
// affinity-converted probe key finds every eval-equal entry.
func (e *Engine) joinIndexCandidate(a *joinAnalysis, rels []*relation, level int) {
	t, ok := e.cat.Table(rels[level].table)
	if !ok {
		return
	}
	for _, k := range a.keys {
		rcol := &rels[level].columns[k.rCol]
		lcol := &rels[k.lRel].columns[k.lCol]
		if lcol.Affinity != rcol.Affinity {
			continue
		}
		for _, ix := range e.cat.IndexesOn(t.Name) {
			if ix.Where != nil {
				continue
			}
			lead, bare := ix.LeadingColumn()
			if !bare || !strings.EqualFold(lead, rcol.Name) {
				continue
			}
			declared := ix.Parts[0].Collate
			if declared != k.coll && k.coll != sqlval.CollBinary {
				continue
			}
			if e.idx[lower(ix.Name)] == nil {
				continue
			}
			a.idx, a.idxKey, a.idxAff = ix, k, rcol.Affinity
			return
		}
	}
}

// hashJoinSetup is hash join's fixed cost in pair evaluations: building
// the table (a map, its buckets and one key string per build row) costs
// about as much as 24 nested-loop ON evaluations. The value is the
// measured crossover: hash join loses to the nested loop up to 6×6 rows
// and wins from 7×7 (table in DESIGN.md "Join execution & strategy
// selection"), and L+R+24 first undercuts L×R at 7×7.
const hashJoinSetup = 24

// Join cost model, in the planner's row-count units (see plan.go):
// nested = L×R pair evaluations; hash = one pass over each side plus the
// build's fixed cost; index lookup = per-combo index probes plus fetches.
func joinCost(s JoinStrategy, l, r float64) float64 {
	switch s {
	case JoinHash:
		return l + r + hashJoinSetup
	case JoinIndexLookup:
		return 2 + l*(0.5*math.Log2(r+1)+1)
	default:
		return l * r
	}
}

// chooseJoinStrategy picks the cheapest eligible strategy for a level with
// l outer combos and r inner rows.
func chooseJoinStrategy(a *joinAnalysis, l, r float64) (JoinStrategy, float64) {
	best, bestCost := JoinNested, joinCost(JoinNested, l, r)
	if c := joinCost(JoinHash, l, r); c < bestCost {
		best, bestCost = JoinHash, c
	}
	if a != nil && a.idx != nil {
		if c := joinCost(JoinIndexLookup, l, r); c < bestCost {
			best, bestCost = JoinIndexLookup, c
		}
	}
	return best, bestCost
}

// pgJoinClassesCompatible prescans both sides of every key column for
// Postgres: a hash level is only safe when no pair can raise a cross-class
// comparison error. Classes are bitmasked per column over the relations'
// materialized rows (a superset of the values reaching this level, so the
// check errs toward the nested loop, never away from it).
func pgJoinClassesCompatible(a *joinAnalysis, rels []*relation, level int) bool {
	for _, k := range a.keys {
		lm := relClassMask(rels[k.lRel].rows, k.lCol)
		rm := relClassMask(rels[level].rows, k.rCol)
		if lm != 0 && rm != 0 {
			if m := lm | rm; m&(m-1) != 0 {
				return false
			}
		}
	}
	return true
}

// relClassMask ORs the Postgres comparison classes present in one column:
// numeric=1, bool=2, text=4, blob=8. NULLs contribute nothing (comparisons
// against NULL never error).
func relClassMask(rows []*rowVals, col int) uint8 {
	var m uint8
	for _, row := range rows {
		if col >= len(row.vals) {
			continue
		}
		v := row.vals[col]
		switch {
		case v.IsNull():
		case v.Kind() == sqlval.KBool:
			m |= 2
		case v.Kind() == sqlval.KText:
			m |= 4
		case v.Kind() == sqlval.KBlob:
			m |= 8
		default:
			m |= 1
		}
	}
	return m
}

// appendKeyFloat appends the canonical numeric key form: the raw IEEE
// bits, with negative zero folded onto zero and NaNs onto one bit
// pattern (Compare calls those equal; their bits differ). Distinct huge
// integers can collide on one float — collisions are verified away by
// the ON residual (joins) or keysEqual (grouping).
func appendKeyFloat(buf []byte, f float64) []byte {
	if f == 0 {
		f = 0
	}
	bits := math.Float64bits(f)
	if f != f {
		bits = math.Float64bits(math.NaN())
	}
	return append(buf, 'f',
		byte(bits>>56), byte(bits>>48), byte(bits>>40), byte(bits>>32),
		byte(bits>>24), byte(bits>>16), byte(bits>>8), byte(bits))
}

// appendJoinKey appends one value's normalized key component. The single
// invariant: two values the dialect's comparison calls equal under coll
// must produce byte-identical components (the converse need not hold).
//
//   - SQLite compares within classes (numeric < text < blob), so components
//     are class-tagged; text canonicalizes through the collation
//     (sqlval.CollKey), numerics through one float rendering.
//   - MySQL coerces every comparison operand through its lossy numeric
//     rules whenever either side is numeric, so the only universally sound
//     key is the numeric coercion itself (eval.Numeric): collation-equal
//     text folds case/trailing-space, which never changes the numeric
//     prefix, and byte-equal text/blob trivially agree.
//   - Postgres compares strictly within classes (mixed classes error and
//     are excluded by the compatibility prescan).
func (e *Engine) appendJoinKey(buf []byte, v sqlval.Value, coll sqlval.Collation) []byte {
	switch e.d {
	case dialect.MySQL:
		return appendKeyFloat(buf, eval.Numeric(v).AsFloat())
	case dialect.Postgres:
		switch v.Kind() {
		case sqlval.KBool:
			buf = append(buf, 'B')
			if v.Int64() != 0 {
				return append(buf, '1')
			}
			return append(buf, '0')
		case sqlval.KText:
			buf = append(buf, 't')
			return append(buf, sqlval.CollKey(v.Str(), coll)...)
		case sqlval.KBlob:
			buf = append(buf, 'x')
			return append(buf, v.BlobStr()...)
		default:
			return appendKeyFloat(buf, v.AsFloat())
		}
	default: // SQLite
		switch v.Kind() {
		case sqlval.KText:
			buf = append(buf, 't')
			// Fault site (sqlite.hash-join-collation): the hash key skips
			// collation canonicalization, so NOCASE/RTRIM-equal key
			// variants land in different buckets and their join partners
			// silently vanish from the result.
			if e.fs.Has(faults.HashJoinCollation) {
				return append(buf, v.Str()...)
			}
			return append(buf, sqlval.CollKey(v.Str(), coll)...)
		case sqlval.KBlob:
			buf = append(buf, 'x')
			return append(buf, v.BlobStr()...)
		default:
			return appendKeyFloat(buf, v.AsFloat())
		}
	}
}

// rowJoinKey builds the inner-side key of one row. ok=false marks an
// unkeyable row: a SQL NULL key component never equals anything, so the
// row cannot join (the caller handles LEFT-join NULL extension). Under the
// null-key fault, NULL components instead key on a sentinel — making NULL
// spuriously equal to NULL.
func (e *Engine) rowJoinKey(buf []byte, row *rowVals, keys []equiKey, nullFault bool) (_ []byte, ok, hadNull bool) {
	for _, k := range keys {
		v := sqlval.Null()
		if k.rCol < len(row.vals) {
			v = row.vals[k.rCol]
		}
		if v.IsNull() {
			// Fault site (sqlite.hash-join-null-key): NULL keys bucket
			// under a shared sentinel instead of never matching.
			if !nullFault {
				return buf, false, false
			}
			hadNull = true
			buf = append(buf, 'N', 0)
			continue
		}
		buf = e.appendJoinKey(buf, v, k.coll)
		buf = append(buf, 0)
	}
	return buf, true, hadNull
}

// comboJoinKey is rowJoinKey for the outer side: key components come from
// the combo's per-relation rows (nil rows — NULL-extended outer-join sides
// — contribute NULL components).
func (e *Engine) comboJoinKey(buf []byte, combo []*rowVals, keys []equiKey, nullFault bool) (_ []byte, ok, hadNull bool) {
	for _, k := range keys {
		v := sqlval.Null()
		if k.lRel < len(combo) && combo[k.lRel] != nil && k.lCol < len(combo[k.lRel].vals) {
			v = combo[k.lRel].vals[k.lCol]
		}
		if v.IsNull() {
			if !nullFault {
				return buf, false, false
			}
			hadNull = true
			buf = append(buf, 'N', 0)
			continue
		}
		buf = e.appendJoinKey(buf, v, k.coll)
		buf = append(buf, 0)
	}
	return buf, true, hadNull
}

// comboArena block-allocates the kept-combo slices of a join. Campaign
// profiles showed the per-kept-combo make() in the nested loop as a top
// allocation site; carving fixed-capacity slices out of doubling blocks
// amortizes it away. Exhausted blocks are abandoned to the slices already
// carved from them, so taken pointers stay valid.
type comboArena struct {
	buf []*rowVals
}

func (a *comboArena) alloc(n int) []*rowVals {
	if len(a.buf)+n > cap(a.buf) {
		sz := 1024
		for sz < n {
			sz *= 2
		}
		a.buf = make([]*rowVals, 0, sz)
	}
	start := len(a.buf)
	a.buf = a.buf[:start+n]
	return a.buf[start : start+n : start+n]
}

// joinLevel is the per-level state shared by the three join operators.
type joinLevel struct {
	n      *sqlast.Select
	rels   []*relation
	level  int
	j      joinInfo
	onEval *exprEval
	onTest func() (sqlval.TriBool, error)
	arena  *comboArena
	// scratch is the reused ON-evaluation combo (shared across levels).
	scratch *[]*rowVals
}

// nestedJoinLevel is the baseline operator: exactly the semantics the
// executor always had, with arena-backed kept-combo allocation.
func (e *Engine) nestedJoinLevel(lv *joinLevel, combos, out [][]*rowVals) ([][]*rowVals, error) {
	right := lv.rels[lv.level].rows
	leftDrop := lv.j.kind == sqlast.JoinLeft && e.d == dialect.Postgres && e.fs.Has(faults.LeftJoinDrop)
	for _, combo := range combos {
		matched := false
		for _, row := range right {
			if lv.onTest != nil {
				// Evaluate the ON condition against a reused scratch
				// combo; a fresh slice is materialized only for kept rows.
				*lv.scratch = append(append((*lv.scratch)[:0], combo...), row)
				lv.onEval.setRow(*lv.scratch)
				tb, err := lv.onTest()
				if err != nil {
					return nil, err
				}
				if tb != sqlval.TriTrue {
					continue
				}
			}
			// Fault site (postgres.left-join-drop), part 2: a matched LEFT
			// JOIN row carrying a NULL on the right side is misclassified
			// as unmatched and dropped.
			if leftDrop && hasNullVal(row) {
				matched = true
				continue
			}
			matched = true
			cand := lv.arena.alloc(len(combo) + 1)
			copy(cand, combo)
			cand[len(combo)] = row
			out = append(out, cand)
		}
		if !matched && lv.j.kind == sqlast.JoinLeft {
			// Fault site (postgres.left-join-drop), part 1: LEFT JOIN
			// behaves as INNER and drops the unmatched left row.
			if leftDrop {
				continue
			}
			cand := lv.arena.alloc(len(combo) + 1)
			copy(cand, combo)
			cand[len(combo)] = nil
			out = append(out, cand)
		}
	}
	return out, nil
}

// hashJoinLevel joins one level through a hash table on the
// estimated-smaller side. Emission order reproduces the nested loop
// exactly: outer combos in order, each combo's matches in inner scan
// order — the result is byte-identical, not merely multiset-equal.
func (e *Engine) hashJoinLevel(lv *joinLevel, a *joinAnalysis, combos, out [][]*rowVals) ([][]*rowVals, error) {
	right := lv.rels[lv.level].rows
	nullFault := e.d == dialect.SQLite && e.fs.Has(faults.HashJoinNullKey) &&
		lv.n.Where != nil && lv.j.on != nil
	leftDropHash := lv.j.kind == sqlast.JoinLeft && e.d == dialect.Postgres &&
		e.fs.Has(faults.HashLeftJoinDrop) && lv.n.Where != nil
	leftDrop := lv.j.kind == sqlast.JoinLeft && e.d == dialect.Postgres &&
		e.fs.Has(faults.LeftJoinDrop)

	// emit verifies one candidate pair against the full ON condition and
	// appends it. Bucket equality is a prefilter; the residual verification
	// is what makes key collisions harmless. Cross-join levels (no ON)
	// skip it: their collisions are removed by the WHERE filter that
	// crossPrefilterOK guarantees runs. reported tracks LEFT-join
	// matchedness (a pair can match yet be suppressed by the
	// left-join-drop fault, exactly like the nested loop).
	emit := func(combo []*rowVals, row *rowVals, skipTest bool) (matchedPair bool, err error) {
		if lv.onTest != nil && !skipTest {
			*lv.scratch = append(append((*lv.scratch)[:0], combo...), row)
			lv.onEval.setRow(*lv.scratch)
			tb, err := lv.onTest()
			if err != nil {
				return false, err
			}
			if tb != sqlval.TriTrue {
				return false, nil
			}
		}
		// Fault site (postgres.left-join-drop), part 2 — mirrored from the
		// nested loop so the fault matrix is path-independent.
		if leftDrop && hasNullVal(row) {
			return true, nil
		}
		cand := lv.arena.alloc(len(combo) + 1)
		copy(cand, combo)
		cand[len(combo)] = row
		out = append(out, cand)
		return true, nil
	}
	extend := func(combo []*rowVals) {
		if leftDrop {
			// Fault site (postgres.left-join-drop), part 1 — mirrored.
			return
		}
		if leftDropHash {
			// Fault site (postgres.hash-left-join-drop): the hash LEFT
			// join forgets to NULL-extend unmatched preserved combos in
			// filtered queries — they vanish instead.
			return
		}
		cand := lv.arena.alloc(len(combo) + 1)
		copy(cand, combo)
		cand[len(combo)] = nil
		out = append(out, cand)
	}

	var keyBuf []byte
	if len(right) <= len(combos) {
		// Build on the inner relation, probe with outer combos. Bucket
		// position lists accumulate in scan order, so probing emits each
		// combo's matches in inner scan order.
		table := make(map[string][]int32, len(right))
		for pos, row := range right {
			var ok bool
			keyBuf, ok, _ = e.rowJoinKey(keyBuf[:0], row, a.keys, nullFault)
			if !ok {
				continue
			}
			table[string(keyBuf)] = append(table[string(keyBuf)], int32(pos))
		}
		for _, combo := range combos {
			var ok, probeNull bool
			keyBuf, ok, probeNull = e.comboJoinKey(keyBuf[:0], combo, a.keys, nullFault)
			matched := false
			if ok {
				// Fault site (sqlite.hash-join-null-key), second half: a
				// probe whose key had a NULL component skips residual
				// verification — the spurious sentinel match survives.
				for _, pos := range table[string(keyBuf)] {
					m, err := emit(combo, right[pos], nullFault && probeNull)
					if err != nil {
						return nil, err
					}
					matched = matched || m
				}
			}
			if !matched && lv.j.kind == sqlast.JoinLeft {
				extend(combo)
			}
		}
		return out, nil
	}

	// Build on the outer combos, stream the inner relation. Matches per
	// combo accumulate in inner scan order as the stream advances; a final
	// pass over combos in order restores the outer-major emission order.
	table := make(map[string][]int32, len(combos))
	var comboNull []bool
	if nullFault {
		comboNull = make([]bool, len(combos))
	}
	cands := make([][]int32, len(combos))
	for ci, combo := range combos {
		var ok, hadNull bool
		keyBuf, ok, hadNull = e.comboJoinKey(keyBuf[:0], combo, a.keys, nullFault)
		if !ok {
			continue
		}
		if nullFault {
			comboNull[ci] = hadNull
		}
		table[string(keyBuf)] = append(table[string(keyBuf)], int32(ci))
	}
	for pos, row := range right {
		var ok bool
		keyBuf, ok, _ = e.rowJoinKey(keyBuf[:0], row, a.keys, nullFault)
		if !ok {
			continue
		}
		for _, ci := range table[string(keyBuf)] {
			cands[ci] = append(cands[ci], int32(pos))
		}
	}
	for ci, combo := range combos {
		matched := false
		for _, pos := range cands[ci] {
			m, err := emit(combo, right[pos], nullFault && comboNull[ci])
			if err != nil {
				return nil, err
			}
			matched = matched || m
		}
		if !matched && lv.j.kind == sqlast.JoinLeft {
			extend(combo)
		}
	}
	return out, nil
}

// indexJoinLevel probes an inner-table index per outer combo (SQLite inner
// joins on fault-free engines only; see joinIndexCandidate). Candidate
// positions are sorted into scan order and verified against the full ON
// condition, so results match the nested loop byte-for-byte.
func (e *Engine) indexJoinLevel(lv *joinLevel, a *joinAnalysis, combos, out [][]*rowVals) ([][]*rowVals, error) {
	right := lv.rels[lv.level].rows
	pos := make(map[int64]int32, len(right))
	for p, row := range right {
		pos[row.rowid] = int32(p)
	}
	ixd := e.idx[lower(a.idx.Name)]
	var probe [1]sqlval.Value
	var cpos []int32
	for _, combo := range combos {
		lrow := combo[a.idxKey.lRel]
		if lrow == nil || a.idxKey.lCol >= len(lrow.vals) {
			continue // NULL key never matches; inner join keeps nothing
		}
		v := lrow.vals[a.idxKey.lCol]
		if v.IsNull() {
			continue
		}
		// SQLite stores values affinity-converted; the probe key must be
		// converted the same way (identical to the planner's eq probes).
		probe[0] = sqlval.ApplyAffinity(v, a.idxAff)
		cpos = cpos[:0]
		for _, rid := range ixd.EqualPrefix(probe[:]) {
			if p, ok := pos[rid]; ok {
				cpos = append(cpos, p)
			}
		}
		sort.Slice(cpos, func(x, y int) bool { return cpos[x] < cpos[y] })
		for _, p := range cpos {
			row := right[p]
			*lv.scratch = append(append((*lv.scratch)[:0], combo...), row)
			lv.onEval.setRow(*lv.scratch)
			tb, err := lv.onTest()
			if err != nil {
				return nil, err
			}
			if tb != sqlval.TriTrue {
				continue
			}
			cand := lv.arena.alloc(len(combo) + 1)
			copy(cand, combo)
			cand[len(combo)] = row
			out = append(out, cand)
		}
	}
	return out, nil
}
