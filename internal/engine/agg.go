// Streaming hash aggregation and top-K ordering. project (query.go)
// dispatches grouped/aggregate projections here unless strategy.HashAgg is disabled:
//
//   - grouping: group membership resolves through a hash table over
//     normalized byte keys instead of a linear keysEqual scan per input row.
//     Key normalization COARSENS group equality (keysEqual-equal rows always
//     share a key; unequal rows may collide on one), so every bucket match
//     is re-verified by the full keysEqual comparison — collisions cost
//     time, never correctness. NULLs key on a sentinel, matching SQL GROUP
//     BY's NULLs-group-together semantics.
//   - aggregation: COUNT/COUNT(*)/SUM/AVG/MIN/MAX/TOTAL fold into per-group
//     streaming accumulators in a single pass over the input. No group
//     retains its combos; only one representative row (the group's first)
//     survives, for HAVING and non-aggregate output columns. Evaluation
//     errors are recorded per (group, column) cell and surfaced during the
//     output pass in the exact (group order, column order, row order) the
//     materialized path would surface them.
//   - ordering: when LIMIT k (+OFFSET) accompanies ORDER BY and k+offset is
//     smaller than the row count, a bounded max-heap keeps the k+offset best
//     rows instead of sorting everything. Stability is preserved by an
//     input-index tiebreak: among sort-key-equal rows, earlier input rows
//     win, exactly like sort.SliceStable.
//
// Emission order is byte-identical to the materialized path: groups emit in
// first-occurrence order, top-K results in full stable-sort order.
package engine

import (
	"math"
	"sort"
	"strings"

	"repro/internal/dialect"
	"repro/internal/faults"
	"repro/internal/sqlast"
	"repro/internal/sqlval"
	"repro/internal/storage"
	"repro/internal/xerr"
)

// aggCol is one aggregate output column's shared (cross-group) state: the
// call, its lazily-bound argument program, and the arity/bind errors the
// materialized path would raise per group.
type aggCol struct {
	ci        int // index into the projection's cols
	fc        *sqlast.FuncCall
	name      string // canonical upper-case aggregate name
	op        aggOp  // name as an enum, for the per-row accumulate switch
	countStar bool
	arityErr  error
	// direct short-circuits the argument evaluator for a bare resolvable
	// column argument on fault-free engines (rel, col into the combo).
	direct   bool
	rel, col int
	bound    bool
	arg      boundExpr
	bindErr  error
}

// bind resolves the argument program once, on first use: both grouped
// paths call it inside their per-group loops, so zero-group queries never
// bind and a bad argument errors only once a group exists.
func (ac *aggCol) bind(x *exprEval) {
	if ac.bound {
		return
	}
	ac.bound = true
	ac.arg, ac.bindErr = x.bind(ac.fc.Args[0])
}

// aggOp is the accumulate dispatch enum (the per-row hot path; string
// switches on the name would re-compare per input row).
type aggOp uint8

// Accumulator operations.
const (
	opCount aggOp = iota
	opMin
	opMax
	opSum
	opTotal
	opAvg
)

// aggOps maps canonical aggregate names onto their accumulate ops.
var aggOps = map[string]aggOp{
	"COUNT": opCount, "MIN": opMin, "MAX": opMax,
	"SUM": opSum, "TOTAL": opTotal, "AVG": opAvg,
}

// aggCell is one (group, aggregate column) accumulator.
type aggCell struct {
	seen    int64 // non-NULL argument count
	isum    int64
	fsum    float64
	allInt  bool
	seeded  bool // null-skip fault seeded this accumulator already
	hasBest bool
	best    sqlval.Value
	err     error // first evaluation error; poisons the cell
}

// hashAggGroup is one group's streaming state: its key, the representative
// (first) combo for HAVING and non-aggregate columns, the row count, and
// one accumulator per aggregate column. Crucially absent: the combos.
type hashAggGroup struct {
	key   []sqlval.Value
	rep   []*storage.Row
	n     int64
	cells []aggCell
}

// streamableAgg reports whether every aggregate in the projection is
// expressible as a streaming accumulator. Every aggregate the executor
// accepts currently is (the AST has no DISTINCT-qualified aggregate form);
// the hook exists so inexpressible shapes fall back to the materialized
// path instead of growing accumulator special cases.
func streamableAgg(cols []outCol) bool {
	for _, c := range cols {
		if c.x == nil {
			continue
		}
		if fc, ok := isAggregate(c.x); ok {
			if !aggNames[strings.ToUpper(fc.Name)] {
				return false
			}
		}
	}
	return true
}

// appendAggKey appends one group-key value's normalized component. The
// invariant mirrors appendJoinKey's: keysEqual-equal values (NULLs equal,
// otherwise Compare under CollBinary) must produce byte-identical
// components; the converse need not hold, since bucket matches re-verify.
func appendAggKey(buf []byte, v sqlval.Value) []byte {
	switch {
	case v.IsNull():
		return append(buf, 'n')
	case v.Kind() == sqlval.KText:
		buf = append(buf, 't')
		return append(buf, v.Str()...)
	case v.Kind() == sqlval.KBlob:
		buf = append(buf, 'x')
		return append(buf, v.BlobStr()...)
	default:
		// Numeric (incl. bool): one float rendering, negative zero folded.
		// Distinct huge integers can collide; keysEqual disambiguates.
		return appendKeyFloat(buf, v.AsFloat())
	}
}

// projectGroupedHash is the streaming grouped/aggregate projection.
func (e *Engine) projectGroupedHash(pc *projCtx, combos []*storage.Row) ([]string, [][]sqlval.Value, error) {
	e.cov.hit("dql.group-by-hash")
	n, rels, x, w := pc.n, pc.rels, pc.x, pc.w

	// Fault site (sqlite.hash-agg-collation): TEXT group keys fold through
	// the source column's declared collation instead of binary bytes, and
	// bucket matches skip keysEqual re-verification — NOCASE/RTRIM-equal
	// variants silently collapse into one group (whose representative row is
	// the first variant seen).
	collFault := e.d == dialect.SQLite && e.fs.Has(faults.HashAggCollation)
	keyColls := make([]sqlval.Collation, len(pc.groupKeys))
	if collFault {
		for i, gx := range pc.groupKeys {
			keyColls[i] = sqlval.CollBinary
			if cr, ok := gx.(*sqlast.ColumnRef); ok && !cr.MaybeString {
				if ri, ci, amb := findColumn(rels, cr.Table, cr.Column); ri >= 0 && !amb {
					keyColls[i] = rels[ri].columns[ci].Collate
				}
			}
		}
	}

	// Key and aggregate-argument accessors: a bare resolvable column on a
	// fault-free engine reads its combo slot directly; anything else runs
	// through exprEval (identical machinery to the materialized path).
	directOK := e.fs.Empty()
	directRef := func(gx sqlast.Expr) (ri, ci int, ok bool) {
		cr, isRef := gx.(*sqlast.ColumnRef)
		if !directOK || !isRef || cr.MaybeString {
			return 0, 0, false
		}
		ri, ci, amb := findColumn(rels, cr.Table, cr.Column)
		return ri, ci, ri >= 0 && !amb
	}
	needEval := false
	type keyGetter struct {
		direct   bool
		rel, col int
		fn       boundExpr
	}
	keyGets := make([]keyGetter, len(pc.groupKeys))
	for i, gx := range pc.groupKeys {
		if ri, ci, ok := directRef(gx); ok {
			keyGets[i] = keyGetter{direct: true, rel: ri, col: ci}
			continue
		}
		fn, err := x.bind(gx)
		if err != nil {
			return nil, nil, err
		}
		keyGets[i] = keyGetter{fn: fn}
		needEval = true
	}

	// Aggregate columns, in projection order. Arity errors are recorded, not
	// raised: the materialized path raises them per surviving group during
	// the output pass, after HAVING filtering.
	var aggCols []aggCol
	aggAt := make([]int, len(pc.cols)) // cols index -> aggCols index (-1: scalar)
	for i := range aggAt {
		aggAt[i] = -1
	}
	for i, c := range pc.cols {
		if c.x == nil {
			continue
		}
		fc, ok := isAggregate(c.x)
		if !ok {
			continue
		}
		ac := aggCol{ci: i, fc: fc, name: strings.ToUpper(fc.Name)}
		ac.op = aggOps[ac.name]
		switch {
		case ac.name == "COUNT" && len(fc.Args) == 0:
			ac.countStar = true
		case len(fc.Args) != 1:
			ac.arityErr = xerr.New(xerr.CodeType, "aggregate %s expects one argument", fc.Name)
		default:
			if ri, ci, ok := directRef(fc.Args[0]); ok {
				ac.direct, ac.rel, ac.col = true, ri, ci
			} else {
				needEval = true
			}
		}
		aggAt[i] = len(aggCols)
		aggCols = append(aggCols, ac)
	}

	// Fault site (sqlite.agg-accumulator-null-skip): the streaming SUM/AVG
	// accumulator seeds itself from a leading NULL as if it were 0 instead
	// of skipping it, so all-NULL inputs aggregate to 0 instead of NULL.
	// Filtered queries only: TLP's partition aggregates hit it, the
	// unfiltered original doesn't.
	nullSkipFault := e.d == dialect.SQLite && e.fs.Has(faults.AggAccumulatorNullSkip) &&
		n.Where != nil

	var groups []*hashAggGroup
	implicit := len(pc.groupKeys) == 0
	if implicit {
		groups = []*hashAggGroup{{rep: make([]*storage.Row, len(rels)), cells: make([]aggCell, len(aggCols))}}
	}

	// Group lookup is an open-addressing table over an inline FNV-1a of the
	// normalized key bytes — a map[string] here costs a string conversion
	// plus the runtime's map machinery per input row, which profiles as the
	// single biggest line of the whole grouped pass. Slot values are group
	// index + 1 (0 = empty); matches compare the stored key bytes, then
	// keysEqual exactly like the map version did (hash and even byte
	// equality COARSEN group equality, so both are pre-filters, never the
	// verdict).
	slots := make([]int32, 64)
	mask := uint64(len(slots) - 1)
	var groupHash []uint64
	var groupKeyBytes [][]byte // nil for numeric fast-path groups
	var groupNumBits []uint64  // float bits for numeric fast-path groups
	var groupIsNum []bool
	grow := func() {
		slots = make([]int32, 2*len(slots))
		mask = uint64(len(slots) - 1)
		for gi, h := range groupHash {
			i := h & mask
			for slots[i] != 0 {
				i = (i + 1) & mask
			}
			slots[i] = int32(gi) + 1
		}
	}
	// A single bare-column numeric key skips byte normalization entirely:
	// its canonical form IS the folded float bits (appendKeyFloat), so the
	// bits are hashed and matched directly. Numeric and byte-keyed groups
	// never alias — a numeric value always takes this path, anything else
	// always takes the generic one — and both re-verify with keysEqual.
	fastNum := len(keyGets) == 1 && keyGets[0].direct && !collFault
	var keyBuf []byte
	keyScratch := make([]sqlval.Value, len(pc.groupKeys))
	for ci := 0; ci < len(combos); ci += w {
		combo := combos[ci : ci+w : ci+w]
		if needEval {
			x.setRow(combo)
		}
		var g *hashAggGroup
		if implicit {
			g = groups[0]
			if g.n == 0 {
				g.rep = combo
			}
		} else {
			generic := true
			if fastNum {
				var v sqlval.Value
				kg := &keyGets[0]
				if kg.rel < len(combo) {
					if rv := combo[kg.rel]; rv != nil && kg.col < len(rv.Vals) {
						v = rv.Vals[kg.col]
					}
				}
				if k := v.Kind(); k != sqlval.KNull && k != sqlval.KText && k != sqlval.KBlob {
					generic = false
					keyScratch[0] = v
					f := v.AsFloat()
					if f == 0 {
						f = 0 // fold negative zero, like appendKeyFloat
					}
					bits := math.Float64bits(f)
					if f != f {
						bits = math.Float64bits(math.NaN())
					}
					// murmur3 finalizer: the xor-shift before each multiply
					// pushes the exponent/mantissa-top bits (the only ones
					// that vary across small integers) down into the slot
					// index; a plain multiply-then-shift leaves the low bits
					// constant and chains every small-int key into one slot.
					h := bits
					h ^= h >> 33
					h *= 0xFF51AFD7ED558CCD
					h ^= h >> 33
					h *= 0xC4CEB9FE1A85EC53
					h ^= h >> 33
					slot := h & mask
					for {
						s := slots[slot]
						if s == 0 {
							break
						}
						gi := s - 1
						// Identical Value structs short-circuit the keysEqual
						// re-verify; the call remains for cross-kind equality
						// (2 vs 2.0) and beyond-2^53 ints whose folded float
						// bits collide.
						if groupIsNum[gi] && groupNumBits[gi] == bits {
							if gk := groups[gi]; gk.key[0] == v || keysEqual(gk.key, keyScratch) {
								g = gk
								break
							}
						}
						slot = (slot + 1) & mask
					}
					if g == nil {
						g = &hashAggGroup{
							key:   []sqlval.Value{v},
							rep:   combo,
							cells: make([]aggCell, len(aggCols)),
						}
						slots[slot] = int32(len(groups)) + 1
						groups = append(groups, g)
						groupHash = append(groupHash, h)
						groupKeyBytes = append(groupKeyBytes, nil)
						groupNumBits = append(groupNumBits, bits)
						groupIsNum = append(groupIsNum, true)
						if 2*len(groups) > len(slots) {
							grow()
						}
					}
				}
			}
			if generic {
				keyBuf = keyBuf[:0]
				for i := range keyGets {
					var v sqlval.Value
					if kg := &keyGets[i]; kg.direct {
						// readDirect, inlined: this is the per-row hot path.
						if rv := combo[kg.rel]; rv != nil && kg.col < len(rv.Vals) {
							v = rv.Vals[kg.col]
						}
					} else {
						var err error
						v, err = kg.fn.value()
						if err != nil {
							return nil, nil, err
						}
					}
					keyScratch[i] = v
					if collFault && v.Kind() == sqlval.KText {
						keyBuf = append(keyBuf, 't')
						keyBuf = append(keyBuf, sqlval.CollKey(v.Str(), keyColls[i])...)
					} else {
						keyBuf = appendAggKey(keyBuf, v)
					}
					keyBuf = append(keyBuf, 0)
				}
				h := uint64(14695981039346656037) // FNV-1a
				for _, b := range keyBuf {
					h ^= uint64(b)
					h *= 1099511628211
				}
				slot := h & mask
				for {
					s := slots[slot]
					if s == 0 {
						break
					}
					gi := s - 1
					if groupHash[gi] == h && !groupIsNum[gi] &&
						string(groupKeyBytes[gi]) == string(keyBuf) &&
						(collFault || keysEqual(groups[gi].key, keyScratch)) {
						g = groups[gi]
						break
					}
					slot = (slot + 1) & mask
				}
				if g == nil {
					g = &hashAggGroup{
						key:   append([]sqlval.Value(nil), keyScratch...),
						rep:   combo,
						cells: make([]aggCell, len(aggCols)),
					}
					slots[slot] = int32(len(groups)) + 1
					groups = append(groups, g)
					groupHash = append(groupHash, h)
					groupKeyBytes = append(groupKeyBytes, append([]byte(nil), keyBuf...))
					groupNumBits = append(groupNumBits, 0)
					groupIsNum = append(groupIsNum, false)
					if 2*len(groups) > len(slots) {
						grow()
					}
				}
			}
		}
		g.n++
		for ai := range aggCols {
			ac := &aggCols[ai]
			if ac.countStar || ac.arityErr != nil {
				continue
			}
			cell := &g.cells[ai]
			if cell.err != nil {
				continue
			}
			var v sqlval.Value
			if ac.direct {
				// readDirect, inlined: this is the per-row hot path.
				if ac.rel < len(combo) && combo[ac.rel] != nil && ac.col < len(combo[ac.rel].Vals) {
					v = combo[ac.rel].Vals[ac.col]
				} else {
					v = sqlval.Null()
				}
			} else {
				ac.bind(x)
				if ac.bindErr != nil {
					continue
				}
				var err error
				v, err = ac.arg.value()
				if err != nil {
					cell.err = err
					continue
				}
			}
			e.accumulate(ac, cell, v, nullSkipFault)
		}
	}

	// Output pass: groups in first-occurrence order, HAVING on the
	// representative row, cells finalized in column order — the same
	// (group, column) error order as the materialized path.
	var having boundExpr
	if n.Having != nil {
		var err error
		if having, err = x.bind(n.Having); err != nil {
			return nil, nil, err
		}
	}
	var rows [][]sqlval.Value
	for _, g := range groups {
		if n.Having != nil {
			x.setRow(g.rep)
			tb, err := having.test()
			if err != nil {
				return nil, nil, err
			}
			if tb != sqlval.TriTrue {
				continue
			}
		}
		row := make([]sqlval.Value, len(pc.cols))
		for i, c := range pc.cols {
			if c.x == nil {
				if g.rep[c.rel] == nil || c.col >= len(g.rep[c.rel].Vals) {
					row[i] = sqlval.Null()
				} else {
					row[i] = g.rep[c.rel].Vals[c.col]
				}
				continue
			}
			if ai := aggAt[i]; ai >= 0 {
				v, err := e.finalizeAgg(&aggCols[ai], &g.cells[ai], g.n, x)
				if err != nil {
					return nil, nil, err
				}
				row[i] = v
				continue
			}
			x.setRow(g.rep)
			v, err := pc.colFns[i].value()
			if err != nil {
				return nil, nil, err
			}
			row[i] = v
		}
		rows = append(rows, row)
	}
	return pc.outNames, rows, nil
}

// accumulate folds one non-finalized argument value into a cell, mirroring
// aggregate()'s per-value semantics exactly.
func (e *Engine) accumulate(ac *aggCol, cell *aggCell, v sqlval.Value, nullSkipFault bool) {
	if v.IsNull() {
		// Fault site (sqlite.agg-accumulator-null-skip), see above.
		if nullSkipFault && (ac.op == opSum || ac.op == opAvg) &&
			cell.seen == 0 && !cell.seeded {
			cell.seeded = true
			cell.seen = 1
		}
		return
	}
	switch ac.op {
	case opCount:
		cell.seen++
	case opMin, opMax:
		cell.seen++
		if !cell.hasBest {
			cell.hasBest, cell.best = true, v
			return
		}
		c := sqlval.Compare(v, cell.best, sqlval.CollBinary)
		if (ac.op == opMin && c < 0) || (ac.op == opMax && c > 0) {
			cell.best = v
		}
	case opSum, opTotal, opAvg:
		if e.d == dialect.Postgres && !v.IsNumeric() {
			cell.err = xerr.New(xerr.CodeType, "%s(%s)", ac.fc.Name, v.Kind())
			return
		}
		if cell.seen == 0 && !cell.seeded {
			cell.allInt = ac.op == opSum
		}
		cell.seen++
		var num sqlval.Value
		switch v.Kind() {
		case sqlval.KInt, sqlval.KUint, sqlval.KReal, sqlval.KBool:
			num = v
		default:
			num = sqlval.Real(0)
			if parsed, ok := sqlval.TextToNumeric(v.Display()); ok {
				num = parsed
			}
		}
		if num.Kind() == sqlval.KInt || num.Kind() == sqlval.KBool {
			cell.isum += num.Int64()
			cell.fsum += float64(num.Int64())
		} else {
			cell.allInt = false
			cell.fsum += num.AsFloat()
		}
	}
}

// finalizeAgg produces one aggregate output value from its accumulator,
// replicating aggregate()'s control flow — including the agg-empty-group
// fault, the arity error, and lazy argument binding for zero-row groups
// (whose bind errors the materialized path still raises).
func (e *Engine) finalizeAgg(ac *aggCol, cell *aggCell, groupRows int64, x *exprEval) (sqlval.Value, error) {
	e.cov.hitNamed("dql.aggregate.", ac.name)
	// Fault site (sqlite.agg-empty-group) — mirrored from aggregate() so
	// the fault matrix is path-independent.
	if e.d == dialect.SQLite && e.fs.Has(faults.AggEmptyGroup) && groupRows == 0 {
		switch ac.name {
		case "COUNT":
			return sqlval.Int(1), nil
		case "SUM", "MIN", "MAX":
			return sqlval.Int(0), nil
		}
	}
	if ac.countStar {
		return sqlval.Int(groupRows), nil
	}
	if ac.arityErr != nil {
		return sqlval.Null(), ac.arityErr
	}
	if !ac.direct {
		ac.bind(x)
		if ac.bindErr != nil {
			return sqlval.Null(), ac.bindErr
		}
	}
	if cell.err != nil {
		return sqlval.Null(), cell.err
	}
	switch ac.name {
	case "COUNT":
		return sqlval.Int(cell.seen), nil
	case "MIN", "MAX":
		if !cell.hasBest {
			return sqlval.Null(), nil
		}
		return cell.best, nil
	case "SUM", "TOTAL", "AVG":
		if cell.seen == 0 {
			if ac.name == "TOTAL" {
				return sqlval.Real(0), nil
			}
			return sqlval.Null(), nil
		}
		switch ac.name {
		case "AVG":
			return sqlval.Real(cell.fsum / float64(cell.seen)), nil
		case "TOTAL":
			return sqlval.Real(cell.fsum), nil
		default:
			if cell.allInt {
				return sqlval.Int(cell.isum), nil
			}
			return sqlval.Real(cell.fsum), nil
		}
	}
	return sqlval.Null(), xerr.New(xerr.CodeUnsupported, "aggregate %s", ac.fc.Name)
}

// topKRows returns k = LIMIT + OFFSET when the top-K heap applies to an
// ORDER BY over rows input rows: both are non-negative integer constants
// and 0 < k < rows. At k >= rows the heap would keep every row, so the
// full sort serves instead. EXPLAIN applies the same rule to the planner's
// row estimate.
func (e *Engine) topKRows(n *sqlast.Select, rows int64) (int64, bool) {
	lv, err := e.constEval(n.Limit)
	if err != nil || lv.Kind() != sqlval.KInt || lv.Int64() < 0 {
		return 0, false
	}
	k := lv.Int64()
	if n.Offset != nil {
		ov, err := e.constEval(n.Offset)
		if err != nil || ov.Kind() != sqlval.KInt || ov.Int64() < 0 {
			return 0, false
		}
		k += ov.Int64()
	}
	return k, k > 0 && k < rows
}

// orderByTopK is the bounded-heap ORDER BY + LIMIT path: it keeps the
// k = limit+offset best rows in a max-heap (root = worst kept) and returns
// them in full stable-sort order, so the applyLimit slice that follows is
// byte-identical to sorting everything. handled=false defers to the full
// sort — non-constant or ill-typed LIMIT/OFFSET (whose errors applyLimit
// raises with identical precedence), or k at or beyond the row count
// (topKRows). Eligibility is settled before the ORDER BY keys resolve, so
// a deferred query resolves them once, in the full sort, which raises the
// same resolution error this path would.
func (e *Engine) orderByTopK(n *sqlast.Select, rels []*relation, rows [][]sqlval.Value) (bool, [][]sqlval.Value, error) {
	k64, ok := e.topKRows(n, int64(len(rows)))
	if !ok {
		return false, rows, nil
	}
	keyIdx, err := e.resolveOrderKeys(n, rels)
	if err != nil {
		return false, nil, err
	}
	k := int(k64)
	e.cov.hit("dql.order-by")
	e.cov.hit("dql.order-topk")

	// keyCmp orders two rows by the sort keys alone (0 on a full tie).
	keyCmp := func(a, b int32) int {
		for i, ki := range keyIdx {
			c := sqlval.Compare(rows[a][ki], rows[b][ki], sqlval.CollBinary)
			if n.OrderBy[i].Desc {
				c = -c
			}
			if c != 0 {
				return c
			}
		}
		return 0
	}
	// worse is the heap order: a sorts after b (keys, then the input-index
	// tiebreak that preserves sort.SliceStable's stability).
	worse := func(a, b int32) bool {
		if c := keyCmp(a, b); c != 0 {
			return c > 0
		}
		return a > b
	}

	tieFault := e.d == dialect.MySQL && e.fs.Has(faults.TopKHeapBoundary)
	heap := make([]int32, 0, k)
	siftDown := func() {
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < len(heap) && worse(heap[l], heap[m]) {
				m = l
			}
			if r < len(heap) && worse(heap[r], heap[m]) {
				m = r
			}
			if m == i {
				return
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
	}
	for i := 0; i < len(rows); i++ {
		cand := int32(i)
		if len(heap) < k {
			heap = append(heap, cand)
			for c := len(heap) - 1; c > 0; {
				p := (c - 1) / 2
				if !worse(heap[c], heap[p]) {
					break
				}
				heap[c], heap[p] = heap[p], heap[c]
				c = p
			}
			continue
		}
		if worse(heap[0], cand) {
			heap[0] = cand
			siftDown()
			continue
		}
		// Fault site (generic.topk-heap-boundary): when a rejected candidate
		// ties with the heap root on every sort key (losing only the
		// stability tiebreak), the root is evicted along with it — the k-th
		// row of the result vanishes.
		if tieFault && keyCmp(cand, heap[0]) == 0 {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
			if len(heap) > 0 {
				siftDown()
			}
		}
	}
	sort.Slice(heap, func(a, b int) bool { return worse(heap[b], heap[a]) })
	kept := make([][]sqlval.Value, len(heap))
	for i, ri := range heap {
		kept[i] = rows[ri]
	}
	return true, kept, nil
}
