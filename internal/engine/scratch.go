// Statement scratch: the setup state of a SELECT — its relation headers,
// the evaluators its clauses bind to, the projection's column list and
// the combo buffers of its joins and WHERE filter — lives in frames the
// engine keeps across statements instead of being allocated anew by each
// one. Campaigns issue many small queries, so this per-statement setup
// was most of what a query allocated.
//
// The rules (DESIGN.md "Statement scratch"):
//   - Nothing that escapes into a Result lives in a frame: not the
//     column names, not the output rows, not their arena.
//   - Frames are indexed by nesting depth. A view body runs one level
//     deeper than the statement that scans it, so it never overwrites
//     the outer statement's buffers.
//   - A buffer is sized on first use exactly as the statement would size
//     it without a frame, and is reused while it is large enough.
//   - A buffer whose capacity exceeds scratchRetainMax is dropped when
//     the statement ends; the next statement allocates afresh.
//   - When a statement ends, its frame drops every reference into the
//     statement's rows, relations and AST, so a frame never keeps a
//     dropped table or a reset database alive.
//
// Statements run under e.mu, which serialises every use of the frames.
package engine

import "repro/internal/storage"

// scratchDepth is the number of nesting depths whose frames live in the
// Engine: a top-level SELECT and one level of view. A view nested inside
// another view gets a fresh frame per statement.
const scratchDepth = 2

// scratchRetainMax caps the capacity, in elements, that a frame keeps per
// buffer: 1024 combo pointers are 8 KB, the join pre-size cap of a hash
// level (joinPresizeMax). It covers every buffer of a two-way join over
// the generator's default tables (at most (8·8+8)·2 = 144 combo
// pointers); larger joins allocate their buffers per statement, as they
// did before frames existed.
const scratchRetainMax = 1024

// stmtScratch is one nesting depth's frame.
type stmtScratch struct {
	rels   []*relation // points into relBuf
	relBuf []relation
	joins  []joinInfo // parallel to rels[1:]
	// where evaluates the WHERE clause, proj the projection (with GROUP
	// BY keys, HAVING and aggregate arguments), on[i-1] join level i's ON.
	where, proj exprEval
	on          []exprEval
	cols        []outCol
	colFns      []boundExpr // parallel to cols
	// combos are the join levels' and the WHERE filter's output buffers.
	// Level i writes combos[i%2] while it reads combos[(i-1)%2]; the
	// filter writes the buffer the last level did not.
	combos [2][]*storage.Row
	// noRows is the single nil row a FROM-less SELECT evaluates over.
	noRows [1]*storage.Row
}

// enterStmt returns the frame for a SELECT starting at the current
// nesting depth. Every enterStmt is paired with a deferred leaveStmt, so
// an engine panic that Conn.ExecStmt recovers unwinds the depth too.
func (e *Engine) enterStmt() *stmtScratch {
	d := e.depth
	e.depth++
	if d < len(e.scratch) {
		return &e.scratch[d]
	}
	return new(stmtScratch)
}

// leaveStmt ends the statement that entered s.
func (e *Engine) leaveStmt(s *stmtScratch) {
	e.depth--
	s.rels = retainScratch(s.rels)
	s.relBuf = retainScratch(s.relBuf)
	// The caller appends to joins without writing it back; its capacity
	// is the source count, so clearing all of it is cheap.
	s.joins = retainScratch(s.joins[:cap(s.joins)])
	s.where.release()
	s.proj.release()
	for i := range s.on {
		s.on[i].release()
	}
	if cap(s.on) > scratchRetainMax {
		s.on = nil
	}
	s.on = s.on[:0]
	s.cols = retainScratch(s.cols)
	s.colFns = retainScratch(s.colFns)
	for i := range s.combos {
		s.combos[i] = retainScratch(s.combos[i])
	}
}

// sources returns n zeroed relation headers and an empty join list with
// room for the n-1 joins between them.
func (s *stmtScratch) sources(n int) ([]*relation, []joinInfo) {
	s.relBuf = scratchBuf(s.relBuf, n)[:n]
	s.rels = scratchBuf(s.rels, n)[:n]
	for i := range s.rels {
		s.rels[i] = &s.relBuf[i]
	}
	s.joins = scratchBuf(s.joins, max(n-1, 0))
	return s.rels, s.joins
}

// onEvals returns the evaluators of n join levels' ON conditions.
func (s *stmtScratch) onEvals(n int) []exprEval {
	if cap(s.on) < n {
		s.on = make([]exprEval, n)
	}
	s.on = s.on[:n]
	return s.on
}

// comboBuf returns combo buffer k emptied, with room for n pointers. The
// caller stores the filled buffer back into s.combos[k]. An earlier join
// level of the same statement may have filled it; those combos are
// consumed, and are cleared here so that the buffer holds nothing beyond
// the length its last user stores back.
func (s *stmtScratch) comboBuf(k, n int) []*storage.Row {
	clear(s.combos[k])
	return scratchBuf(s.combos[k], n)
}

// scratchBuf returns buf emptied when it can hold n elements, and
// otherwise a new empty slice of capacity exactly n: the size the
// statement would allocate without a frame.
func scratchBuf[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:0]
	}
	return make([]T, 0, n)
}

// retainScratch readies a buffer for the next statement: it zeroes the
// elements the statement used (buf's length), so the frame keeps no
// references into the statement, and returns buf emptied — or nil when
// its capacity exceeds scratchRetainMax.
func retainScratch[T any](buf []T) []T {
	if cap(buf) > scratchRetainMax {
		return nil
	}
	clear(buf)
	return buf[:0]
}
