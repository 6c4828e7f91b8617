// Package engine implements the embedded SQL engine substrate: catalog,
// storage, planner, and executor for the three dialect profiles. It is the
// "DBMS under test" of the reproduction; the injected bugs from
// internal/faults live at specific sites in this package and internal/eval.
//
// Query execution picks strategies by cost: index access paths (plan.go),
// hash/index/nested-loop joins (join.go), and streaming hash aggregation
// plus heap-based top-K ordering (agg.go), each ablatable down to its
// naive counterpart (WithDisabled over a strategy.Set) so campaigns
// can bisect a detection to the optimized path.
package engine

import (
	"fmt"
	"sync"

	"repro/internal/dialect"
	"repro/internal/eval"
	"repro/internal/faults"
	"repro/internal/schema"
	"repro/internal/sqlast"
	"repro/internal/sqlparse"
	"repro/internal/sqlval"
	"repro/internal/storage"
	"repro/internal/storage/pager"
	"repro/internal/strategy"
	"repro/internal/xerr"
)

// Result is the outcome of one statement.
type Result struct {
	Columns      []string
	Rows         [][]sqlval.Value
	RowsAffected int
}

// tableState is the engine's per-table bookkeeping beyond catalog+heap.
type tableState struct {
	analyzed      bool  // ANALYZE has run (skip-scan trigger)
	hasStats      bool  // CREATE STATISTICS exists (pg)
	renamedColumn bool  // a column was renamed (crash-fault trigger)
	updateSeq     int64 // statement seq of the last UPDATE
	bigIntSeen    bool  // an inserted value reached int32 max (Listing 18)
	lastInsert    int64 // rowid of the most recent insert (visibility fault)

	// Listing 8 reproduction: after RENAME COLUMN, a double-quoted index
	// string hijacks the projection of column dqHijackCol.
	dqHijackCol int
	dqHijackVal string
}

// Engine is one in-memory database instance. It is safe for concurrent use;
// statements are serialized, like SQLite in its default mode.
type Engine struct {
	mu sync.Mutex

	d   dialect.Dialect
	fs  *faults.Set
	cat *schema.Catalog
	ev  *eval.Evaluator

	data  map[string]*storage.TableData // keyed by lower-case table name
	idx   map[string]*storage.IndexData // keyed by lower-case index name
	state map[string]*tableState

	seq               int64
	ddlEpoch          int64  // bumped on schema changes; guards data snapshots
	corrupt           string // non-empty: database is corrupted; message
	caseSensitiveLike bool
	off               strategy.Set // disabled execution strategies (WithDisabled)
	skipIndexMaint    bool         // stale-index fault: storeRow leaves indexes untouched
	globals           map[string]sqlval.Value

	// freeTables/freeIndexes recycle storage containers across Reset so a
	// pooled engine lifecycle reuses row-slice and entry-slab capacity
	// instead of reallocating per database.
	freeTables  []*storage.TableData
	freeIndexes []*storage.IndexData

	// Durable-storage backend (nil for the default in-memory engine).
	// ddlLog holds the SQL of every successful DDL statement since the
	// last Reset — recovery replays it to rebuild the catalog; recovering
	// suppresses logging/persisting while the replay itself runs.
	pg         *pager.Pager
	vfs        pager.VFS
	dir        string
	ddlLog     []string
	recovering bool

	// Transaction machinery (txn.go): the default session, the sessions
	// with open transactions, which session's working state currently
	// occupies e.data (nil: the committed state), the parked committed
	// snapshot while a transaction's state is installed, and the commit
	// counter + log for backward validation.
	defConn   *Conn
	txns      map[*Conn]struct{}
	curOwn    *Conn
	commSnap  *Snapshot
	commitSeq int64
	commitLog []commitRecord

	cov *Coverage

	// scratch holds SELECT setup state reused across statements, one
	// frame per nesting depth; depth is the number of SELECTs running
	// (scratch.go).
	scratch [scratchDepth]stmtScratch
	depth   int
}

// Option configures an Engine at Open time.
type Option func(*Engine)

// WithFaults enables an injected-bug set.
func WithFaults(fs *faults.Set) Option {
	return func(e *Engine) { e.fs = fs }
}

// WithDisabled turns the given execution strategies off, pinning each to
// its naive counterpart: Planner to full scans, Compile to the tree-walk
// interpreter, HashJoin to nested loops, HashAgg to materialized grouping
// and full sorts. It is the A/B escape hatch and the baseline half of the
// strategy differential suites.
func WithDisabled(s strategy.Set) Option {
	return func(e *Engine) { e.off = s }
}

// Open creates an empty database for the dialect.
func Open(d dialect.Dialect, opts ...Option) *Engine {
	e := &Engine{
		d:       d,
		cat:     schema.NewCatalog(),
		data:    map[string]*storage.TableData{},
		idx:     map[string]*storage.IndexData{},
		state:   map[string]*tableState{},
		globals: map[string]sqlval.Value{},
		txns:    map[*Conn]struct{}{},
		cov:     newCoverage(),
	}
	for _, o := range opts {
		o(e)
	}
	e.ev = &eval.Evaluator{D: d, Faults: e.fs}
	e.defConn = &Conn{e: e}
	return e
}

// Dialect reports the engine's dialect profile.
func (e *Engine) Dialect() dialect.Dialect { return e.d }

// Faults exposes the enabled fault set (nil when none).
func (e *Engine) Faults() *faults.Set { return e.fs }

// Disabled reports the execution strategies the engine was opened without.
func (e *Engine) Disabled() strategy.Set { return e.off }

// crashPanic is the payload of a simulated SEGFAULT.
type crashPanic struct{ site string }

// Exec parses and executes src (one or more ';'-separated statements) and
// returns the last statement's result. A simulated crash is returned as an
// error with xerr.CodeCrash — the analogue of the DBMS process dying.
func (e *Engine) Exec(src string) (*Result, error) {
	stmts, err := sqlparse.Parse(src, e.d)
	if err != nil {
		return nil, xerr.New(xerr.CodeSyntax, "%v", err)
	}
	var res *Result
	for _, st := range stmts {
		res, err = e.ExecStmt(st)
		if err != nil {
			return nil, err
		}
	}
	if res == nil {
		res = &Result{}
	}
	return res, nil
}

// Query is Exec restricted to a single SELECT.
func (e *Engine) Query(src string) (*Result, error) {
	return e.Exec(src)
}

// ExecStmt executes one parsed statement on the engine's default session.
func (e *Engine) ExecStmt(st sqlast.Stmt) (*Result, error) {
	return e.defConn.ExecStmt(st)
}

// ExecStmt executes one parsed statement on this session.
func (c *Conn) ExecStmt(st sqlast.Stmt) (res *Result, err error) {
	e := c.e
	e.mu.Lock()
	defer e.mu.Unlock()
	defer func() {
		if r := recover(); r != nil {
			if cp, ok := r.(crashPanic); ok {
				res = nil
				err = xerr.New(xerr.CodeCrash, "SIGSEGV at %s (simulated)", cp.site)
				// The simulated SEGFAULT may have left a partial mutation:
				// bring the durable image back in line with memory. Inside
				// an open transaction the damage is staged, not durable.
				if e.pg != nil && mutating(st) && c.txn == nil {
					if perr := e.persistLocked(); perr != nil {
						err = perr
					}
				}
				return
			}
			panic(r)
		}
	}()
	e.seq++
	e.cov.hitNamed("stmt.", st.Kind())
	if tx, ok := st.(*sqlast.Txn); ok {
		return e.execTxnLocked(c, tx)
	}
	// A transaction whose snapshot predates a concurrent schema change
	// cannot be switched back in: abort it (its next statement fails).
	if c.txn != nil && c.txn.epoch != e.ddlEpoch {
		e.abortTxnLocked(c, false)
		return nil, xerr.New(xerr.CodeConflict, "transaction aborted: schema changed by a concurrent session")
	}
	// Schema changes are not transactional: DDL inside an open
	// transaction commits it first (MySQL-style implicit commit).
	if c.txn != nil && isDDL(st) {
		if cerr := e.commitTxnLocked(c); cerr != nil {
			return nil, cerr
		}
	}
	// Install this session's state — unless the dirty-read-leak fault is
	// injected and a read-only auto-commit statement arrives while a
	// transaction's uncommitted working state is installed: the read then
	// sees it (a dirty read).
	if !(c.txn == nil && e.curOwn != nil && !mutating(st) && e.fs.Has(faults.TxnDirtyReadLeak)) {
		e.installLocked(owner(c))
	}
	if isDDL(st) {
		// Schema shape may change: invalidate outstanding data snapshots
		// (conservatively, even if the statement goes on to fail).
		e.ddlEpoch++
	}

	// A corrupted database fails every subsequent data statement, like
	// SQLite's persistent "database disk image is malformed".
	if e.corrupt != "" {
		return nil, xerr.New(xerr.CodeCorrupt, "%s", e.corrupt)
	}

	// Write/read sets only matter while transactions are open; the
	// single-session fast path skips the bookkeeping entirely.
	var wt map[string]struct{}
	if c.txn != nil || len(e.txns) > 0 {
		wt = writeTargets(st)
	}
	if c.txn != nil {
		// First-writer-wins: a table in another open transaction's write
		// set is locked against this one (skipped under the lost-update
		// fault, which also skips commit-time write validation).
		if len(wt) > 0 && !e.fs.Has(faults.TxnLostUpdate) {
			for other := range e.txns {
				if other == c {
					continue
				}
				if w := overlaps(other.txn.writes, wt); w != "" {
					return nil, xerr.New(xerr.CodeBusy, "table %s is write-locked by a concurrent transaction", displayWrite(w))
				}
			}
		}
		// Record before executing: a failed statement may leave partial
		// effects, and a simulated crash unwinds past the post-exec path.
		for w := range wt {
			c.txn.writes[w] = struct{}{}
		}
		for r := range e.readTargetsLocked(st) {
			c.txn.reads[r] = struct{}{}
		}
	}

	res, err = e.exec1(st)

	if c.txn != nil {
		return res, err
	}
	if mutating(st) && len(e.txns) > 0 {
		e.noteAutoCommitLocked(wt)
	}
	// Durable engines persist after every mutating auto-commit statement —
	// including failed ones, whose partial effects (multi-row INSERT dying
	// midway) are real in-memory state the durable image must track. A
	// persist failure (simulated power cut, dead pager) supersedes the
	// statement's own outcome: the durable state is what broke.
	if e.pg != nil && mutating(st) {
		if err == nil && isDDL(st) {
			e.ddlLog = append(e.ddlLog, sqlast.SQL(st, e.d))
		}
		if perr := e.persistLocked(); perr != nil {
			res, err = nil, perr
		}
	}
	return res, err
}

// exec1 dispatches one statement with e.mu held. Durable-storage recovery
// calls it directly to replay the DDL log without re-persisting.
func (e *Engine) exec1(st sqlast.Stmt) (*Result, error) {
	switch n := st.(type) {
	case *sqlast.CreateTable:
		return e.createTable(n)
	case *sqlast.CreateIndex:
		return e.createIndex(n)
	case *sqlast.CreateView:
		return e.createView(n)
	case *sqlast.CreateStats:
		return e.createStats(n)
	case *sqlast.Insert:
		return e.insert(n)
	case *sqlast.Update:
		return e.update(n)
	case *sqlast.Delete:
		return e.delete(n)
	case *sqlast.AlterTable:
		return e.alterTable(n)
	case *sqlast.Drop:
		return e.drop(n)
	case *sqlast.Select:
		return e.execSelect(n)
	case *sqlast.Compound:
		return e.execCompound(n)
	case *sqlast.Explain:
		return e.execExplain(n)
	case *sqlast.Maintenance:
		return e.maintenance(n)
	case *sqlast.SetOption:
		return e.setOption(n)
	default:
		return nil, xerr.New(xerr.CodeUnsupported, "unsupported statement %T", st)
	}
}

// table resolves a base table (not a view).
func (e *Engine) table(name string) (*schema.Table, *storage.TableData, error) {
	t, ok := e.cat.Table(name)
	if !ok || t.IsView {
		return nil, nil, xerr.New(xerr.CodeNoObject, "no such table: %s", name)
	}
	return t, e.data[lower(t.Name)], nil
}

func (e *Engine) tableState(name string) *tableState {
	k := lower(name)
	ts, ok := e.state[k]
	if !ok {
		ts = &tableState{dqHijackCol: -1}
		e.state[k] = ts
	}
	return ts
}

// lower folds ASCII upper case, returning s itself when it has none (the
// common case: generated names are lower-case).
func lower(s string) string {
	i := 0
	for i < len(s) && (s[i] < 'A' || s[i] > 'Z') {
		i++
	}
	if i == len(s) {
		return s
	}
	b := []byte(s)
	for ; i < len(b); i++ {
		if c := b[i]; c >= 'A' && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}

// Tables lists base table names (introspection for PQS, like
// sqlite_master / information_schema.tables).
func (e *Engine) Tables() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cat.TableNames()
}

// Views lists view names.
func (e *Engine) Views() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cat.ViewNames()
}

// Describe returns a table's introspection record.
func (e *Engine) Describe(name string) (schema.TableInfo, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ok := e.cat.Table(name)
	if !ok {
		return schema.TableInfo{}, xerr.New(xerr.CodeNoObject, "no such table: %s", name)
	}
	return schema.Describe(t), nil
}

// Indexes lists index names on a table.
func (e *Engine) Indexes(table string) []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []string
	for _, ix := range e.cat.IndexesOn(table) {
		out = append(out, ix.Name)
	}
	return out
}

// RawRows returns a copy of a table's stored rows, bypassing the query
// path entirely. PQS uses this for pivot-row selection (step 2 of the
// paper): the tester knows which rows it inserted, so pivot selection must
// reflect ground truth rather than the possibly-buggy SELECT path.
func (e *Engine) RawRows(table string) [][]sqlval.Value {
	e.mu.Lock()
	defer e.mu.Unlock()
	td, ok := e.data[lower(table)]
	if !ok {
		return nil
	}
	var out [][]sqlval.Value
	for _, r := range td.Rows() {
		vals := make([]sqlval.Value, len(r.Vals))
		copy(vals, r.Vals)
		out = append(out, vals)
	}
	return out
}

// RowCount reports a table's live row count (0 for unknown tables).
func (e *Engine) RowCount(table string) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	td, ok := e.data[lower(table)]
	if !ok {
		return 0
	}
	return td.Len()
}

// Corrupted reports whether the database is marked corrupt and why.
func (e *Engine) Corrupted() (bool, string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.corrupt != "", e.corrupt
}

// Coverage returns the feature-coverage counters (Table 4 reproduction).
func (e *Engine) Coverage() *Coverage { return e.cov }

// constEval evaluates an expression with no row context.
func (e *Engine) constEval(x sqlast.Expr) (sqlval.Value, error) {
	return e.ev.Eval(x, eval.EmptyEnv{})
}

// Coverage counts distinct engine features exercised, standing in for the
// line/branch coverage of Table 4 (gcov is unavailable for our own
// substrate while it runs).
type Coverage struct {
	mu   sync.Mutex
	hits map[covKey]int
}

// covKey names one feature as a group prefix and a name that Snapshot
// joins, so a hit on a per-statement name ("stmt." + kind) needs no
// concatenated heap string. A fixed feature is its group alone.
type covKey struct{ group, name string }

func newCoverage() *Coverage { return &Coverage{hits: map[covKey]int{}} }

func (c *Coverage) hit(feature string) { c.hitNamed(feature, "") }

// hitNamed counts the feature group+name.
func (c *Coverage) hitNamed(group, name string) {
	c.mu.Lock()
	c.hits[covKey{group, name}]++
	c.mu.Unlock()
}

// Features returns the number of distinct features exercised.
func (c *Coverage) Features() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.hits)
}

// Snapshot copies the counters.
func (c *Coverage) Snapshot() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int, len(c.hits))
	for k, v := range c.hits {
		out[k.group+k.name] += v
	}
	return out
}

// String summarizes coverage.
func (c *Coverage) String() string {
	return fmt.Sprintf("coverage{%d features}", c.Features())
}
