package main

import (
	"bufio"
	"fmt"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/sqlast"
	"repro/internal/storage/pager"
	"repro/internal/sut"
	"repro/internal/xerr"

	_ "repro/internal/sut/memengine"
)

// kind names a span: one call across a layer boundary.
type kind uint8

const (
	kRunSeed kind = iota // core: core.Lifecycle.RunSeed
	kSweep               // runner: runner.Scheduler.Sweep
	kReduce              // reduce: reduce.BugFully
	kOpen                // sut: driver Open (pool miss)
	kReset               // sut: Resetter.Reset (pool hit)
	kDDL                 // engine statement classes from here on
	kDML
	kQuery
	kTxn
	kMaint
	kSQL // string Exec/Query/Plan: parse included
	numKinds
)

var kindNames = [numKinds]string{
	"core.run_seed", "runner.sweep", "reduce.bug_fully", "sut.open", "sut.reset",
	"engine.ddl", "engine.dml", "engine.query", "engine.txn", "engine.maint", "engine.sql",
}

// stmtClass maps every sqlast statement type to its engine class.
// TestStmtClassCoversSqlast fails when sqlast gains a type missing here.
var stmtClass = map[reflect.Type]kind{
	reflect.TypeOf(&sqlast.CreateTable{}): kDDL,
	reflect.TypeOf(&sqlast.CreateIndex{}): kDDL,
	reflect.TypeOf(&sqlast.CreateView{}):  kDDL,
	reflect.TypeOf(&sqlast.CreateStats{}): kDDL,
	reflect.TypeOf(&sqlast.AlterTable{}):  kDDL,
	reflect.TypeOf(&sqlast.Drop{}):        kDDL,
	reflect.TypeOf(&sqlast.Insert{}):      kDML,
	reflect.TypeOf(&sqlast.Update{}):      kDML,
	reflect.TypeOf(&sqlast.Delete{}):      kDML,
	reflect.TypeOf(&sqlast.Select{}):      kQuery,
	reflect.TypeOf(&sqlast.Compound{}):    kQuery,
	reflect.TypeOf(&sqlast.Explain{}):     kQuery,
	reflect.TypeOf(&sqlast.Txn{}):         kTxn,
	reflect.TypeOf(&sqlast.Maintenance{}): kMaint,
	reflect.TypeOf(&sqlast.SetOption{}):   kMaint,
}

// classify returns the engine class of a statement; ok is false for a
// statement type stmtClass does not know.
func classify(st sqlast.Stmt) (kind, bool) {
	k, ok := stmtClass[reflect.TypeOf(st)]
	return k, ok
}

// span is one recorded call. Times are nanoseconds since the tracer
// started; parent indexes the tracer's span slice (-1 = none).
type span struct {
	start, end int64
	parent     int32
	rows       int32
	kind       kind
	err        bool
	commit     bool // a COMMIT statement
	conflict   bool // a COMMIT answered with xerr.CodeConflict
}

// tracer keeps every span in memory. The driving goroutine sets cur to
// the span that causes the calls it is about to make (a RunSeed, or the
// sweep in fault-hunt); backend spans take cur as their parent.
type tracer struct {
	t0  time.Time
	cur atomic.Int32

	mu      sync.Mutex
	spans   []span
	pager   pager.Stats // pager counter deltas, summed over databases
	unknown int         // statements classify did not know
}

func newTracer() *tracer {
	tr := &tracer{t0: time.Now()}
	tr.cur.Store(-1)
	return tr
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.t0)) }

// add records a finished span and returns its index.
func (tr *tracer) add(s span) int32 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, s)
	return int32(len(tr.spans) - 1)
}

// open starts a driver-level span that later backend spans hang under;
// close ends it and restores the previous parent. Both do nothing on a
// nil tracer.
func (tr *tracer) open(k kind) (id, prev int32) {
	if tr == nil {
		return -1, -1
	}
	id = tr.add(span{kind: k, start: tr.now(), end: -1, parent: tr.cur.Load()})
	prev = tr.cur.Swap(id)
	return id, prev
}

func (tr *tracer) close(id, prev int32) {
	if tr == nil {
		return
	}
	end := tr.now()
	tr.mu.Lock()
	tr.spans[id].end = end
	tr.mu.Unlock()
	tr.cur.Store(prev)
}

// call records one backend call of kind k that ran from start to now.
func (tr *tracer) call(k kind, start int64, res *sut.Result, err error) {
	s := span{kind: k, start: start, end: tr.now(), parent: tr.cur.Load(), err: err != nil}
	if res != nil {
		s.rows = int32(len(res.Rows))
	}
	tr.add(s)
}

// write dumps every span as tab-separated id, parent, name, start_ns,
// end_ns, err.
func (tr *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, s := range tr.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%t\n", i, s.parent, kindNames[s.kind], s.start, s.end, s.err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// registerTraced registers a traced backend recording into tr and
// returns its sut backend name.
func registerTraced(tr *tracer) string {
	name := fmt.Sprintf("campaignbench-traced-%p", tr)
	sut.Register(name, &tracedDriver{tr: tr})
	return name
}

// tracedDriver opens memengine databases wrapped in tracedDB.
type tracedDriver struct{ tr *tracer }

func (d *tracedDriver) Open(s sut.Session) (sut.DB, error) {
	start := d.tr.now()
	db, err := sut.Open("memengine", s)
	d.tr.call(kOpen, start, nil, err)
	if err != nil {
		return nil, err
	}
	in, ok := db.(innerDB)
	if !ok {
		_ = db.Close()
		return nil, fmt.Errorf("memengine database %T lacks a capability the traced backend forwards", db)
	}
	t := &tracedDB{tr: d.tr, db: in}
	t.foldPager()
	return t, nil
}

// innerDB is a memengine database with the capabilities it has beyond
// sut.DB; tracedDB forwards each, so pooling, serializability and
// recovery take the same path as on the bare backend.
type innerDB interface {
	sut.DB
	sut.Resetter
	sut.MultiSession
	Snapshot() *engine.Snapshot
	RestoreSnapshot(*engine.Snapshot) error
	Durable() bool
	ArmCrash(pager.CrashPlan) bool
	DisarmCrash()
	CrashRecover(pager.CrashPlan) error
	PagerStats() (pager.Stats, bool)
}

var _ innerDB = (*tracedDB)(nil)

// tracedDB times every statement call of one database. A pool hands a
// database to one goroutine at a time, so pbase needs no lock.
type tracedDB struct {
	tr    *tracer
	db    innerDB
	pbase pager.Stats
}

func (t *tracedDB) Exec(sql string) (*sut.Result, error) {
	start := t.tr.now()
	res, err := t.db.Exec(sql)
	t.tr.call(kSQL, start, res, err)
	return res, err
}

func (t *tracedDB) Query(sql string) (*sut.Result, error) {
	start := t.tr.now()
	res, err := t.db.Query(sql)
	t.tr.call(kSQL, start, res, err)
	return res, err
}

func (t *tracedDB) ExecAST(st sqlast.Stmt) (*sut.Result, error) {
	start := t.tr.now()
	res, err := t.db.ExecAST(st)
	t.tr.stmt(st, start, res, err)
	return res, err
}

// stmt records a statement call under its class.
func (tr *tracer) stmt(st sqlast.Stmt, start int64, res *sut.Result, err error) {
	k, ok := classify(st)
	if !ok {
		tr.mu.Lock()
		tr.unknown++
		tr.mu.Unlock()
		k = kMaint
	}
	s := span{kind: k, start: start, end: tr.now(), parent: tr.cur.Load(), err: err != nil}
	if res != nil {
		s.rows = int32(len(res.Rows))
	}
	if txn, ok := st.(*sqlast.Txn); ok && txn.Op == sqlast.TxnCommit {
		code, _ := xerr.CodeOf(err)
		s.commit, s.conflict = true, err != nil && code == xerr.CodeConflict
	}
	tr.add(s)
}

func (t *tracedDB) Plan(sql string) ([]string, error) {
	start := t.tr.now()
	out, err := t.db.Plan(sql)
	t.tr.call(kSQL, start, nil, err)
	return out, err
}

func (t *tracedDB) Introspect() sut.Introspection { return t.db.Introspect() }
func (t *tracedDB) Session() sut.Session          { return t.db.Session() }

func (t *tracedDB) Close() error {
	t.foldPager()
	return t.db.Close()
}

// Reset implements sut.Resetter: the pool's reuse path.
func (t *tracedDB) Reset() error {
	t.foldPager()
	start := t.tr.now()
	err := t.db.Reset()
	t.tr.call(kReset, start, nil, err)
	t.foldPager()
	return err
}

// NewConn implements sut.MultiSession; the returned session's statements
// are timed like the database's own.
func (t *tracedDB) NewConn() (sut.Conn, error) {
	c, err := t.db.NewConn()
	if err != nil {
		return nil, err
	}
	return &tracedConn{tr: t.tr, c: c}, nil
}

func (t *tracedDB) Snapshot() *engine.Snapshot {
	start := t.tr.now()
	s := t.db.Snapshot()
	t.tr.call(kMaint, start, nil, nil)
	return s
}

func (t *tracedDB) RestoreSnapshot(s *engine.Snapshot) error {
	start := t.tr.now()
	err := t.db.RestoreSnapshot(s)
	t.tr.call(kMaint, start, nil, err)
	return err
}

func (t *tracedDB) Durable() bool                      { return t.db.Durable() }
func (t *tracedDB) ArmCrash(plan pager.CrashPlan) bool { return t.db.ArmCrash(plan) }
func (t *tracedDB) DisarmCrash()                       { t.db.DisarmCrash() }
func (t *tracedDB) PagerStats() (pager.Stats, bool)    { return t.db.PagerStats() }

func (t *tracedDB) CrashRecover(plan pager.CrashPlan) error {
	t.foldPager()
	start := t.tr.now()
	err := t.db.CrashRecover(plan)
	t.tr.call(kMaint, start, nil, err)
	t.foldPager()
	return err
}

// foldPager adds the pager counters accrued since the last fold to the
// tracer. A recovery or reset that replaces the pager restarts its
// counters; a counter going down marks that, and the new pager's counts
// are taken from zero.
func (t *tracedDB) foldPager() {
	ps, ok := t.db.PagerStats()
	if !ok {
		return
	}
	b := t.pbase
	if ps.Commits < b.Commits || ps.WalFrames < b.WalFrames || ps.Checkpoints < b.Checkpoints ||
		ps.Recoveries < b.Recoveries || ps.CacheHits < b.CacheHits || ps.CacheMisses < b.CacheMisses {
		b = pager.Stats{}
	}
	t.pbase = ps
	t.tr.mu.Lock()
	defer t.tr.mu.Unlock()
	t.tr.pager.Commits += ps.Commits - b.Commits
	t.tr.pager.WalFrames += ps.WalFrames - b.WalFrames
	t.tr.pager.Checkpoints += ps.Checkpoints - b.Checkpoints
	t.tr.pager.Recoveries += ps.Recoveries - b.Recoveries
	t.tr.pager.CacheHits += ps.CacheHits - b.CacheHits
	t.tr.pager.CacheMisses += ps.CacheMisses - b.CacheMisses
}

// tracedConn times the statements of one extra session.
type tracedConn struct {
	tr *tracer
	c  sut.Conn
}

func (c *tracedConn) Exec(sql string) (*sut.Result, error) {
	start := c.tr.now()
	res, err := c.c.Exec(sql)
	c.tr.call(kSQL, start, res, err)
	return res, err
}

func (c *tracedConn) ExecAST(st sqlast.Stmt) (*sut.Result, error) {
	start := c.tr.now()
	res, err := c.c.ExecAST(st)
	c.tr.stmt(st, start, res, err)
	return res, err
}

func (c *tracedConn) Close() error { return c.c.Close() }
