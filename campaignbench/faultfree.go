package main

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dialect"
	"repro/internal/sqlval"
	"repro/internal/sut"
)

// faultFree lists, per fault-free workload, the lifecycle configurations
// one driver goroutine rotates through: one per (dialect, oracle).
var faultFree = map[string]func() []core.Config{
	"campaign": func() []core.Config {
		return perDialect(core.Config{QueriesPerDB: 20}, "pqs", "tlp", "norec")
	},
	"campaign-paper": func() []core.Config {
		return perDialect(core.Config{QueriesPerDB: 20, MinRows: 10, MaxRows: 30}, "pqs", "tlp", "norec")
	},
	"txn-durable": func() []core.Config {
		out := perDialect(core.Config{QueriesPerDB: 20}, "serializability")
		// Recovery runs as the scheduler runs it: durable pager storage
		// and one crash round per database.
		return append(out, perDialect(core.Config{QueriesPerDB: 1, Storage: "pager"}, "recovery")...)
	},
}

// roundsPerSecond sizes a fault-free run: a run of --seconds s runs
// seconds*roundsPerSecond databases on every lane, about --seconds of
// wall time on a 2-vCPU virtual machine. The work is fixed by the seed
// and --seconds, not by the clock, so every run of one seed runs the
// same databases and fails the same ones.
var roundsPerSecond = map[string]int{
	"campaign":       120,
	"campaign-paper": 35,
	"txn-durable":    60,
}

// rounds is how many databases each lane runs in the measured phase.
func (r *run) rounds() int { return int(r.seconds/time.Second) * roundsPerSecond[r.workload] }

// laneOracles are every oracle a fault-free lane can run, for the
// per-lane metric names.
var laneOracles = []string{"pqs", "tlp", "norec", "serializability", "recovery"}

func perDialect(base core.Config, oracles ...string) []core.Config {
	var out []core.Config
	for _, d := range dialect.All {
		for _, o := range oracles {
			c := base
			c.Dialect, c.Oracle = d, o
			out = append(out, c)
		}
	}
	return out
}

// seedSpan separates the seed streams of different workload seeds: the
// databases of workload seed s use seeds s*seedSpan+1, s*seedSpan+2, ...
const seedSpan = 1 << 20

// warmupSeed is the database every set-up runs, whatever the workload
// seed, so that set-up does the same work on every run.
const warmupSeed = 0

// lane is one (dialect, oracle) lifecycle and the databases it has run.
type lane struct {
	cfg   core.Config
	lc    *core.Lifecycle
	next  int64    // next database seed
	ran   []int64  // measured seeds, in order
	out   []string // per ran seed: "" or why the database failed
	stats core.Stats
	busy  time.Duration // RunSeed wall time of the ran seeds
	cpu   time.Duration // process CPU time over the same calls
}

func (l *lane) name() string { return fmt.Sprintf("%s.%s", l.cfg.Dialect, l.cfg.Oracle) }

// runSeed runs one database and returns "" or why it failed. A database
// fails when RunSeed errs or detects anything: no fault is injected, so
// every detection is a false positive.
func (l *lane) runSeed(seed int64) string {
	bug, err := l.lc.RunSeed(seed)
	switch {
	case err != nil:
		return "error: " + err.Error()
	case bug != nil:
		return fmt.Sprintf("detection (%s): %s", bug.Oracle, bug.Message)
	}
	return ""
}

// count records one database as an attempted operation.
func (r *run) count(l *lane, seed int64, outcome string) {
	r.res.Attempted++
	if outcome != "" {
		r.fail("%s %s seed=%d %s", l.cfg.Dialect, l.cfg.Oracle, seed, outcome)
	}
}

// buildLanes creates one lifecycle per configuration on the backend and
// runs the warm-up database on each. The warm-up is checked and counted
// when count is set.
func (r *run) buildLanes(backend string, count bool) []*lane {
	var lanes []*lane
	for _, cfg := range faultFree[r.workload]() {
		cfg.Backend = backend
		l := &lane{
			cfg:   cfg,
			lc:    core.NewLifecycle(cfg),
			next:  r.seed*seedSpan + 1,
			stats: core.Stats{Rectified: map[sqlval.TriBool]int{}},
		}
		if out := l.runSeed(warmupSeed); count {
			r.count(l, warmupSeed, out)
		}
		l.lc.TakeStats()
		lanes = append(lanes, l)
	}
	return lanes
}

func closeLanes(lanes []*lane) {
	for _, l := range lanes {
		_ = l.lc.Close() // in-memory engines hold nothing; pager ones remove their files
	}
}

// setup builds the lanes setupRepeats times, reports the median build
// time in reference CPU seconds as setup_s and keeps the last build,
// whose warm-ups count.
func (r *run) setup(backend string) []*lane {
	var times []float64
	var lanes []*lane
	for i := 0; i < setupRepeats; i++ {
		closeLanes(lanes)
		runtime.GC()
		start := cpuTime()
		lanes = r.buildLanes(backend, i == setupRepeats-1)
		times = append(times, refSecondsNow(cpuTime()-start))
	}
	r.put("setup_s", median(times), "s")
	return lanes
}

// drive runs seeds[i] on lane i, one database per lane in turn, and
// returns the wall time it took. each runs one database and returns its
// outcome.
func drive(lanes []*lane, seeds [][]int64, each func(l *lane, seed int64) string, afterRound func()) time.Duration {
	start := time.Now()
	for round, done := 0, false; !done; round++ {
		done = true
		for i, l := range lanes {
			if round >= len(seeds[i]) {
				continue
			}
			done = false
			seed := seeds[i][round]
			t, c := time.Now(), cpuTime()
			out := each(l, seed)
			l.busy += time.Since(t)
			l.cpu += cpuTime() - c
			l.ran = append(l.ran, seed)
			l.out = append(l.out, out)
		}
		if !done && afterRound != nil {
			afterRound()
		}
	}
	wall := time.Since(start)
	for _, l := range lanes {
		l.stats.Add(l.lc.TakeStats())
	}
	return wall
}

// nextSeeds gives every lane its next n database seeds.
func nextSeeds(lanes []*lane, n int) [][]int64 {
	seeds := make([][]int64, len(lanes))
	for i, l := range lanes {
		for j := 0; j < n; j++ {
			seeds[i] = append(seeds[i], l.next)
			l.next++
		}
	}
	return seeds
}

// checkStats verifies each lane's Databases counter against the seeds it
// ran.
func (r *run) checkStats(lanes []*lane) {
	for _, l := range lanes {
		if l.stats.Databases != len(l.ran) {
			r.wrong("%s: core.Stats counted %d databases, ran %d", l.name(), l.stats.Databases, len(l.ran))
		}
	}
}

func (r *run) faultFreeUntraced() error {
	lanes := r.setup(sut.DefaultBackend)
	defer closeLanes(lanes)
	cost := measureProbe()
	var lat []float64
	var blocks speedBlocks
	var program time.Duration // CPU time of the current round's databases
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	wall := drive(lanes, nextSeeds(lanes, r.rounds()), func(l *lane, seed int64) string {
		t, c := time.Now(), cpuTime()
		out := l.runSeed(seed)
		program += cpuTime() - c
		lat = append(lat, float64(time.Since(t))/1e6)
		r.count(l, seed, out)
		return out
	}, func() {
		blocks.add(len(lanes), program, timeProbes(1))
		program = 0
	})
	cpu := cpuTime() - c0
	runtime.ReadMemStats(&m1)
	r.checkStats(lanes)

	var dbs, stmts int
	for _, l := range lanes {
		dbs += len(l.ran)
		stmts += l.stats.Statements
	}
	cost.subtract(&m1, blocks.probes())
	note("probe_us=%.2f over %d probes, nominal %.2f", blocks.probeCPU().Seconds()*1e6/float64(blocks.probes()),
		blocks.probes(), probeNominal.Seconds()*1e6)
	r.throughput(dbs, stmts, wall, cpu-blocks.probeCPU(), blocks.rate(), &m0, &m1)
	for _, l := range lanes {
		note("lane %-24s databases=%d cpu_s=%.3f dbs_per_cpu_s=%.1f", l.name(), len(l.ran), l.cpu.Seconds(), float64(len(l.ran))/l.cpu.Seconds())
	}
	sort.Float64s(lat)
	reportLatency("db", lat)
	note("failed_frac=%.6f (%d of %d databases, warm-ups included)",
		frac(float64(r.res.Failed), float64(r.res.Attempted)), r.res.Failed, r.res.Attempted)
	return nil
}

// reportLatency prints the median and the highest percentile the sample
// count supports.
func reportLatency(what string, sorted []float64) {
	if v, ok := percentile(sorted, 50); ok {
		note("%s_p50_ms=%.4f over %d samples", what, v, len(sorted))
	}
	if p := tailPercentile(len(sorted)); p > 50 {
		v, _ := percentile(sorted, p)
		note("%s_p%g_ms=%.4f over %d samples", what, p, v, len(sorted))
	}
}

// faultFreeTraced runs the workload on the traced backend for half the
// run, then the same seeds untraced, checks that the two agree database
// by database, and reports per-layer metrics from the traced spans.
func (r *run) faultFreeTraced() error {
	tr := newTracer()
	tracedBackend := registerTraced(tr)
	traced := r.buildLanes(tracedBackend, true)
	defer closeLanes(traced)
	tr.reset()
	runtime.GC()
	c0 := cpuTime()
	drive(traced, nextSeeds(traced, max(1, r.rounds()/2)), func(l *lane, seed int64) string {
		id, prev := tr.open(kRunSeed)
		out := l.runSeed(seed)
		tr.close(id, prev)
		r.count(l, seed, out)
		return out
	}, nil)
	tracedCPU := cpuTime() - c0
	r.checkStats(traced)

	replay := make([][]int64, len(traced))
	for i, l := range traced {
		replay[i] = l.ran
	}
	plain := r.buildLanes(sut.DefaultBackend, false)
	defer closeLanes(plain)
	runtime.GC()
	c0 = cpuTime()
	drive(plain, replay, func(l *lane, seed int64) string { return l.runSeed(seed) }, nil)
	plainCPU := cpuTime() - c0
	for i := range traced {
		r.compareLanes(traced[i], plain[i])
	}
	r.put("trace.overhead_frac", tracedCPU.Seconds()/plainCPU.Seconds()-1, "frac")

	all := core.Stats{Rectified: map[sqlval.TriBool]int{}}
	var durableDBs int
	for _, l := range traced {
		all.Add(&l.stats)
		if l.cfg.Storage == "pager" {
			durableDBs += len(l.ran)
		}
		r.put("core."+l.name()+".dbs_per_s", float64(len(l.ran))/l.busy.Seconds(), "1/s")
	}
	r.coreCounters(&all)
	r.layerMetrics(tr, 0, durableDBs)
	return r.writeSpans(tr)
}

// compareLanes checks that a traced and an untraced lane ran the same
// seeds with the same outcomes and the same core.Stats counters.
func (r *run) compareLanes(a, b *lane) {
	if !reflect.DeepEqual(a.ran, b.ran) {
		r.wrong("%s: traced and untraced runs ran different seeds", a.name())
		return
	}
	for i := range a.ran {
		if a.out[i] != b.out[i] {
			r.wrong("%s seed=%d: traced outcome %q, untraced %q", a.name(), a.ran[i], a.out[i], b.out[i])
		}
	}
	if !reflect.DeepEqual(a.stats, b.stats) {
		r.wrong("%s: traced stats %+v, untraced %+v", a.name(), a.stats, b.stats)
	}
}
