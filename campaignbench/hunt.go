package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dialect"
	"repro/internal/faults"
	"repro/internal/reduce"
	"repro/internal/runner"
	"repro/internal/sqlval"
	"repro/internal/sut"
)

// huntBudget is the per-fault database budget of a fault-hunt sweep.
const huntBudget = 1500

// maxHunts bounds the hunts of one run, so hunt bases of different
// workload seeds never overlap.
const maxHunts = 64

// huntSeconds sizes a fault-hunt run: a run of --seconds s runs
// seconds/huntSeconds hunts (at least one), each about huntSeconds of
// wall time on a 2-vCPU virtual machine. Like the fault-free rounds, the
// work is fixed by the seed and --seconds, not by the clock.
const huntSeconds = 5

// hunts is how many hunts the measured phase runs.
func (r *run) hunts() int {
	return min(maxHunts, max(1, int(r.seconds/time.Second)/huntSeconds))
}

// huntBase is the base seed of hunt i of workload seed s.
func huntBase(seed int64, i int) int64 { return (seed*maxHunts+int64(i))*seedSpan + 1 }

// registrySize is the number of registered faults across the dialects.
func registrySize() int {
	n := 0
	for _, d := range dialect.All {
		n += len(faults.ForDialect(d))
	}
	return n
}

// huntCampaigns is the -corpus sweep of every dialect: one campaign per
// registered fault, routed to its registry oracle.
func huntCampaigns(base int64, budget int, doReduce bool, backend string) []runner.Campaign {
	var cs []runner.Campaign
	for _, d := range dialect.All {
		cs = append(cs, runner.CorpusCampaigns(d, budget, base, doReduce)...)
	}
	for i := range cs {
		cs[i].Tester.Backend = backend
	}
	return cs
}

// huntStats accumulates the outcomes of fault campaigns.
type huntStats struct {
	dbs, stmts int
	detectDBs  []float64 // databases to the canonical detection
	reducedLen []float64 // reduced test-case length
	traceLen   int       // original trace lengths of the reduced bugs
	wasted     int       // databases run past the canonical detection
	detected   int
	missed     map[faults.Fault]int
	stats      core.Stats
	durableDBs int
}

func newHuntStats() *huntStats {
	return &huntStats{
		missed: map[faults.Fault]int{},
		stats:  core.Stats{Rectified: map[sqlval.TriBool]int{}},
	}
}

// check counts each campaign as one operation. It fails when the fault
// was not detected, or when its reduced trace no longer reproduces it.
// It returns how many faults were detected.
func (r *run) check(h *huntStats, results []runner.Result, reduced [][]string) int {
	if len(results) != registrySize() {
		r.wrong("fault-hunt swept %d campaigns for %d registered faults", len(results), registrySize())
	}
	detected := 0
	for i, res := range results {
		c := res.Campaign
		r.res.Attempted++
		h.dbs += res.Databases
		h.stmts += res.Stats.Statements
		h.stats.Add(&res.Stats)
		if len(c.Oracles) == 1 && c.Oracles[0] == "recovery" {
			h.durableDBs += res.Databases
		}
		if !res.Detected {
			h.missed[c.Fault]++
			r.fail("fault-hunt %s missed within %d databases from seed %d", c.Fault, c.MaxDatabases, c.BaseSeed)
			continue
		}
		off := res.Seed - c.BaseSeed
		if res.Bug == nil || off < 0 || off >= int64(c.MaxDatabases) {
			r.wrong("fault-hunt %s: detection at seed %d outside its campaign", c.Fault, res.Seed)
			continue
		}
		detected++
		h.detectDBs = append(h.detectDBs, float64(off+1))
		h.wasted += res.Databases - int(off+1)
		red := reduced[i]
		h.reducedLen = append(h.reducedLen, float64(len(red)))
		h.traceLen += len(res.Bug.Trace)
		if !reduce.CheckerFor(res.Bug, c.Dialect, faults.NewSet(c.Fault))(red) {
			r.fail("fault-hunt %s seed=%d reduced trace no longer reproduces", c.Fault, res.Seed)
		}
	}
	h.detected += detected
	return detected
}

// setupHunt builds the campaigns and runs a warm-up sweep of one
// database per campaign, setupRepeats times, and reports the median in
// reference CPU seconds.
func (r *run) setupHunt(sched *runner.Scheduler) {
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		start := cpuTime()
		sched.Sweep(context.Background(), huntCampaigns(warmupSeed, 1, false, sut.DefaultBackend))
		times = append(times, refSecondsNow(cpuTime()-start))
	}
	r.put("setup_s", median(times), "s")
}

// huntOut is what a hunt child reports to its parent as its last line.
type huntOut struct {
	Attempted, Failed, Detected int
	Correct                     bool
	DBs, Stmts                  int
	WallS, CPUS, RefCPUS        float64
	Mallocs, Bytes              uint64
	DetectDBs, ReducedLen       []float64
	Missed                      []string
}

// runHunt runs hunt i of the run's seed in this process and reports it.
func (r *run) runHunt(sched *runner.Scheduler, i int) huntOut {
	cs := huntCampaigns(huntBase(r.seed, i), huntBudget, true, sut.DefaultBackend)
	runtime.GC()
	probeBefore := probeBurst(probeBurstCalls)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start, c0 := time.Now(), cpuTime()
	results := sched.Sweep(context.Background(), cs)
	wall, cpu := time.Since(start), cpuTime()-c0
	runtime.ReadMemStats(&m1)
	probeAfter := probeBurst(probeBurstCalls)
	reduced := make([][]string, len(results))
	for j, res := range results {
		reduced[j] = res.Reduced
	}
	h := newHuntStats()
	detected := r.check(h, results, reduced)
	o := huntOut{
		Attempted: r.res.Attempted, Failed: r.res.Failed, Detected: detected, Correct: r.res.Correct,
		DBs: h.dbs, Stmts: h.stmts, WallS: wall.Seconds(), CPUS: cpu.Seconds(),
		RefCPUS: refSeconds(cpu, probeBefore+probeAfter, 2*probeBurstCalls),
		Mallocs: m1.Mallocs - m0.Mallocs, Bytes: m1.TotalAlloc - m0.TotalAlloc,
		DetectDBs: h.detectDBs, ReducedLen: h.reducedLen,
	}
	for f := range h.missed {
		o.Missed = append(o.Missed, string(f))
	}
	return o
}

// huntChild is the child side of one hunt: it runs hunt i (traced or
// not) after a warm-up sweep and prints its report as the last line.
func (r *run) huntChild(i int, traced bool) error {
	// A hunt that aborts must die alone and inside a bounded address
	// space, not grow into memory the host shares with others.
	lim := &syscall.Rlimit{Cur: childMemLimit, Max: childMemLimit}
	if err := syscall.Setrlimit(syscall.RLIMIT_AS, lim); err != nil {
		return fmt.Errorf("limiting hunt memory: %w", err)
	}
	sched := &runner.Scheduler{Workers: runtime.NumCPU()}
	sched.Sweep(context.Background(), huntCampaigns(warmupSeed, 1, false, sut.DefaultBackend))
	var out any
	if traced {
		if err := r.huntTraced(huntBase(r.seed, i), huntBudget); err != nil {
			return err
		}
		out = r.res
	} else {
		out = r.runHunt(sched, i)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// childMemLimit caps a hunt child's address space.
const childMemLimit = 4 << 30

// childTimeout bounds one hunt child, so a runaway hunt cannot hold the
// run past its deadline.
const childTimeout = 60 * time.Second

// child runs hunt i in a child process of this binary, copies its report
// lines to stdout and returns its last line. The engine can abort the Go
// runtime (an allocation sized from a corrupt on-disk length, seen while
// reducing a pager fault), so each hunt gets its own process and such a
// hunt becomes a recorded failure instead of the end of the run.
func (r *run) child(i int, traced bool) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	tmp, err := os.MkdirTemp("", "hunt-")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(tmp) // durable databases of a killed child stay behind otherwise
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-workload", r.workload, "-seed", strconv.FormatInt(r.seed, 10),
		"-seconds", strconv.Itoa(int(r.seconds/time.Second)), "-trace", trace, "-hunt", strconv.Itoa(i))
	cmd.Env = append(os.Environ(), "TMPDIR="+tmp)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err != nil {
		if len(out) > 0 {
			fmt.Println(strings.Join(lines, "\n"))
		}
		return "", fmt.Errorf("%v: %s", err, firstFatal(stderr.String()))
	}
	for _, l := range lines[:len(lines)-1] {
		fmt.Println(l)
	}
	return lines[len(lines)-1], nil
}

// firstFatal picks the line of a dead child's stderr that says why.
func firstFatal(stderr string) string {
	for _, l := range strings.Split(stderr, "\n") {
		if strings.HasPrefix(l, "fatal error") || strings.HasPrefix(l, "panic") || strings.HasPrefix(l, "campaignbench") {
			return l
		}
	}
	return "no diagnostic"
}

// childDied records a hunt whose process died: none of its fault
// campaigns produced a result.
func (r *run) childDied(i int, err error) {
	n := registrySize()
	r.res.Attempted += n
	r.res.Failed += n
	fmt.Printf("FAIL fault-hunt hunt %d (base seed %d): all %d campaigns lost, process died: %v\n", i, huntBase(r.seed, i), n, err)
}

func (r *run) huntUntraced() error {
	r.setupHunt(&runner.Scheduler{Workers: runtime.NumCPU()})
	h := newHuntStats()
	var wall, cpu time.Duration
	var refCPU float64
	var hunts []float64
	var total runtime.MemStats
	for i := 0; i < r.hunts(); i++ {
		line, err := r.child(i, false)
		if err != nil {
			r.childDied(i, err)
			continue
		}
		var o huntOut
		if err := json.Unmarshal([]byte(line), &o); err != nil {
			return fmt.Errorf("hunt %d report: %w", i, err)
		}
		wall += time.Duration(o.WallS * float64(time.Second))
		cpu += time.Duration(o.CPUS * float64(time.Second))
		refCPU += o.RefCPUS
		hunts = append(hunts, o.WallS)
		total.Mallocs += o.Mallocs
		total.TotalAlloc += o.Bytes
		r.res.Attempted += o.Attempted
		r.res.Failed += o.Failed
		r.res.Correct = r.res.Correct && o.Correct
		h.dbs += o.DBs
		h.stmts += o.Stmts
		h.detected += o.Detected
		h.detectDBs = append(h.detectDBs, o.DetectDBs...)
		h.reducedLen = append(h.reducedLen, o.ReducedLen...)
		for _, f := range o.Missed {
			h.missed[faults.Fault(f)]++
		}
		note("hunt %d: base seed %d, %d of %d faults detected, %d failed, %.3f s, %.3f CPU s, %.3f reference CPU s",
			i, huntBase(r.seed, i), o.Detected, o.Attempted, o.Failed, o.WallS, o.CPUS, o.RefCPUS)
	}
	if h.dbs == 0 {
		return fmt.Errorf("no hunt of seed %d completed", r.seed)
	}
	r.throughput(h.dbs, h.stmts, wall, cpu, float64(h.dbs)/refCPU, &runtime.MemStats{}, &total)
	note("workers=%d budget=%d", runtime.NumCPU(), huntBudget)
	r.huntReport(h, hunts)
	return nil
}

// huntTracedChild runs the traced hunt in a child process, moving on to
// the next hunt of the seed when one dies.
func (r *run) huntTracedChild() error {
	start := time.Now()
	for i := 0; i < maxHunts && time.Since(start) < 90*time.Second; i++ {
		line, err := r.child(i, true)
		if err != nil {
			r.childDied(i, err)
			continue
		}
		var res result
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			return fmt.Errorf("traced hunt %d report: %w", i, err)
		}
		res.Attempted += r.res.Attempted
		res.Failed += r.res.Failed
		res.Correct = res.Correct && r.res.Correct
		r.res = res
		return nil
	}
	return fmt.Errorf("every traced hunt of seed %d died", r.seed)
}

// huntReport prints the paper's end-to-end result: hunt time, faults
// found out of the registry, databases to detection and reduced length.
func (r *run) huntReport(h *huntStats, hunts []float64) {
	n := registrySize()
	note("hunt_s=%.4f (median of %d hunts)", median(hunts), len(hunts))
	note("faults_detected=%d of %d registered faults x %d hunts", h.detected, n, len(hunts))
	sort.Float64s(h.detectDBs)
	sort.Float64s(h.reducedLen)
	for _, p := range []float64{50, 90} {
		if v, ok := percentile(h.detectDBs, p); ok {
			note("detect_dbs_p%g=%g over %d detections", p, v, len(h.detectDBs))
		}
	}
	if v, ok := percentile(h.reducedLen, 50); ok {
		note("reduced_stmts_p50=%g over %d reduced test cases", v, len(h.reducedLen))
	}
	var ids []string
	for f := range h.missed {
		ids = append(ids, string(f))
	}
	sort.Strings(ids)
	for _, id := range ids {
		note("undetected %s in %d of %d hunts", id, h.missed[faults.Fault(id)], len(hunts))
	}
	note("failed_frac=%.6f (%d of %d fault campaigns)",
		frac(float64(r.res.Failed), float64(r.res.Attempted)), r.res.Failed, r.res.Attempted)
}

// huntTraced runs one hunt from base with the given per-fault budget on the traced
// backend with reduction after the sweep, then the same hunt untraced,
// checks that both detect every fault at the same seed, and reports
// per-layer metrics.
func (r *run) huntTraced(base int64, budget int) error {
	tr := newTracer()
	tracedBackend := registerTraced(tr)
	sched := &runner.Scheduler{Workers: runtime.NumCPU()}

	// hunt sweeps without reduction, then reduces each detection; spans
	// go to tr, which is nil for the untraced pass.
	hunt := func(backend string, tr *tracer) (results []runner.Result, reduced [][]string, sweep, red, cpu time.Duration) {
		runtime.GC()
		c0 := cpuTime()
		id, prev := tr.open(kSweep)
		start := time.Now()
		results = sched.Sweep(context.Background(), huntCampaigns(base, budget, false, backend))
		sweep = time.Since(start)
		tr.close(id, prev)
		reduced = make([][]string, len(results))
		start = time.Now()
		for i, res := range results {
			if res.Detected {
				id, prev := tr.open(kReduce)
				reduced[i] = reduce.BugFully(res.Bug, res.Campaign.Dialect, faults.NewSet(res.Campaign.Fault))
				tr.close(id, prev)
			}
		}
		return results, reduced, sweep, time.Since(start), cpuTime() - c0
	}

	results, reduced, sweep, red, tracedCPU := hunt(tracedBackend, tr)
	h := newHuntStats()
	r.check(h, results, reduced)
	if err := r.writeSpans(tr); err != nil {
		return err
	}
	plainRes, _, _, _, plainCPU := hunt(sut.DefaultBackend, nil)
	for i, res := range plainRes {
		if res.Seed != results[i].Seed {
			r.wrong("fault-hunt %s: traced detection seed %d, untraced %d", res.Campaign.Fault, results[i].Seed, res.Seed)
		}
	}
	r.put("trace.overhead_frac", tracedCPU.Seconds()/plainCPU.Seconds()-1, "frac")

	var reduceBusy time.Duration
	var calls int
	for _, s := range tr.spans {
		if s.kind == kReduce {
			reduceBusy += time.Duration(s.end - s.start)
			calls++
		}
	}
	r.put("runner.dbs_run", float64(h.dbs), "count")
	r.put("runner.wasted_frac", frac(float64(h.wasted), float64(h.dbs)), "frac")
	r.put("reduce.calls", float64(calls), "count")
	r.put("reduce.busy_s", reduceBusy.Seconds(), "s")
	r.put("reduce.busy_frac", frac(reduceBusy.Seconds(), (sweep+red).Seconds()), "frac")
	var redTotal float64
	for _, n := range h.reducedLen {
		redTotal += n
	}
	r.put("reduce.shrink_frac", 1-frac(redTotal, float64(h.traceLen)), "frac")
	r.coreCounters(&h.stats)
	busyBase := float64(sched.Workers) * sweep.Seconds()
	var engineBusy int64
	for _, s := range tr.spans {
		if s.kind >= kDDL {
			engineBusy += s.end - s.start
		}
	}
	r.put("runner.engine_busy_frac", frac(float64(engineBusy)/1e9, busyBase), "frac")
	r.layerMetrics(tr, busyBase, h.durableDBs)
	note("traced hunt: sweep and reduction times below include tracing")
	r.huntReport(h, []float64{(sweep + red).Seconds()})
	return nil
}
