// Command campaignbench measures the PQS tester stack end to end on four
// workloads and, in a separate traced run, layer by layer. See
// WORKLOADS.md for what each workload exercises and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state one benchmark invocation accumulates.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	res      result
}

// fail records one failed operation and prints why.
func (r *run) fail(format string, args ...any) {
	r.res.Failed++
	fmt.Printf("FAIL "+format+"\n", args...)
}

// wrong marks the run's outputs incorrect and prints why.
func (r *run) wrong(format string, args ...any) {
	r.res.Correct = false
	fmt.Printf("INCORRECT "+format+"\n", args...)
}

// put sets a metric.
func (r *run) put(name string, v float64, unit string) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// note prints a report line that is not part of the JSON result.
func note(format string, args ...any) { fmt.Printf("# "+format+"\n", args...) }

// setupRepeats is how many times each run builds its workload; setup_s
// is the median.
const setupRepeats = 25

func main() {
	workload := flag.String("workload", "", "campaign, campaign-paper, txn-durable or fault-hunt")
	seed := flag.Int64("seed", 1, "workload seed: every generated database derives from it")
	seconds := flag.Int("seconds", 20, "how long the measured phase runs")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	hunt := flag.Int("hunt", -1, "fault-hunt only: run just hunt i in this process and report it to the parent run")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || *seed < 0 {
		fmt.Fprintln(os.Stderr, "campaignbench: -seconds must be positive, -trace 0 or 1, -seed non-negative")
		os.Exit(2)
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		res:      result{Correct: true, Metrics: map[string]metric{}},
	}
	if r.workload == "fault-hunt" && *hunt >= 0 {
		if err := r.huntChild(*hunt, *trace == 1); err != nil {
			fmt.Fprintln(os.Stderr, "campaignbench:", err)
			os.Exit(1)
		}
		return
	}
	if faultFree[r.workload] != nil {
		// One driver goroutine runs the fault-free workloads. With one P,
		// the garbage collector's work interleaves with it on one thread
		// instead of running on an idle second P, so the CPU time of a
		// database and of a probe each include their own collection work.
		runtime.GOMAXPROCS(1)
	}
	note("workload=%s seed=%d seconds=%d trace=%d gomaxprocs=%d go=%s",
		r.workload, r.seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.Version())

	var err error
	switch {
	case r.workload == "fault-hunt" && *trace == 0:
		err = r.huntUntraced()
	case r.workload == "fault-hunt":
		err = r.huntTracedChild()
	case faultFree[r.workload] == nil:
		err = fmt.Errorf("unknown workload %q", r.workload)
	case *trace == 0:
		err = r.faultFreeUntraced()
	default:
		err = r.faultFreeTraced()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench:", err)
		os.Exit(1)
	}

	names := make([]string, 0, len(r.res.Metrics))
	for n := range r.res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.res.Metrics[n]
		note("%-40s %14.6g %s", n, m.Value, m.Unit)
	}
	note("attempted=%d failed=%d correct=%t", r.res.Attempted, r.res.Failed, r.res.Correct)
	out, err := json.Marshal(r.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// spanPath is where a traced run writes its spans: next to the benchmark
// binary, which run.sh builds into .bench_build.
func spanPath(workload string) string {
	dir := os.TempDir()
	if exe, err := os.Executable(); err == nil {
		dir = filepath.Dir(exe)
	}
	return filepath.Join(dir, "spans-"+workload+".tsv")
}

// throughput reports the end-to-end metrics of a measured phase that
// completed dbs databases and stmts statements in wall time and in cpu
// time of the program under test, with the memory statistics read
// before and after it. dbsPerRef is its databases per reference CPU
// second (see probe.go); the statement rate follows from it at the
// phase's statements per database.
func (r *run) throughput(dbs, stmts int, wall, cpu time.Duration, dbsPerRef float64, m0, m1 *runtime.MemStats) {
	r.put("dbs_per_ref_cpu_s", dbsPerRef, "1/s")
	r.put("stmts_per_ref_cpu_s", dbsPerRef*float64(stmts)/float64(dbs), "1/s")
	r.put("allocs_per_db", float64(m1.Mallocs-m0.Mallocs)/float64(dbs), "count")
	r.put("alloc_bytes_per_db", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(dbs), "B")
	note("databases=%d statements=%d wall_s=%.3f cpu_s=%.3f", dbs, stmts, wall.Seconds(), cpu.Seconds())
	note("dbs_per_s=%.2f stmts_per_s=%.1f (wall clock) dbs_per_cpu_s=%.2f stmts_per_cpu_s=%.1f (CPU time, unscaled)",
		float64(dbs)/wall.Seconds(), float64(stmts)/wall.Seconds(), float64(dbs)/cpu.Seconds(), float64(stmts)/cpu.Seconds())
}
