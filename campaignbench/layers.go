package main

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/dialect"
	"repro/internal/sqlval"
	"repro/internal/storage/pager"
)

// layerUnits names every per-layer metric a traced run reports, with its
// unit. A metric a workload does not exercise reads 0.
func layerUnits() map[string]string {
	u := map[string]string{
		"core.self_s":                 "s",
		"core.self_frac":              "frac",
		"core.discarded_frac":         "frac",
		"core.artifact_frac":          "frac",
		"core.rectified_true_frac":    "frac",
		"core.rectified_false_frac":   "frac",
		"core.rectified_null_frac":    "frac",
		"engine.query.rows_per_call":  "count",
		"engine.txn.conflict_frac":    "frac",
		"sut.open.calls":              "count",
		"sut.open.busy_s":             "s",
		"sut.reset.calls":             "count",
		"sut.reset.busy_s":            "s",
		"sut.reset.busy_frac":         "frac",
		"pager.commits_per_db":        "count",
		"pager.wal_frames_per_commit": "count",
		"pager.checkpoints_per_db":    "count",
		"pager.cache_hit_frac":        "frac",
		"pager.recoveries_per_db":     "count",
		"runner.dbs_run":              "count",
		"runner.wasted_frac":          "frac",
		"runner.engine_busy_frac":     "frac",
		"reduce.calls":                "count",
		"reduce.busy_s":               "s",
		"reduce.busy_frac":            "frac",
		"reduce.shrink_frac":          "frac",
		"trace.overhead_frac":         "frac",
	}
	for _, d := range dialect.All {
		for _, o := range laneOracles {
			u[fmt.Sprintf("core.%s.%s.dbs_per_s", d, o)] = "1/s"
		}
	}
	for k := kDDL; k < numKinds; k++ {
		p := kindNames[k] + "."
		u[p+"calls"] = "count"
		u[p+"busy_s"] = "s"
		u[p+"busy_frac"] = "frac"
		u[p+"p50_us"] = "us"
		u[p+"p99_us"] = "us"
		u[p+"err_frac"] = "frac"
	}
	return u
}

// coreCounters reports the core.Stats ratios: checks the oracle
// discarded per query, statements the error oracle classed as expected
// artifacts, and the rectification outcome distribution.
func (r *run) coreCounters(s *core.Stats) {
	r.put("core.discarded_frac", frac(float64(s.Discarded), float64(s.Queries)), "frac")
	r.put("core.artifact_frac", frac(float64(s.Artifacts), float64(s.Statements)), "frac")
	var rect int
	for _, n := range s.Rectified {
		rect += n
	}
	r.put("core.rectified_true_frac", frac(float64(s.Rectified[sqlval.TriTrue]), float64(rect)), "frac")
	r.put("core.rectified_false_frac", frac(float64(s.Rectified[sqlval.TriFalse]), float64(rect)), "frac")
	r.put("core.rectified_null_frac", frac(float64(s.Rectified[sqlval.TriUnknown]), float64(rect)), "frac")
}

// layerMetrics reports the span-derived metrics. busyBase is the time
// the busy fractions divide by; 0 selects the summed RunSeed time.
// durableDBs is how many databases ran on pager storage.
func (r *run) layerMetrics(tr *tracer, busyBase float64, durableDBs int) {
	type acc struct {
		calls, errs, rows, commits, conflicts int
		busy                                  int64
		durs                                  []float64
	}
	var by [numKinds]acc
	children := map[int32][]interval{}
	for _, s := range tr.spans {
		a := &by[s.kind]
		d := s.end - s.start
		a.calls++
		a.busy += d
		a.durs = append(a.durs, float64(d)/1e3)
		a.rows += int(s.rows)
		if s.err {
			a.errs++
		}
		if s.commit {
			a.commits++
		}
		if s.conflict {
			a.conflicts++
		}
		if s.parent >= 0 && tr.spans[s.parent].kind == kRunSeed {
			children[s.parent] = append(children[s.parent], interval{s.start, s.end})
		}
	}
	var self int64
	for i, s := range tr.spans {
		if s.kind == kRunSeed {
			self += selfTime(interval{s.start, s.end}, children[int32(i)])
		}
	}
	runSeed := float64(by[kRunSeed].busy) / 1e9
	if busyBase == 0 {
		busyBase = runSeed
	}
	if by[kRunSeed].calls > 0 {
		r.put("core.self_s", float64(self)/1e9, "s")
		r.put("core.self_frac", frac(float64(self)/1e9, runSeed), "frac")
	}
	for k := kDDL; k < numKinds; k++ {
		a := &by[k]
		p := kindNames[k] + "."
		r.put(p+"calls", float64(a.calls), "count")
		r.put(p+"busy_s", float64(a.busy)/1e9, "s")
		r.put(p+"busy_frac", frac(float64(a.busy)/1e9, busyBase), "frac")
		sort.Float64s(a.durs)
		p50, _ := percentile(a.durs, 50)
		p99, _ := percentile(a.durs, 99)
		r.put(p+"p50_us", p50, "us")
		r.put(p+"p99_us", p99, "us")
		r.put(p+"err_frac", frac(float64(a.errs), float64(a.calls)), "frac")
	}
	q, t := &by[kQuery], &by[kTxn]
	r.put("engine.query.rows_per_call", frac(float64(q.rows), float64(q.calls)), "count")
	r.put("engine.txn.conflict_frac", frac(float64(t.conflicts), float64(t.commits)), "frac")
	r.put("sut.open.calls", float64(by[kOpen].calls), "count")
	r.put("sut.open.busy_s", float64(by[kOpen].busy)/1e9, "s")
	r.put("sut.reset.calls", float64(by[kReset].calls), "count")
	r.put("sut.reset.busy_s", float64(by[kReset].busy)/1e9, "s")
	r.put("sut.reset.busy_frac", frac(float64(by[kReset].busy)/1e9, busyBase), "frac")

	ps, n := tr.pager, float64(durableDBs)
	r.put("pager.commits_per_db", frac(float64(ps.Commits), n), "count")
	r.put("pager.wal_frames_per_commit", frac(float64(ps.WalFrames), float64(ps.Commits)), "count")
	r.put("pager.checkpoints_per_db", frac(float64(ps.Checkpoints), n), "count")
	r.put("pager.cache_hit_frac", frac(float64(ps.CacheHits), float64(ps.CacheHits+ps.CacheMisses)), "frac")
	r.put("pager.recoveries_per_db", frac(float64(ps.Recoveries), n), "count")

	if tr.unknown > 0 {
		r.wrong("%d statements of a type the classifier does not know", tr.unknown)
	}
	for name, unit := range layerUnits() {
		if _, ok := r.res.Metrics[name]; !ok {
			r.put(name, 0, unit)
		}
	}
}

// reset drops the spans and counters recorded so far (warm-up).
func (tr *tracer) reset() {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = tr.spans[:0]
	tr.pager = pager.Stats{}
	tr.unknown = 0
}

// writeSpans writes the traced run's spans next to the benchmark binary.
func (r *run) writeSpans(tr *tracer) error {
	path := spanPath(r.workload)
	if err := tr.write(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	note("%d spans written to %s", len(tr.spans), path)
	return nil
}
