package main

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/sut"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{19, 50, 0, false},
		{20, 50, 10, true},
		{99, 90, 0, false},
		{100, 90, 90, true},
		{999, 99, 0, false},
		{1000, 99, 990, true},
		{1500, 99, 1485, true},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(1..%d, %g) = %g, %t; want %g, %t", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
	for n, want := range map[int]float64{10: 0, 20: 50, 99: 50, 100: 90, 999: 90, 1000: 99, 10000: 99.9} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %g, want %g", n, got, want)
		}
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	parent := interval{0, 100}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		{"overlapping count once", []interval{{10, 40}, {20, 60}, {50, 55}}, 50},
		{"nested", []interval{{10, 90}, {20, 30}}, 20},
		{"clipped to the parent", []interval{{-10, 10}, {95, 120}}, 85},
		{"unsorted", []interval{{70, 80}, {0, 10}, {5, 15}}, 75},
		{"whole span", []interval{{0, 100}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestStmtClassCoversSqlast parses the sqlast package for every type with
// an isStmt method, so a new statement type fails here instead of
// landing in a default class.
func TestStmtClassCoversSqlast(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, filepath.Join("..", "internal", "sqlast"), func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Name.Name != "isStmt" || fn.Recv == nil {
					continue
				}
				star, ok := fn.Recv.List[0].Type.(*ast.StarExpr)
				if !ok {
					t.Fatalf("isStmt on a non-pointer receiver at %s", fset.Position(fn.Pos()))
				}
				want = append(want, star.X.(*ast.Ident).Name)
			}
		}
	}
	var got []string
	for typ, k := range stmtClass {
		got = append(got, typ.Elem().Name())
		if k < kDDL || k > kMaint {
			t.Errorf("%s maps to %s, not a statement class", typ.Elem().Name(), kindNames[k])
		}
	}
	sort.Strings(want)
	sort.Strings(got)
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("stmtClass covers %v; sqlast statement types are %v", got, want)
	}
}

// TestBenchmarkJSONNamesPerLayerMetrics checks the per-layer metrics a
// traced run reports against the list in BENCHMARK.json.
func TestBenchmarkJSONNamesPerLayerMetrics(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, m := range spec.PerLayer {
		got[m.Name] = m.Unit
	}
	if want := layerUnits(); !reflect.DeepEqual(got, want) {
		for n, u := range want {
			if got[n] != u {
				t.Errorf("BENCHMARK.json per_layer %s: unit %q, want %q", n, got[n], u)
			}
		}
		for n := range got {
			if _, ok := want[n]; !ok {
				t.Errorf("BENCHMARK.json per_layer %s is not reported", n)
			}
		}
	}
}

// TestTracedHuntMatchesUntraced runs a small traced fault-hunt, whose
// sweep records spans from several workers at once (run it with -race).
func TestTracedHuntMatchesUntraced(t *testing.T) {
	r := &run{workload: "fault-hunt", seed: 2, res: result{Correct: true, Metrics: map[string]metric{}}}
	if err := r.huntTraced(huntBase(r.seed, 0), 40); err != nil {
		t.Fatal(err)
	}
	if !r.res.Correct {
		t.Fatal("traced and untraced hunts differ")
	}
	if r.res.Attempted != registrySize() {
		t.Errorf("attempted %d fault campaigns, want %d", r.res.Attempted, registrySize())
	}
	for _, m := range []string{"runner.dbs_run", "runner.engine_busy_frac", "reduce.calls", "engine.query.calls"} {
		if r.res.Metrics[m].Value <= 0 {
			t.Errorf("%s = %g, want > 0", m, r.res.Metrics[m].Value)
		}
	}
}

// TestTracedBackendMatchesUntraced replays the first seeds of every
// fault-free workload on the traced and the bare backend: outcomes and
// core.Stats must agree, which they do only if the wrapper forwards the
// pooling, multi-session and crash capabilities.
func TestTracedBackendMatchesUntraced(t *testing.T) {
	tr := newTracer()
	tracedBackend := registerTraced(tr)
	for w := range faultFree {
		r := &run{workload: w, seed: 3, res: result{Correct: true, Metrics: map[string]metric{}}}
		traced := r.buildLanes(tracedBackend, false)
		plain := r.buildLanes(sut.DefaultBackend, false)
		replay := make([][]int64, len(traced))
		for i, l := range traced {
			replay[i] = []int64{l.next, l.next + 1, l.next + 2}
		}
		each := func(l *lane, seed int64) string { return l.runSeed(seed) }
		drive(traced, replay, each, nil)
		drive(plain, replay, each, nil)
		for i := range traced {
			r.compareLanes(traced[i], plain[i])
		}
		closeLanes(traced)
		closeLanes(plain)
		if !r.res.Correct {
			t.Errorf("%s: traced and untraced runs differ", w)
		}
	}
	if tr.unknown != 0 {
		t.Errorf("%d statements not classified", tr.unknown)
	}
	var kinds [numKinds]int
	for _, s := range tr.spans {
		kinds[s.kind]++
	}
	for _, k := range []kind{kReset, kDDL, kDML, kQuery, kTxn, kMaint} {
		if kinds[k] == 0 {
			t.Errorf("no %s spans recorded", kindNames[k])
		}
	}
	if tr.pager.Commits == 0 || tr.pager.Recoveries == 0 {
		t.Errorf("pager counters not folded: %+v", tr.pager)
	}
}

// TestProbeAllocationsRepeat pins what probeCost.subtract relies on: the
// probe makes the same allocations on every call, and their bytes vary
// only with its map's layout.
func TestProbeAllocationsRepeat(t *testing.T) {
	a, b := measureProbe(), measureProbe()
	if a.mallocs != b.mallocs || a.mallocs == 0 || math.Abs(float64(a.bytes)-float64(b.bytes)) > 0.01*float64(a.bytes) {
		t.Errorf("probe allocations %+v then %+v, want the same count and bytes within 1%%", a, b)
	}
}

// TestReferenceRateFollowsProbe checks the host-speed scaling: work that
// takes twice the CPU time while the probe also takes twice as long has
// the same reference rate, and the median over blocks ignores one slow
// block.
func TestReferenceRateFollowsProbe(t *testing.T) {
	if got := refSeconds(time.Second, 2*probeNominal, 1); got != 0.5 {
		t.Errorf("refSeconds at half the nominal speed = %g, want 0.5", got)
	}
	var b speedBlocks
	for i := 0; i < 100; i++ {
		slow := time.Duration(1 + i%2) // the host alternates between two speeds
		program, probe := 9*time.Millisecond*slow, probeNominal*slow
		if i/10 == 3 {
			program *= 3 // one block of rounds hit by something the probe missed
		}
		b.add(9, program, probe)
	}
	if got := b.rate(); math.Abs(got-1000) > 1e-6 {
		t.Errorf("rate = %g databases per reference second, want 1000", got)
	}
	if b.probes() != 100 || b.probeCPU() != 150*probeNominal {
		t.Errorf("probes %d taking %v, want 100 taking %v", b.probes(), b.probeCPU(), 150*probeNominal)
	}
}
