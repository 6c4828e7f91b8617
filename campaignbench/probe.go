package main

import (
	"runtime"
	"sort"
	"strings"
	"time"
)

// The benchmark runs on virtual machines that share their cores with
// others. Steal time does not show in process CPU time, but the
// neighbours' load still changes how much CPU time a unit of work costs
// (shared caches, memory bandwidth, sibling hyperthreads): on the 2-vCPU
// machine the benchmark was tuned on, CPU time per database drifted by
// ±20% over minutes. The throughput metrics are therefore scaled by a
// host-speed probe: a fixed piece of work that lives in this package, so
// no change to the program under test changes it, and that runs between
// the measured databases, so it sees the host as they do.

// probeNominal is the CPU time one probe takes on the reference host,
// the 2-vCPU virtual machine the benchmark was tuned on, when it is
// quiet. A scaled rate is the rate the program would have had on that
// host.
const probeNominal = 400 * time.Microsecond

// probeSink keeps the probe's result alive.
var probeSink int

// probe does the same work on every call, shaped like the tester's own:
// small allocations, string building, map inserts and lookups, sorting
// and pointer-chasing through a slice of small structs.
func probe() {
	type row struct {
		key  string
		n    int
		next *row
	}
	x := uint32(2463534242)
	rnd := func() uint32 {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		return x
	}
	const n = 512
	rows := make([]*row, n)
	index := make(map[string]*row)
	var b strings.Builder
	for i := range rows {
		b.Reset()
		for j := 0; j < 6+int(rnd()%6); j++ {
			b.WriteByte(byte('a' + rnd()%26))
		}
		r := &row{key: b.String(), n: int(rnd() % 1000)}
		rows[i] = r
		index[r.key] = r
	}
	for i, r := range rows {
		r.next = rows[(i*7+3)%n]
	}
	keys := make([]string, 0, n)
	for k := range index {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sum := 0
	for _, k := range keys {
		r := index[k]
		for j := 0; j < 8; j++ {
			sum += r.n
			r = r.next
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].n < rows[j].n })
	probeSink += sum + rows[0].n
}

// probeCost is what one probe allocates, on average over a few calls.
// The probe does the same work on every call, so this varies only with
// the layout of its map under the per-map hash seed (a few bytes), and
// the measured phases subtract it from their allocation metrics.
type probeCost struct{ mallocs, bytes uint64 }

func measureProbe() probeCost {
	probe() // first call: nothing lazily initialised is counted below
	const calls = 16
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < calls; i++ {
		probe()
	}
	runtime.ReadMemStats(&m1)
	return probeCost{(m1.Mallocs - m0.Mallocs) / calls, (m1.TotalAlloc - m0.TotalAlloc) / calls}
}

// subtract takes the allocations of n probes out of a phase's memory
// statistics.
func (c probeCost) subtract(m *runtime.MemStats, n int) {
	m.Mallocs -= c.mallocs * uint64(n)
	m.TotalAlloc -= c.bytes * uint64(n)
}

// timeProbes runs n probes on one P and returns their CPU time.
func timeProbes(n int) time.Duration {
	c := cpuTime()
	for i := 0; i < n; i++ {
		probe()
	}
	return cpuTime() - c
}

// nSpeedBlocks is how many blocks of rounds a fault-free measured phase
// is cut into; its rate is the median of the blocks' rates.
const nSpeedBlocks = 10

// speedBlocks records, per round of a measured phase, the databases it
// ran, their CPU time and the CPU time of the probe that followed it.
type speedBlocks struct {
	dbs            []int
	program, probe []time.Duration
}

func (b *speedBlocks) add(dbs int, program, probe time.Duration) {
	b.dbs = append(b.dbs, dbs)
	b.program = append(b.program, program)
	b.probe = append(b.probe, probe)
}

func (b *speedBlocks) probes() int { return len(b.probe) }

func (b *speedBlocks) probeCPU() time.Duration {
	var t time.Duration
	for _, p := range b.probe {
		t += p
	}
	return t
}

// rate cuts the rounds into nSpeedBlocks blocks (fewer when there are
// fewer rounds) and returns the median of the blocks' databases per
// reference CPU second.
func (b *speedBlocks) rate() float64 {
	n := len(b.dbs)
	k := min(nSpeedBlocks, n)
	var rates []float64
	for i := 0; i < k; i++ {
		lo, hi := i*n/k, (i+1)*n/k
		dbs := 0
		var program, probe time.Duration
		for j := lo; j < hi; j++ {
			dbs += b.dbs[j]
			program += b.program[j]
			probe += b.probe[j]
		}
		rates = append(rates, float64(dbs)/refSeconds(program, probe, hi-lo))
	}
	return median(rates)
}

// refSeconds converts cpu, CPU time spent while n probes took probeCPU,
// to reference CPU seconds: the time the same work would have taken on
// the host that runs a probe in probeNominal.
func refSeconds(cpu, probeCPU time.Duration, n int) float64 {
	return cpu.Seconds() * float64(n) * probeNominal.Seconds() / probeCPU.Seconds()
}

// probeBurstCalls is how many probes a fault-hunt child runs before and
// after each sweep.
const probeBurstCalls = 200

// probeBurst runs n probes on one P, as the fault-free workloads do, and
// returns their CPU time. It measures the host's speed around work that
// cannot be interleaved with probes: a fault-hunt sweep, which runs on
// every P, and a set-up.
func probeBurst(n int) time.Duration {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	return timeProbes(n)
}

// setupProbes is how many probes follow each set-up.
const setupProbes = 8

// refSecondsNow converts the CPU time of a set-up that just ended to
// reference CPU seconds, at the speed setupProbes probes run now.
func refSecondsNow(cpu time.Duration) float64 {
	return refSeconds(cpu, probeBurst(setupProbes), setupProbes)
}
