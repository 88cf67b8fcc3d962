package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"quepa/internal/explain"
)

// exact holds the counters that repeat exactly for a given seed: netsim's
// round trips and simulated charge, and the bytes on the peers' listeners.
type exact struct {
	roundTrips uint64
	simNet     time.Duration
	wireBytes  uint64
}

func (e exact) sub(b exact) exact {
	return exact{e.roundTrips - b.roundTrips, e.simNet - b.simNet, e.wireBytes - b.wireBytes}
}

// layerCounters are the layers' exported counters, read before and after the
// measured loop.
type layerCounters struct {
	cacheHits, cacheMisses     uint64 // cache.LRU.Stats
	rcHits, rcMisses, rcInvals uint64 // rcache.Cache.Stats
	wireFrames                 uint64 // server-side writes on the peers' conns
	reachBytes                 uint64 // Coordinator.ReachBytes, both directions
	walBytes                   int64  // size of the WAL data dir
}

func (c layerCounters) sub(b layerCounters) layerCounters {
	return layerCounters{
		cacheHits: c.cacheHits - b.cacheHits, cacheMisses: c.cacheMisses - b.cacheMisses,
		rcHits: c.rcHits - b.rcHits, rcMisses: c.rcMisses - b.rcMisses, rcInvals: c.rcInvals - b.rcInvals,
		wireFrames: c.wireFrames - b.wireFrames, reachBytes: c.reachBytes - b.reachBytes,
		walBytes: c.walBytes - b.walBytes,
	}
}

// cost is a reading of the process clocks: wall time, user+sys CPU and
// cumulative heap allocation.
type cost struct {
	wall  time.Duration
	cpu   time.Duration
	alloc uint64
}

var processStart = time.Now()

func sampleCost() cost {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return cost{
		wall:  time.Since(processStart),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: s[0].Value.Uint64(),
	}
}

func (c cost) sub(b cost) cost { return cost{c.wall - b.wall, c.cpu - b.cpu, c.alloc - b.alloc} }
func (c cost) add(b cost) cost { return cost{c.wall + b.wall, c.cpu + b.cpu, c.alloc + b.alloc} }

// readSteal returns the machine's cumulative steal ticks from /proc/stat, or
// 0 where the file is missing.
func readSteal() uint64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseUint(f[8], 10, 64)
	return v
}

type opCount struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
}

// layerSums accumulate what the traced reads saw.
type layerSums struct {
	reads                 int
	wall, self            time.Duration
	query, fetch, scatter time.Duration
	batches, batchKeys    int64
	rank, validate        time.Duration
	choose                time.Duration
	chooseN               int
	nodes, edges          int64
	snapReaches, reaches  int64
	peerCalls, deltaKeys  int64
}

// writeSums accumulate the DeltaStats of the timed writes.
type writeSums struct {
	n           int
	pairs, keys int64
	apply       time.Duration
}

// loop drives a workload: one warm-up round, then whole rounds until the run
// length is reached. It times every operation, keeps checks and probes off
// the clock, and gathers what the metrics are computed from.
type loop struct {
	o       options
	warming bool
	readN   int

	reads, traced, writes []time.Duration
	busy                  time.Duration // sum of all timed operations
	ops                   map[string]*opCount

	off    cost // checks and probes inside the loop
	total  cost // the whole loop
	rounds int
	// Per-round CPU per operation and operations per busy second; the run
	// reports their medians, which a few seconds of a noisy neighbour
	// cannot move.
	roundCPU, roundRate []float64

	ex    exact // first exactRounds measured rounds
	exOps int

	lc    layerCounters
	steal uint64
	ls    layerSums
	ws    writeSums

	mismatch error
	diag     map[string]any
}

func newLoop(o options) *loop {
	return &loop{o: o, ops: map[string]*opCount{}, diag: map[string]any{}}
}

func (l *loop) measure(w mix) error {
	l.warming = true
	if err := w.round(l); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	l.warming = false
	l.readN = 0
	l.off = cost{} // the warm-up's checks are outside the measured rounds too

	lc0, ex0, st0 := w.layers(), w.counters(), readSteal()
	c0 := sampleCost()
	prev, prevOff, prevOps, prevBusy := c0, l.off, 0, time.Duration(0)
	for {
		if err := w.round(l); err != nil {
			return err
		}
		l.rounds++
		c, n := sampleCost(), l.attempted()
		ops := float64(n - prevOps)
		l.roundCPU = append(l.roundCPU, ms(c.cpu-prev.cpu-(l.off.cpu-prevOff.cpu))/ops)
		l.roundRate = append(l.roundRate, ops/(l.busy-prevBusy).Seconds())
		prev, prevOff, prevOps, prevBusy = c, l.off, n, l.busy
		if l.rounds == w.exactRounds() {
			l.ex, l.exOps = w.counters().sub(ex0), n
		}
		if l.rounds >= w.exactRounds() && c.wall-c0.wall >= time.Duration(l.o.seconds)*time.Second {
			break
		}
	}
	l.total = sampleCost().sub(c0)
	l.lc = w.layers().sub(lc0)
	l.steal = readSteal() - st0
	l.diag["read_p99_ms"] = ms(percentile(l.reads, 0.99))
	l.diag["rounds"] = l.rounds
	l.diag["steal_ticks"] = l.steal
	l.diag["loop_s"] = l.total.wall.Seconds()
	l.diag["cpu_ms_per_op_whole_loop"] = ms(l.total.cpu-l.off.cpu) / l.nOps()
	l.diag["offclock_s"] = l.off.wall.Seconds()
	l.diag["exact_counts"] = map[string]any{
		"ops": l.exOps, "round_trips": l.ex.roundTrips,
		"sim_net_ms": ms(l.ex.simNet), "wire_bytes": l.ex.wireBytes,
	}
	return nil
}

// traceInfo is what a traced read left behind.
type traceInfo struct {
	on   bool
	wall time.Duration
	p    *probe
	prof *explain.Profile
}

// read times one read. In a traced run every other read carries an EXPLAIN
// recorder and a probe that the store and reacher decorators fill.
func (l *loop) read(name string, f func(ctx context.Context) error) (traceInfo, error) {
	var ti traceInfo
	ctx := context.Background()
	var rec *explain.Recorder
	l.readN++
	if l.o.trace && !l.warming && l.readN%2 == 0 {
		ti.on, ti.p = true, &probe{}
		ctx, rec = explain.WithRecorder(withProbe(ctx, ti.p), name)
	}
	start := time.Now()
	err := f(ctx)
	ti.wall = time.Since(start)
	if rec != nil {
		ti.prof = rec.Finish(0)
	}
	if ti.on && rec == nil {
		err = fmt.Errorf("telemetry is disabled: no EXPLAIN recorder")
	}
	l.record(name, ti.wall, err)
	if l.warming {
		return ti, err
	}
	if ti.on {
		l.traced = append(l.traced, ti.wall)
		if err == nil {
			l.absorb(ti)
		}
	} else {
		l.reads = append(l.reads, ti.wall)
	}
	return ti, err
}

// write times one write.
func (l *loop) write(name string, f func() error) error {
	start := time.Now()
	err := f()
	d := time.Since(start)
	l.record(name, d, err)
	if !l.warming {
		l.writes = append(l.writes, d)
	}
	return err
}

func (l *loop) record(name string, d time.Duration, err error) {
	if l.warming {
		return
	}
	c := l.ops[name]
	if c == nil {
		c = &opCount{}
		l.ops[name] = c
	}
	c.Attempted++
	if err != nil {
		c.Failed++
		if _, seen := l.diag["first_failure"]; !seen {
			l.diag["first_failure"] = err.Error()
		}
	}
	l.busy += d
}

// offClock runs f and books its wall, CPU and allocation as not belonging
// to the measured operations.
func (l *loop) offClock(f func()) {
	c0 := sampleCost()
	f()
	l.off = l.off.add(sampleCost().sub(c0))
}

// check records the first wrong answer.
func (l *loop) check(err error) {
	if err != nil && l.mismatch == nil {
		l.mismatch = err
	}
}

func (l *loop) attempted() int {
	n := 0
	for _, c := range l.ops {
		n += c.Attempted
	}
	return n
}

func (l *loop) failed() int {
	n := 0
	for _, c := range l.ops {
		n += c.Failed
	}
	return n
}

// absorb adds one traced read's probe and EXPLAIN profile to the sums.
func (l *loop) absorb(ti traceInfo) {
	s := &l.ls
	s.reads++
	s.wall += ti.wall
	p := ti.p
	p.mu.Lock()
	s.query += p.query
	s.fetch += p.fetch
	s.scatter += p.scatter
	s.batches += p.batches
	s.batchKeys += p.batchKeys
	s.rank += p.rank
	s.self += ti.wall - covered(p.spans)
	p.mu.Unlock()
	if ti.prof == nil {
		return
	}
	for _, a := range ti.prof.Augmentations {
		s.nodes += int64(a.IndexNodes)
		s.edges += int64(a.IndexEdges)
		s.snapReaches += int64(a.SnapshotReaches)
		if n := a.Origins - a.RcacheHits; n > 0 {
			s.reaches += int64(n)
		}
		for _, sh := range a.Scatter {
			s.peerCalls += int64(sh.Calls)
		}
	}
	s.deltaKeys += int64(ti.prof.Totals.DeltaFrontierKeys)
}

func (l *loop) nOps() float64 { return float64(l.attempted()) }

// endToEnd computes the metrics of an untraced run.
func (l *loop) endToEnd(setupS, heapMB float64) map[string]metric {
	n := l.nOps()
	return map[string]metric{
		"setup_s":                  {setupS, "s"},
		"read_p50_ms":              {ms(percentile(l.reads, 0.50)), "ms"},
		"read_p90_ms":              {ms(percentile(l.reads, 0.90)), "ms"},
		"ops_per_s":                {median(l.roundRate), "1/s"},
		"cpu_ms_per_op":            {median(l.roundCPU), "ms/op"},
		"sim_net_ms_per_op":        {ms(l.ex.simNet) / float64(l.exOps), "ms/op"},
		"store_round_trips_per_op": {float64(l.ex.roundTrips) / float64(l.exOps), "count/op"},
		"alloc_bytes_per_op":       {float64(l.total.alloc-l.off.alloc) / n, "B/op"},
		"heap_mb":                  {heapMB, "MB"},
	}
}

// layerMetrics computes the metrics of a traced run.
func (l *loop) layerMetrics() map[string]metric {
	s, lc, n := l.ls, l.lc, l.nOps()
	r := float64(s.reads)
	w := float64(l.ws.n)
	return map[string]metric{
		"validator.us_per_op":                {us(s.validate) / r, "us"},
		"stores.query_us_per_op":             {us(s.query) / r, "us"},
		"stores.fetch_us_per_op":             {us(s.fetch) / r, "us"},
		"stores.keys_per_batch":              {ratio(float64(s.batchKeys), float64(s.batches)), "count"},
		"aindex.nodes_per_op":                {float64(s.nodes) / r, "count"},
		"aindex.edges_per_op":                {float64(s.edges) / r, "count"},
		"aindex.snapshot_share":              {ratio(float64(s.snapReaches), float64(s.reaches)), "ratio"},
		"rcache.hit_ratio":                   {ratio(float64(lc.rcHits), float64(lc.rcHits+lc.rcMisses)), "ratio"},
		"rcache.invalidations_per_write":     {ratio(float64(lc.rcInvals), w), "count"},
		"cache.hit_ratio":                    {ratio(float64(lc.cacheHits), float64(lc.cacheHits+lc.cacheMisses)), "ratio"},
		"augment.self_us_per_op":             {us(s.self) / r, "us"},
		"augment.rank_us_per_op":             {us(s.rank) / r, "us"},
		"wire.frames_per_op":                 {float64(lc.wireFrames) / n, "count"},
		"wire.bytes_per_op":                  {float64(l.ex.wireBytes) / float64(l.exOps), "B"},
		"cluster.peer_calls_per_op":          {float64(s.peerCalls) / r, "count"},
		"cluster.scatter_share":              {ratio(us(s.scatter), us(s.wall)), "ratio"},
		"cluster.reach_bytes_per_op":         {float64(lc.reachBytes) / n, "B"},
		"cluster.delta_keys_per_op":          {float64(s.deltaKeys) / r, "count"},
		"collector.pairs_rescored_per_write": {ratio(float64(l.ws.pairs), w), "count"},
		"collector.keys_replaced_per_write":  {ratio(float64(l.ws.keys), w), "count"},
		"wal.bytes_per_write":                {ratio(float64(lc.walBytes), w), "B"},
		"optimizer.choose_us":                {ratio(us(s.choose), float64(s.chooseN)), "us"},
		"explain.overhead_us_per_op":         {us(percentile(l.traced, 0.5) - percentile(l.reads, 0.5)), "us"},
	}
}

// probe collects one traced read's store and scatter calls. The decorators
// write to it from the augmenter's worker goroutines.
type probe struct {
	mu                    sync.Mutex
	query, fetch, scatter time.Duration
	batches, batchKeys    int64
	rank                  time.Duration
	spans                 []span
}

type span struct{ start, end time.Time }

type probeKey struct{}

func withProbe(ctx context.Context, p *probe) context.Context {
	return context.WithValue(ctx, probeKey{}, p)
}

func probeFrom(ctx context.Context) *probe {
	p, _ := ctx.Value(probeKey{}).(*probe)
	return p
}

func (p *probe) addCall(kind string, start, end time.Time, keys int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	d := end.Sub(start)
	switch kind {
	case "query":
		p.query += d
	case "fetch":
		p.fetch += d
	case "batch":
		p.fetch += d
		p.batches++
		p.batchKeys += int64(keys)
	case "scatter":
		p.scatter += d
	}
	p.spans = append(p.spans, span{start, end})
}

func (p *probe) addRank(d time.Duration) {
	p.mu.Lock()
	p.rank += d
	p.mu.Unlock()
}

// covered is the length of the union of the spans: the part of a read's
// wall time that store calls or scatter legs account for.
func covered(spans []span) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].start.Before(spans[j].start) })
	var total time.Duration
	var cur span
	for i, s := range spans {
		switch {
		case i == 0:
			cur = s
		case s.start.After(cur.end):
			total += cur.end.Sub(cur.start)
			cur = s
		case s.end.After(cur.end):
			cur.end = s.end
		}
	}
	if len(spans) > 0 {
		total += cur.end.Sub(cur.start)
	}
	return total
}

// percentile is the nearest-rank percentile of the samples.
func percentile(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
