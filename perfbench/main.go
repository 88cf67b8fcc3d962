// Command perfbench is QUEPA's repository benchmark. One invocation sets up
// one workload, drives it for a fixed time with one closed-loop client,
// checks every answer against an independent reference and prints one JSON
// result line on standard output.
//
//	bash perfbench/run.sh --workload search-uniform --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// every other read runs traced and the result carries the per-layer metrics.
// README.md describes the workloads, the metrics and how runs are kept
// steady.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// procs is the Go processor count every run uses. On a small shared host two
// busy processors lose up to half their time to hypervisor steal, which made
// throughput swing twofold between runs; one processor held it within 7%.
const procs = 1

// setups is how many times a run builds its deployment; setup_s is the
// median, and only the last deployment is measured.
const setups = 9

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// mix is one workload: a traffic mix over one deployment.
type mix interface {
	// setup builds a fresh deployment, replacing any earlier one.
	setup(o options) error
	// prepare builds what the checks and the traced probes need, after
	// the last setup and outside its timing.
	prepare(o options) error
	// round runs one round of operations through the loop. Every round of
	// a run has the same operation count and mix.
	round(l *loop) error
	// exactRounds is how many measured rounds the exact counters cover: a
	// fixed operation count, so a seed always reports the same counts.
	exactRounds() int
	// counters reads the deployment's cumulative exact counters.
	counters() exact
	// layers reads the deployment's cumulative exported layer counters.
	layers() layerCounters
	// finish runs the end-of-run checks and adds workload diagnostics.
	finish(l *loop) error
	// release drops the reference data the checks keep, so that heap_mb
	// counts the deployment alone.
	release()
	// close releases the deployment.
	close()
}

var workloads = map[string]func() mix{
	"search-uniform":  func() mix { return &searchLoad{cluster: false} },
	"cluster-scatter": func() mix { return &searchLoad{cluster: true} },
	"explore-write":   func() mix { return &exploreLoad{} },
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "search-uniform, explore-write or cluster-scatter")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated data and operation stream")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the measured loop")
	flag.IntVar(&trace, "trace", 0, "1 traces every other read and prints the per-layer metrics")
	flag.Parse()
	o.trace = trace == 1
	mk, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	runtime.GOMAXPROCS(procs)
	res, err := run(o, mk())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	if res == nil {
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// run sets the workload up several times, measures the last deployment and
// returns the result. A nil result means nothing could be measured; a result
// with Correct false means an answer or an end-of-run check was wrong.
func run(o options, w mix) (*result, error) {
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if i > 0 {
			w.close()
			runtime.GC()
		}
		start := time.Now()
		if err := w.setup(o); err != nil {
			w.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	defer w.close()
	if err := w.prepare(o); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}

	l := newLoop(o)
	if err := l.measure(w); err != nil {
		return nil, err
	}
	l.diag["setup_s_all"] = setupTimes

	correct := l.mismatch == nil
	if err := w.finish(l); err != nil {
		correct = false
		l.diag["finish_error"] = err.Error()
	}
	w.release()
	// Two collections: the first moves sync.Pool contents to their victim
	// caches, the second frees them.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / (1 << 20)
	if l.mismatch != nil {
		correct = false
		l.diag["mismatch"] = l.mismatch.Error()
	}

	res := &result{Correct: correct, Attempted: l.attempted(), Failed: l.failed()}
	if o.trace {
		res.Metrics = l.layerMetrics()
	} else {
		res.Metrics = l.endToEnd(median(setupTimes), heapMB)
	}
	printDiagnostics(o, l)
	if !correct {
		return res, fmt.Errorf("checks failed: mismatch %v, end of run %v", l.diag["mismatch"], l.diag["finish_error"])
	}
	return res, nil
}

// printDiagnostics writes what is not a metric: operation counts per type,
// the Go runtime, hypervisor steal during the loop and workload details.
func printDiagnostics(o options, l *loop) {
	d := map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"trace":      o.trace,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"numcpu":     runtime.NumCPU(),
		"ops":        l.ops,
	}
	for k, v := range l.diag {
		d[k] = v
	}
	line, err := json.Marshal(d)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: diagnostics:", err)
		return
	}
	fmt.Println("diagnostics " + string(line))
}
