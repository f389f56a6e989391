// Command phftlbench is the repository benchmark. Each invocation runs one
// workload in its own process and prints every metric by name and unit,
// followed by a last line holding one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the root of a checkout; bench/run.sh builds and runs it):
//
//	phftlbench --workload phftl-retrain|base-gc|fleet-campaign \
//	    --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics, measured with tracing off.
// --trace 1 reports the per-layer metrics: the workload runs both untraced
// and with every module seam timed from outside, and the difference of the
// two is reported as bench.tracing_overhead_s. Either way the run checks the
// program's outputs and exits 1 when a check fails. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a --trace 0 run reports.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"writes_per_s", "1/s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"wa", "ratio"},
}

// perLayer are the metrics a --trace 1 run reports. A metric that does not
// apply to a workload (the fleet layers on a cell workload, PHFTL's layers on
// Base) reads 0.
var perLayer = []metricDef{
	{"workload.gen_s", "s"},
	{"workload.records", "count"},
	{"trace.expand_s", "s"},
	{"trace.page_ops", "count"},
	{"ftl.write_s", "s"},
	{"ftl.read_s", "s"},
	{"ftl.trim_s", "s"},
	{"ftl.select_s", "s"},
	{"ftl.victim_scores", "count"},
	{"ftl.gc_s", "s"},
	{"ftl.gc_victims", "count"},
	{"ftl.gc_copies", "count"},
	{"ftl.gc_valid_ratio", "ratio"},
	{"ftl.write_stalls", "count"},
	{"ftl.gc_futile", "count"},
	{"nand.programs", "count"},
	{"nand.reads", "count"},
	{"nand.erases", "count"},
	{"core.place_s", "s"},
	{"core.predictions", "count"},
	{"core.window_s", "s"},
	{"core.windows", "count"},
	{"core.deploys", "count"},
	{"core.f1", "ratio"},
	{"core.meta_hit_ratio", "ratio"},
	{"ml.train_s", "s"},
	{"ml.train_examples", "count"},
	{"par.wall_s", "s"},
	{"par.cpu_per_wall", "ratio"},
	{"par.speedup", "ratio"},
	{"fleet.submit_s", "s"},
	{"fleet.queue_wait_s", "s"},
	{"fleet.busy_s", "s"},
	{"fleet.pool_util", "ratio"},
	{"fleet.cells_done", "count"},
	{"fleet.retained_events", "count"},
	{"registry.events", "count"},
	{"registry.events_dropped", "count"},
	{"registry.snapshot_s", "s"},
	{"httpd.scrape_s", "s"},
	{"httpd.metrics_bytes", "B"},
	{"httpd.drain_s", "s"},
	{"httpd.events_served", "count"},
	{"bench.tracing_overhead_s", "s"},
}

// env is one invocation's settings plus everything it reports.
type env struct {
	seed    int64
	seconds float64
	traced  bool
	log     io.Writer
	// minPasses is the least number of fleet passes each half of a run
	// makes, however short the measuring time.
	minPasses int

	values map[string]float64
	checks []checkResult
	times  passTimes // untraced passes

	// Accounting: operations attempted and failed, by kind.
	pageOps, pageOpsFailed    uint64 // page ops replayed by the benchmark's own passes
	cellsSubmitted, cellsDone uint64
	httpRequests, httpFailed  uint64
}

type checkResult struct {
	name string
	err  error
}

// check records the outcome of one named correctness check. A check made
// once per pass keeps one entry, holding its first failure.
func (e *env) check(name string, err error) {
	for i := range e.checks {
		if e.checks[i].name == name {
			if e.checks[i].err == nil {
				e.checks[i].err = err
			}
			return
		}
	}
	e.checks = append(e.checks, checkResult{name, err})
}

func (e *env) set(name string, v float64) { e.values[name] = v }

// addPass records one untraced pass's host times and prints them.
func (e *env) addPass(setup, wall, cpu float64, writes uint64) {
	e.times.add(setup, wall, cpu, writes)
	fmt.Fprintf(e.log, "pass setup_s=%.4f wall_s=%.4f cpu_s=%.4f peak_rss_mb=%.1f\n", setup, wall, cpu, peakRSSMB())
}

// deadline reports whether the run's measuring time is used up.
func (e *env) deadline(start time.Time, share float64) bool {
	return time.Since(start).Seconds() >= e.seconds*share
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, defaultSuite()))
}

// run executes one workload and returns the process exit code: 0 when every
// check passed, 1 when one failed, 2 on a usage or set-up error (no result
// line is printed then).
func run(args []string, stdout, stderr io.Writer, s suite) int {
	fs := flag.NewFlagSet("phftlbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measuring time in seconds")
	traced := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "phftlbench: bad arguments; see -h")
		return 2
	}
	e := &env{
		seed:      *seed,
		seconds:   *seconds,
		traced:    *traced == 1,
		log:       stdout,
		minPasses: s.minPasses,
		values:    map[string]float64{},
	}
	fmt.Fprintf(stdout, "host nproc=%d GOMAXPROCS=%d go=%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
	fmt.Fprintf(stdout, "run workload=%s seed=%d seconds=%g trace=%d\n", *name, *seed, *seconds, *traced)

	var err error
	switch *name {
	case "phftl-retrain":
		err = runCell(e, s.phftl)
	case "base-gc":
		err = runCell(e, s.base)
	case "fleet-campaign":
		err = runFleet(e, s.fleet)
	default:
		fmt.Fprintf(stderr, "phftlbench: unknown workload %q (want %s)\n", *name, strings.Join(workloadNames, ", "))
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "phftlbench: %s: %v\n", *name, err)
		return 2
	}
	return e.finish(stdout)
}

var workloadNames = []string{"phftl-retrain", "base-gc", "fleet-campaign"}

// finish prints the accounting, the checks and the metrics, then the result
// line, and returns the exit code.
func (e *env) finish(w io.Writer) int {
	fmt.Fprintf(w, "ops page_ops=%d page_ops_failed=%d cells_submitted=%d cells_done=%d http_requests=%d http_failed=%d\n",
		e.pageOps, e.pageOpsFailed, e.cellsSubmitted, e.cellsDone, e.httpRequests, e.httpFailed)
	correct := true
	for _, c := range e.checks {
		if c.err != nil {
			correct = false
			fmt.Fprintf(w, "check %-28s FAIL: %v\n", c.name, c.err)
		} else {
			fmt.Fprintf(w, "check %-28s ok\n", c.name)
		}
	}
	defs := endToEnd
	if e.traced {
		defs = perLayer
	}
	res := resultJSON{
		Attempted: e.pageOps + e.cellsSubmitted + e.httpRequests,
		Failed:    e.pageOpsFailed + (e.cellsSubmitted - e.cellsDone) + e.httpFailed,
		Metrics:   make(map[string]metricJSON, len(defs)),
	}
	names := make([]string, 0, len(defs))
	for _, d := range defs {
		v, ok := e.values[d.name]
		if !ok && !e.traced {
			// Every end-to-end metric must have been measured.
			correct = false
			fmt.Fprintf(w, "check %-28s FAIL: metric %s was not measured\n", "metrics", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			correct = false
			fmt.Fprintf(w, "check %-28s FAIL: metric %s = %v\n", "metrics", d.name, v)
			v = 0
		}
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
		names = append(names, d.name)
	}
	res.Correct = correct
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "metric %-26s %.6g %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "phftlbench: %v\n", err)
		return 2
	}
	fmt.Fprintln(w, string(line))
	if !correct {
		return 1
	}
	return 0
}
