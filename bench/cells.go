package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"github.com/phftl/phftl/internal/core"
	"github.com/phftl/phftl/internal/metrics"
	"github.com/phftl/phftl/internal/sim"
	"github.com/phftl/phftl/internal/trace"
	"github.com/phftl/phftl/internal/workload"
)

// cellConfig is one single-cell workload: a scheme replaying a synthetic
// trace, preconditioned by preDW drive writes and then timed for timedDW
// more.
type cellConfig struct {
	trace   string
	scheme  sim.Scheme
	preDW   int
	timedDW int
	// cellWorkers is the intra-cell worker count of the passes that give
	// the end-to-end metrics and of the traced passes. parWorkers is that of
	// the passes a traced run adds for the par layer.
	cellWorkers, parWorkers int
	// streams is how many seed-derived input streams the passes rotate
	// through; a run makes at least one pass over each.
	streams int
	// closedForm enables the Frankie et al. closed-form bound check (Base on
	// a skewed trace).
	closedForm bool
}

// suite holds every workload's inputs; tests shrink it.
type suite struct {
	phftl, base cellConfig
	fleet       fleetConfig
	// minPasses is the least number of fleet passes a run makes, however
	// short --seconds is.
	minPasses int
}

func defaultSuite() suite {
	return suite{
		phftl:     cellConfig{trace: "#52", scheme: sim.SchemePHFTL, preDW: 1, timedDW: 1, cellWorkers: 1, parWorkers: 2, streams: 16},
		base:      cellConfig{trace: "#144", scheme: sim.SchemeBase, preDW: 4, timedDW: 20, cellWorkers: 1, parWorkers: 2, streams: 16, closedForm: true},
		fleet:     defaultCampaign(),
		minPasses: 3,
	}
}

// profileFor returns the trace profile with its generator seed moved by
// seed, so each seed gives a different record stream of the same shape.
func profileFor(id string, seed int64) (workload.Profile, error) {
	p, ok := workload.ProfileByID(id)
	if !ok {
		return workload.Profile{}, fmt.Errorf("unknown trace %q", id)
	}
	p.Seed += seed
	return p, nil
}

// pagesOf counts the page ops a record spans, computed independently of
// trace.Expander.
func pagesOf(r trace.Record, pageSize int) uint64 {
	if r.Size == 0 {
		return 0
	}
	ps := uint64(pageSize)
	return (r.Offset+uint64(r.Size)-1)/ps - r.Offset/ps + 1
}

// phasedSource hands the generator's records to the program and stamps the
// moment the replay crosses from preconditioning into the timed phase: the
// first record pulled once the generator has emitted pre page writes. It
// stops after end page writes, the same rule sim.RunOn applies.
type phasedSource struct {
	gen      *workload.Generator
	pageSize int
	pre, end int

	crossed     bool
	boundary    time.Time
	boundaryCPU float64

	ops, writes, timedWrites uint64
}

func (s *phasedSource) Next() (trace.Record, error) {
	w := s.gen.PageWrites()
	if w >= s.end {
		return trace.Record{}, io.EOF
	}
	if !s.crossed && w >= s.pre {
		s.crossed = true
		s.boundary = time.Now()
		s.boundaryCPU = cpuSeconds()
	}
	r := s.gen.Next()
	n := pagesOf(r, s.pageSize)
	s.ops += n
	if r.Op == trace.OpWrite {
		s.writes += n
		if s.crossed {
			s.timedWrites += n
		}
	}
	return r, nil
}

// cellPass is the outcome of one build-precondition-replay pass.
type cellPass struct {
	setup, wall, cpu float64
	ops, writes      uint64
	timedWrites      uint64
	sum              cellSummary
	in               *sim.Instance
}

// summarize reads the figures replays must agree on off a finished instance.
func summarize(in *sim.Instance) cellSummary {
	st := in.FTL.Stats()
	s := cellSummary{WA: st.WA(), UserWrites: st.UserPageWrites, GCVictims: st.GCVictims}
	if in.PHFTL != nil {
		s.Predictions = in.PHFTL.Stats().Predictions
	}
	return s
}

// runUntracedPass builds the cell's instance and replays it through the
// program's own record path (sim.Instance.ReplayStream, pipelined at
// workers >= 2) in one call spanning both phases: a second ReplayStream
// call on a pipelined PHFTL instance restarts the front stage's feature
// replica from empty statistics and no longer matches the serial replay. The
// phase boundary is therefore stamped by the record source, which the
// pipelined FTL stage trails by at most a few batches of page ops.
func runUntracedPass(c cellConfig, p workload.Profile, workers int) (cellPass, error) {
	t0 := time.Now()
	in, err := sim.Build(c.scheme, sim.GeometryForDrive(p.ExportedPages, p.PageSize), nil)
	if err != nil {
		return cellPass{}, err
	}
	in.SetCellWorkers(workers)
	src := &phasedSource{
		gen: p.NewGenerator(), pageSize: p.PageSize,
		pre: c.preDW * p.ExportedPages, end: (c.preDW + c.timedDW) * p.ExportedPages,
	}
	if err := in.ReplayStream(src, p.PageSize); err != nil {
		return cellPass{}, err
	}
	end, endCPU := time.Now(), cpuSeconds()
	in.Finish()
	if !src.crossed {
		return cellPass{}, fmt.Errorf("replay never reached the timed phase")
	}
	return cellPass{
		setup:       src.boundary.Sub(t0).Seconds(),
		wall:        end.Sub(src.boundary).Seconds(),
		cpu:         endCPU - src.boundaryCPU,
		ops:         src.ops,
		writes:      src.writes,
		timedWrites: src.timedWrites,
		sum:         summarize(in),
		in:          in,
	}, nil
}

// runCell runs a single-cell workload: timed passes until the measuring time
// is used up, then the checks. Pass k replays input stream k mod c.streams,
// so every run averages the same streams and a run's medians depend little
// on how one stream happens to fall. A traced run spends a third of its time
// on each of untraced passes, passes at c.parWorkers and traced passes.
func runCell(e *env, c cellConfig) error {
	streams := make([]workload.Profile, c.streams)
	for i := range streams {
		p, err := profileFor(c.trace, e.seed*int64(c.streams)+int64(i))
		if err != nil {
			return err
		}
		streams[i] = p
	}
	p0 := streams[0]
	fmt.Fprintf(e.log, "cell trace=%s scheme=%s precondition_dw=%d timed_dw=%d cell_workers=%d exported_pages=%d streams=%d profile_seeds=%d..%d\n",
		c.trace, c.scheme, c.preDW, c.timedDW, c.cellWorkers, p0.ExportedPages, c.streams, p0.Seed, streams[c.streams-1].Seed)

	// An untraced run covers every stream at least once; a traced run
	// splits its time in three, between untraced passes, passes at
	// parWorkers and traced passes, and compares each of the latter with the
	// untraced pass of its stream, where there is one.
	untracedShare, minPasses := 1.0, c.streams
	if e.traced {
		untracedShare, minPasses = 1.0/3, 1
	}
	baseline := runtime.NumGoroutine()
	sums := map[int]cellSummary{} // by stream
	var repeatErr error
	start := time.Now()
	for n := 0; n < minPasses || !e.deadline(start, untracedShare); n++ {
		settle(baseline)
		k := n % c.streams
		pass, err := runUntracedPass(c, streams[k], c.cellWorkers)
		if err != nil {
			e.pageOpsFailed++
			return err
		}
		e.pageOps += pass.ops
		e.addPass(pass.setup, pass.wall, pass.cpu, pass.timedWrites)
		first, seen := sums[k]
		switch {
		case !seen:
			sums[k] = pass.sum
			e.check("cell.user_writes", checkUserWrites(pass.writes, pass.sum.UserWrites))
			checkCellInstance(e, c, streams[k], pass.in)
		case repeatErr == nil:
			repeatErr = checkSameCell("passes over one stream", first, pass.sum)
		}
	}
	e.check("cell.passes_repeat", repeatErr)
	e.set("peak_rss_mb", peakRSSMB())
	var wa float64
	for k := 0; k < c.streams; k++ { // in stream order, so wa repeats exactly
		wa += sums[k].WA
	}
	e.set("wa", wa/float64(c.streams))
	fmt.Fprintf(e.log, "passes untraced=%d\n", len(e.times.wall))

	// Cross-path: one serial sim.RunOn of stream 0 over the same total drive
	// writes.
	settle(baseline)
	ref, err := sim.Build(c.scheme, sim.GeometryForDrive(p0.ExportedPages, p0.PageSize), nil)
	if err != nil {
		return err
	}
	if _, err := sim.RunOn(ref, p0, c.preDW+c.timedDW); err != nil {
		return err
	}
	e.check("cross.two_phase_vs_runon", checkSameCell("two-phase replay and sim.RunOn", sums[0], summarize(ref)))

	if !e.traced {
		e.reportTimes()
		return nil
	}
	if err := runParPasses(e, c, streams, sums, baseline); err != nil {
		return err
	}
	lt, err := runTracedPasses(e, c, streams, sums, baseline)
	if err != nil {
		return err
	}
	lt.publish(e)
	e.set("bench.tracing_overhead_s", median(lt.walls)-median(e.times.wall))
	return nil
}

// runParPasses gives the par layer: untraced passes at c.parWorkers for a
// third of the run, each checked against the c.cellWorkers pass of its
// stream. Their host times are per-layer figures only: on a host with as
// many vCPUs as busy threads, how much the lanes overlap depends on what
// else the host runs, and the end-to-end times of such passes did not
// repeat between sets of runs.
func runParPasses(e *env, c cellConfig, streams []workload.Profile, sums map[int]cellSummary, baseline int) error {
	var par passTimes
	var sameErr error
	start := time.Now()
	for n := 0; n < 1 || !e.deadline(start, 1.0/3); n++ {
		settle(baseline)
		k := n % c.streams
		pass, err := runUntracedPass(c, streams[k], c.parWorkers)
		if err != nil {
			e.pageOpsFailed++
			return err
		}
		e.pageOps += pass.ops
		par.add(pass.setup, pass.wall, pass.cpu, pass.timedWrites)
		if u, ok := sums[k]; ok && sameErr == nil {
			sameErr = checkSameCell(fmt.Sprintf("replays at %d and %d workers", c.cellWorkers, c.parWorkers), u, pass.sum)
		}
	}
	e.check("cross.par_vs_serial", sameErr)
	fmt.Fprintf(e.log, "passes par_workers=%d n=%d wall_s=%.4f cpu_s=%.4f\n", c.parWorkers, len(par.wall), median(par.wall), median(par.cpu))
	e.set("par.wall_s", median(par.wall))
	e.set("par.cpu_per_wall", median(par.cpu)/median(par.wall))
	e.set("par.speedup", median(e.times.wall)/median(par.wall))
	return nil
}

// checkCellInstance runs the end-of-run checks on a finished instance.
func checkCellInstance(e *env, c cellConfig, p workload.Profile, in *sim.Instance) {
	st := in.FTL.Stats()
	e.check("cell.device_wa", checkDeviceWA(in.FTL.Device().Stats().Programs, st.UserPageWrites, st.WA()))
	e.check("cell.ftl_state", checkFTLState(in.FTL))
	if in.PHFTL != nil {
		ps := in.PHFTL.Stats()
		e.check("core.windows", checkWindows(ps.Windows, st.UserPageWrites, core.DefaultOptions().WindowFrac, in.FTL.ExportedPages()))
		conf := in.PHFTL.Confusion()
		e.check("core.f1", checkF1(conf.F1(), conf.Total(), ps.Predictions))
	}
	if c.closedForm {
		sf := spareFactor(in.FTL, p.ExportedPages)
		e.check("cell.below_closed_form", checkBelowClosedForm(st.WA(), sf))
		fmt.Fprintf(e.log, "closed_form spare_factor=%.4f uniform_wa=%.4f measured_wa=%.4f\n",
			sf, closedFormWA(sf), st.WA())
	}
	fmt.Fprintf(e.log, "cell wa=%.6f data_wa=%.6f user_writes=%d gc_writes=%d meta_writes=%d gc_victims=%d\n",
		st.WA(), metrics.WriteAmp(st.UserPageWrites+st.GCPageWrites, st.UserPageWrites),
		st.UserPageWrites, st.GCPageWrites, st.MetaPageWrites, st.GCVictims)
}
