package main

import (
	"fmt"
	"time"

	"github.com/phftl/phftl/internal/core"
	"github.com/phftl/phftl/internal/ftl"
	"github.com/phftl/phftl/internal/nand"
	"github.com/phftl/phftl/internal/obs"
	"github.com/phftl/phftl/internal/sepbit"
	"github.com/phftl/phftl/internal/sim"
	"github.com/phftl/phftl/internal/trace"
	"github.com/phftl/phftl/internal/tworegion"
	"github.com/phftl/phftl/internal/workload"
)

// The traced run times every module from outside, at its public seams:
//
//	workload.Generator.Next, trace.Expander.Expand   called by the replay loop
//	FTL.Write / Read / Trim                          called by the replay loop
//	VictimPolicy.Score                               forwarding policy
//	PHFTL.PlaceUserWrite                             forwarding separator
//	gc_start, gc_end, write_stall, window_retrain    obs.Recorder events
//
// Spans nest: ftl.write_s contains core.place_s, core.window_s (which
// contains ml.train_s), ftl.select_s and ftl.gc_s. A layer's self time is its
// span minus the spans it contains.

// layerAcc accumulates one traced replay's timed-phase figures.
type layerAcc struct {
	records, pageOps           uint64
	genNS, expandNS            time.Duration
	writeNS, readNS, trimNS    time.Duration
	selectNS, gcNS             time.Duration
	victimScores               uint64
	gcVictims, gcCopies        uint64
	writeStalls                uint64
	placeNS, windowNS, trainNS time.Duration
	windows, trainExamples     uint64
}

// layers is the recorder, policy and separator hooks of one traced replay.
type layers struct {
	acc layerAcc

	selectStart time.Time // first Score call of the selection in progress
	gcStart     time.Time
}

// Record implements obs.Recorder.
func (l *layers) Record(ev obs.Event) {
	switch ev.Kind {
	case obs.KindGCStart:
		now := time.Now()
		if !l.selectStart.IsZero() {
			l.acc.selectNS += now.Sub(l.selectStart)
			l.selectStart = time.Time{}
		}
		l.gcStart = now
	case obs.KindGCEnd:
		l.acc.gcNS += time.Since(l.gcStart)
		l.acc.gcVictims++
		l.acc.gcCopies += uint64(ev.A)
	case obs.KindWriteStall:
		l.acc.writeStalls++
	case obs.KindWindowRetrain:
		if ev.B == 1 {
			l.acc.trainNS += time.Duration(ev.C)
			l.acc.trainExamples += uint64(ev.A)
		}
	}
}

// tracedPolicy forwards a victim policy, counting Score calls and stamping
// the first call of each selection.
type tracedPolicy struct {
	inner ftl.VictimPolicy
	l     *layers
}

func (p tracedPolicy) Name() string { return p.inner.Name() }

func (p tracedPolicy) Score(sb ftl.SBView, clock uint64) float64 {
	p.l.acc.victimScores++
	if p.l.selectStart.IsZero() {
		p.l.selectStart = time.Now()
	}
	return p.inner.Score(sb, clock)
}

// boundedTracedPolicy also forwards MaxScore, so the indexed selector keeps
// pruning exactly as it does for the inner policy.
type boundedTracedPolicy struct {
	tracedPolicy
	bound ftl.VictimScoreBound
}

func (p boundedTracedPolicy) MaxScore(invalid, dataPages int) float64 {
	return p.bound.MaxScore(invalid, dataPages)
}

func (l *layers) policy(inner ftl.VictimPolicy) ftl.VictimPolicy {
	t := tracedPolicy{inner: inner, l: l}
	if b, ok := inner.(ftl.VictimScoreBound); ok {
		return boundedTracedPolicy{tracedPolicy: t, bound: b}
	}
	return t
}

// tracedPHFTL forwards every Separator (and TrimAware) method to PHFTL and
// times PlaceUserWrite, split by whether the call closed a training window.
type tracedPHFTL struct {
	*core.PHFTL
	l *layers
}

func (s tracedPHFTL) PlaceUserWrite(w ftl.UserWrite, clock uint64) (int, []byte) {
	windows := s.PHFTL.Stats().Windows
	t := time.Now()
	stream, oob := s.PHFTL.PlaceUserWrite(w, clock)
	d := time.Since(t)
	if s.PHFTL.Stats().Windows != windows {
		s.l.acc.windowNS += d
		s.l.acc.windows++
	} else {
		s.l.acc.placeNS += d
	}
	return stream, oob
}

// buildTraced constructs a scheme the way sim.Build and sim.BuildOP do, but
// with the forwarding policy and separator installed, the recorder attached
// and PHFTL's window_retrain durations measured. op 0 keeps the default 7%.
func buildTraced(scheme sim.Scheme, geo nand.Geometry, op float64, l *layers) (*sim.Instance, error) {
	cfg := ftl.DefaultConfig(geo)
	if op > 0 {
		cfg.OPRatio = op
	}
	var in *sim.Instance
	switch scheme {
	case sim.SchemePHFTL:
		o := core.DefaultOptions()
		o.WallDurations = true
		dataPages, metaPages, _ := core.MetaLayout(geo.PagesPerSuperblock(), geo.PageSize)
		cfg.MetaPagesPerSB = metaPages
		cfg.MaxGCClass = o.GCStreams
		exported := int(float64(geo.Superblocks()*dataPages) / (1 + cfg.OPRatio))
		p, err := core.New(geo, exported, o)
		if err != nil {
			return nil, err
		}
		pol := &ftl.AdjustedGreedyPolicy{Thresh: p, IsShortStream: p.IsShortStream}
		f, err := ftl.New(cfg, tracedPHFTL{PHFTL: p, l: l}, l.policy(pol))
		if err != nil {
			return nil, err
		}
		p.Attach(f)
		p.SetRecorder(l, f.Clock)
		in = &sim.Instance{Scheme: scheme, FTL: f, PHFTL: p}
	default:
		var sep ftl.Separator
		switch scheme {
		case sim.SchemeBase:
			sep = ftl.NewBaseSeparator()
		case sim.Scheme2R:
			sep = tworegion.New()
		case sim.SchemeSepBIT:
			sep = sepbit.New(int(float64(geo.Superblocks()*geo.PagesPerSuperblock()) / (1 + cfg.OPRatio)))
		default:
			return nil, fmt.Errorf("unknown scheme %q", scheme)
		}
		f, err := ftl.New(cfg, sep, l.policy(ftl.CostBenefitPolicy{}))
		if err != nil {
			return nil, err
		}
		in = &sim.Instance{Scheme: scheme, FTL: f}
	}
	in.FTL.SetRecorder(l)
	return in, nil
}

// counters is the part of the simulated state the timed phase is measured
// against.
type counters struct {
	dev                  nand.Stats
	ftl                  ftl.Stats
	predictions, deploys uint64
}

func countersOf(in *sim.Instance) counters {
	c := counters{dev: in.FTL.Device().Stats(), ftl: in.FTL.Stats()}
	if in.PHFTL != nil {
		ps := in.PHFTL.Stats()
		c.predictions, c.deploys = ps.Predictions, ps.Deploys
	}
	return c
}

// tracedPass is one traced replay: its timed-phase wall time and layer
// figures and the counter deltas over the timed phase.
type tracedPass struct {
	wall      float64
	ops       uint64
	dataPages int
	acc       layerAcc
	from, to  counters
	sum       cellSummary
	f1, hit   float64
}

// tracedReplay replays preDW+timedDW drive writes of p through the
// instance's FTL, calling every seam itself and timing it. It issues exactly
// the page ops sim.RunOn would.
func tracedReplay(in *sim.Instance, l *layers, p workload.Profile, preDW, totalDW int) (tracedPass, error) {
	f := in.FTL
	exported := f.ExportedPages()
	gen := p.NewGenerator()
	e := trace.NewExpander(p.PageSize, p.ExportedPages)
	pre, end := preDW*p.ExportedPages, totalDW*p.ExportedPages
	var buf []trace.PageOp
	collect := func(op trace.PageOp) error {
		buf = append(buf, op)
		return nil
	}
	var tp tracedPass
	var boundary time.Time
	for gen.PageWrites() < end {
		if boundary.IsZero() && gen.PageWrites() >= pre {
			boundary = time.Now()
			l.acc = layerAcc{}
			tp.from = countersOf(in)
		}
		t1 := time.Now()
		rec := gen.Next()
		t2 := time.Now()
		buf = buf[:0]
		if err := e.Expand(rec, collect); err != nil {
			return tp, err
		}
		t3 := time.Now()
		l.acc.genNS += t2.Sub(t1)
		l.acc.expandNS += t3.Sub(t2)
		l.acc.records++
		l.acc.pageOps += uint64(len(buf))
		for _, op := range buf {
			lpn := nand.LPN(op.LPN % uint32(exported))
			t := time.Now()
			switch {
			case op.Write:
				err := f.Write(ftl.UserWrite{LPN: lpn, ReqPages: op.ReqPages, Seq: op.Seq})
				l.acc.writeNS += time.Since(t)
				// Every selection ends inside the write that started it; one
				// still open found no victim (a futile pass).
				l.selectStart = time.Time{}
				if err != nil {
					return tp, err
				}
			case op.Trim:
				err := f.Trim(lpn)
				l.acc.trimNS += time.Since(t)
				if err != nil {
					return tp, err
				}
			default:
				err := f.Read(lpn, op.ReqPages)
				l.acc.readNS += time.Since(t)
				if err != nil && err != ftl.ErrUnmapped {
					return tp, err
				}
			}
		}
		tp.ops += uint64(len(buf))
	}
	if in.PHFTL != nil {
		if err := in.PHFTL.Err(); err != nil {
			return tp, err
		}
	}
	if boundary.IsZero() {
		return tp, fmt.Errorf("replay never reached the timed phase")
	}
	tp.wall = time.Since(boundary).Seconds()
	tp.to = countersOf(in)
	tp.acc = l.acc
	tp.dataPages = f.DataPagesPerSB()
	in.Finish()
	tp.sum = summarize(in)
	if in.PHFTL != nil {
		tp.f1 = in.PHFTL.Confusion().F1()
		tp.hit = in.PHFTL.MetaStats().HitRate()
	}
	return tp, nil
}

// layerReport aggregates traced passes into the per-layer metrics: the
// median of each figure over the passes.
type layerReport struct {
	vals  map[string][]float64
	walls []float64 // timed-phase wall time of each traced pass
}

func newLayerReport() *layerReport { return &layerReport{vals: map[string][]float64{}} }

func (r *layerReport) add(name string, v float64) { r.vals[name] = append(r.vals[name], v) }

// addPass folds one traced pass's timed-phase figures in.
func (r *layerReport) addPass(tp tracedPass) {
	a := tp.acc
	r.add("workload.gen_s", a.genNS.Seconds())
	r.add("workload.records", float64(a.records))
	r.add("trace.expand_s", a.expandNS.Seconds())
	r.add("trace.page_ops", float64(a.pageOps))
	r.add("ftl.write_s", a.writeNS.Seconds())
	r.add("ftl.read_s", a.readNS.Seconds())
	r.add("ftl.trim_s", a.trimNS.Seconds())
	r.add("ftl.select_s", a.selectNS.Seconds())
	r.add("ftl.victim_scores", float64(a.victimScores))
	r.add("ftl.gc_s", a.gcNS.Seconds())
	r.add("ftl.gc_victims", float64(a.gcVictims))
	r.add("ftl.gc_copies", float64(a.gcCopies))
	r.add("ftl.gc_valid_ratio", gcValidRatio(a.gcCopies, a.gcVictims, tp.dataPages))
	r.add("ftl.write_stalls", float64(a.writeStalls))
	r.add("ftl.gc_futile", float64(tp.to.ftl.GCFutile-tp.from.ftl.GCFutile))
	r.add("nand.programs", float64(tp.to.dev.Programs-tp.from.dev.Programs))
	r.add("nand.reads", float64(tp.to.dev.Reads-tp.from.dev.Reads))
	r.add("nand.erases", float64(tp.to.dev.Erases-tp.from.dev.Erases))
	r.add("core.place_s", a.placeNS.Seconds())
	r.add("core.predictions", float64(tp.to.predictions-tp.from.predictions))
	r.add("core.window_s", a.windowNS.Seconds())
	r.add("core.windows", float64(a.windows))
	r.add("core.deploys", float64(tp.to.deploys-tp.from.deploys))
	r.add("core.f1", tp.f1)
	r.add("core.meta_hit_ratio", tp.hit)
	r.add("ml.train_s", a.trainNS.Seconds())
	r.add("ml.train_examples", float64(a.trainExamples))
	r.walls = append(r.walls, tp.wall)
}

// gcValidRatio is copies per victim data page.
func gcValidRatio(copies, victims uint64, dataPages int) float64 {
	if victims == 0 {
		return 0
	}
	return float64(copies) / float64(victims*uint64(dataPages))
}

func (r *layerReport) publish(e *env) {
	for name, vs := range r.vals {
		e.set(name, median(vs))
	}
}

// runTracedPasses runs traced passes of a cell, rotating through the same
// streams, for the last third of the run, and checks each against the
// untraced replay of its stream, where the first third made one.
func runTracedPasses(e *env, c cellConfig, streams []workload.Profile, untraced map[int]cellSummary, baseline int) (*layerReport, error) {
	r := newLayerReport()
	var crossErr, seamErr error
	start := time.Now()
	for n := 0; n < 1 || !e.deadline(start, 1.0/3); n++ {
		settle(baseline)
		k := n % len(streams)
		p := streams[k]
		l := &layers{}
		in, err := buildTraced(c.scheme, sim.GeometryForDrive(p.ExportedPages, p.PageSize), 0, l)
		if err != nil {
			return nil, err
		}
		in.SetCellWorkers(c.cellWorkers)
		tp, err := tracedReplay(in, l, p, c.preDW, c.preDW+c.timedDW)
		if err != nil {
			e.pageOpsFailed++
			return nil, err
		}
		e.pageOps += tp.ops
		r.addPass(tp)
		if u, ok := untraced[k]; ok && crossErr == nil {
			crossErr = checkSameCell("traced and untraced replay", u, tp.sum)
		}
		if seamErr == nil {
			seamErr = checkCount("gc_end events vs FTL GC victims", tp.acc.gcVictims, tp.to.ftl.GCVictims-tp.from.ftl.GCVictims)
		}
	}
	e.check("cross.traced_vs_untraced", crossErr)
	e.check("cross.traced_gc_seams", seamErr)
	fmt.Fprintf(e.log, "passes traced=%d\n", len(r.walls))
	return r, nil
}

// checkCount requires a count seen at a seam to equal the program's own.
func checkCount(what string, seen, own uint64) error {
	if seen != own {
		return fmt.Errorf("%s: %d vs %d", what, seen, own)
	}
	return nil
}
