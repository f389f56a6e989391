package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/phftl/phftl/internal/fleet"
	"github.com/phftl/phftl/internal/metrics"
	"github.com/phftl/phftl/internal/obs"
	"github.com/phftl/phftl/internal/obs/httpd"
	"github.com/phftl/phftl/internal/obs/registry"
	"github.com/phftl/phftl/internal/sim"
	"github.com/phftl/phftl/internal/workload"
)

// fleetConfig is the fleet-campaign workload: a phftld-shaped service (a
// registry, the HTTP control plane and a fleet.Supervisor with a journal)
// inside the benchmark process, fed a fixed campaign over HTTP and watched by
// one client.
type fleetConfig struct {
	workers int
	// groups lists the campaign's cells in groups of similar cost, costliest
	// first. The seed shuffles the cells within each group only, so the
	// pool's makespan does not depend on where the seed puts a long cell.
	groups [][]httpd.CellSpec
	// The client wakes every tick while cells run. Every drainTicks ticks it
	// reads /api/v1/fleet and one page of up to drainLimit events from
	// /api/v1/events, and every scrapeTicks ticks it scrapes /metrics. It is
	// a light, rate-limited watcher: events the ring overwrites before it
	// gets to them are lost to it. At the end it scrapes both documents once
	// more and drains every retained event. A traced pass also takes a
	// registry snapshot every tick, to stamp when each cell left the queue.
	tick                    time.Duration
	drainTicks, scrapeTicks int
	drainLimit              int
}

// defaultCampaign is mostly short Base/2R/SepBIT cells over traces of every
// drive class, including the trim twins and one non-default OP point; the
// one PHFTL cell, on a small drive, is a small share of the work.
func defaultCampaign() fleetConfig {
	var groups [][]httpd.CellSpec
	add := func(trace string, dw int, op float64, schemes ...string) {
		var g []httpd.CellSpec
		for _, s := range schemes {
			g = append(g, httpd.CellSpec{Trace: trace, Scheme: s, DriveWrites: dw, OP: op})
		}
		groups = append(groups, g)
	}
	add("#326", 1, 0, "PHFTL")
	add("#144", 4, 0, "Base", "2R", "SepBIT")
	add("#144T", 4, 0, "Base", "2R", "SepBIT")
	add("#144", 4, 0.15, "Base")
	add("#52T", 2, 0, "Base", "2R", "SepBIT")
	add("#58", 2, 0, "Base", "2R", "SepBIT")
	add("#177", 2, 0, "Base", "2R", "SepBIT")
	add("#38", 2, 0, "Base", "2R", "SepBIT")
	add("#326", 2, 0, "Base", "2R", "SepBIT")
	return fleetConfig{
		workers:     2,
		groups:      groups,
		tick:        10 * time.Millisecond,
		drainTicks:  5,  // 50 ms
		scrapeTicks: 50, // 500 ms
		drainLimit:  1000,
	}
}

// cells returns the campaign in submission order for a seed.
func (fc fleetConfig) cells(seed int64) []httpd.CellSpec {
	rng := rand.New(rand.NewSource(seed))
	var out []httpd.CellSpec
	for _, g := range fc.groups {
		g = append([]httpd.CellSpec(nil), g...)
		rng.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
		out = append(out, g...)
	}
	return out
}

// specKey identifies a campaign cell independently of its submission order.
func specKey(s httpd.CellSpec) string {
	return fmt.Sprintf("%s/%s/dw%d/op%g", s.Trace, s.Scheme, s.DriveWrites, s.OP)
}

// client is the one HTTP client watching the service. It counts every
// request, and in a traced pass times each kind.
type client struct {
	base string
	hc   *http.Client
	e    *env

	since     uint64   // event drain cursor
	delivered []uint64 // every drained sequence, in arrival order

	submitNS, scrapeNS, drainNS time.Duration
	lastMetrics                 []byte
	lastFleet                   httpd.FleetJSON
}

// do issues one request and returns its body, counting it as attempted and,
// on a transport error or an unexpected status, as failed.
func (c *client) do(method, path string, body []byte, want int, acc *time.Duration) ([]byte, http.Header, error) {
	t := time.Now()
	c.e.httpRequests++
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		c.e.httpFailed++
		return nil, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.e.httpFailed++
		return nil, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	*acc += time.Since(t)
	if err != nil {
		c.e.httpFailed++
		return nil, nil, err
	}
	if resp.StatusCode != want {
		c.e.httpFailed++
		return nil, nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, resp.Header, nil
}

func (c *client) submit(spec httpd.CellSpec) (string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	b, _, err := c.do(http.MethodPost, "/api/v1/cells", body, http.StatusAccepted, &c.submitNS)
	if err != nil {
		return "", err
	}
	var sub httpd.SubmitJSON
	if err := json.Unmarshal(b, &sub); err != nil {
		return "", fmt.Errorf("decode submit reply: %w", err)
	}
	return sub.Cell, nil
}

// scrapeMetrics reads /metrics.
func (c *client) scrapeMetrics() error {
	b, _, err := c.do(http.MethodGet, "/metrics", nil, http.StatusOK, &c.scrapeNS)
	if err != nil {
		return err
	}
	c.lastMetrics = b
	return nil
}

// scrapeFleet reads /api/v1/fleet.
func (c *client) scrapeFleet() error {
	b, _, err := c.do(http.MethodGet, "/api/v1/fleet", nil, http.StatusOK, &c.scrapeNS)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, &c.lastFleet)
}

// drainPage reads one page of /api/v1/events from the cursor, records each
// delivered sequence number and advances the cursor. It returns how many
// events the page held.
func (c *client) drainPage(limit int) (int, error) {
	path := "/api/v1/events?limit=" + strconv.Itoa(limit) + "&since=" + strconv.FormatUint(c.since, 10)
	b, h, err := c.do(http.MethodGet, path, nil, http.StatusOK, &c.drainNS)
	if err != nil {
		return 0, err
	}
	next, err := strconv.ParseUint(h.Get("X-Next-Seq"), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad X-Next-Seq: %w", err)
	}
	n := 0
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		seq, err := lineSeq(sc.Bytes())
		if err != nil {
			return n, err
		}
		c.delivered = append(c.delivered, seq)
		n++
	}
	c.since = next
	return n, nil
}

// drainAll pages through /api/v1/events until a page comes back short.
func (c *client) drainAll(limit int) error {
	for {
		n, err := c.drainPage(limit)
		if err != nil || n < limit {
			return err
		}
	}
}

// lineSeq reads the sequence number off one /api/v1/events line, which
// starts {"seq":N, (obs.AppendJSONSeq).
func lineSeq(line []byte) (uint64, error) {
	const prefix = `{"seq":`
	if !bytes.HasPrefix(line, []byte(prefix)) {
		return 0, fmt.Errorf("event line %.40q lacks a leading seq", line)
	}
	rest := line[len(prefix):]
	end := bytes.IndexByte(rest, ',')
	if end < 0 {
		return 0, fmt.Errorf("event line %.40q: unterminated seq", line)
	}
	return strconv.ParseUint(string(rest[:end]), 10, 64)
}

// fleetPass is the outcome of one campaign pass.
type fleetPass struct {
	setup, wall, cpu float64
	userWrites       uint64
	flashWrites      uint64
	wa               map[string]float64 // per campaign cell (specKey)

	// Traced figures.
	submit, scrape, drain, snapshot float64
	queueWait, busy                 float64
	cellsDone, retained             uint64
	events, dropped, served         uint64
	metricsBytes                    int
}

// runFleetPass starts a service, queues the campaign over HTTP (set-up),
// then runs it to the end while the client watches (timed), and checks what
// the service served.
func runFleetPass(e *env, fc fleetConfig, order []httpd.CellSpec, journal string, traced bool) (fleetPass, error) {
	var fp fleetPass
	t0 := time.Now()
	reg := registry.New()
	sup, err := fleet.New(fleet.Config{Workers: fc.workers, Registry: reg, JournalPath: journal, DefaultDriveWrites: 1})
	if err != nil {
		return fp, err
	}
	defer sup.Shutdown()
	srv, err := httpd.ServeWith("127.0.0.1:0", reg, sup)
	if err != nil {
		return fp, err
	}
	defer srv.Close()
	tr := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	defer tr.CloseIdleConnections()
	c := &client{base: srv.URL(), hc: &http.Client{Transport: tr}, e: e}
	names := make([]string, len(order))
	for i, spec := range order {
		if names[i], err = c.submit(spec); err != nil {
			return fp, err
		}
	}
	e.cellsSubmitted += uint64(len(order))
	fp.setup = time.Since(t0).Seconds()

	t1, cpu1 := time.Now(), cpuSeconds()
	sup.Start()
	done := make(chan struct{})
	go func() {
		sup.Drain()
		close(done)
	}()
	ticker := time.NewTicker(fc.tick)
	defer ticker.Stop()
	started := map[string]time.Time{}
	var snapNS time.Duration
	poll := func() {
		t := time.Now()
		snaps := reg.Snapshot()
		snapNS += time.Since(t)
		for _, s := range snaps {
			if _, ok := started[s.Name]; !ok && s.State != registry.StateQueued {
				started[s.Name] = t
			}
		}
	}
	for ticks, running := 0, true; running; {
		select {
		case <-done:
			running = false
		case <-ticker.C:
			ticks++
			if traced {
				poll()
			}
			if ticks%fc.drainTicks == 0 {
				if err := c.scrapeFleet(); err != nil {
					return fp, err
				}
				if _, err := c.drainPage(fc.drainLimit); err != nil {
					return fp, err
				}
			}
			if ticks%fc.scrapeTicks == 0 {
				if err := c.scrapeMetrics(); err != nil {
					return fp, err
				}
			}
		}
	}
	if err := c.scrapeMetrics(); err != nil {
		return fp, err
	}
	if err := c.scrapeFleet(); err != nil {
		return fp, err
	}
	if err := c.drainAll(fc.drainLimit); err != nil {
		return fp, err
	}
	fp.wall = time.Since(t1).Seconds()
	fp.cpu = cpuSeconds() - cpu1

	// What the service reports, checked after the timed phase.
	b, _, err := c.do(http.MethodGet, "/api/v1/cells", nil, http.StatusOK, new(time.Duration))
	if err != nil {
		return fp, err
	}
	var cells httpd.CellsJSON
	if err := json.Unmarshal(b, &cells); err != nil {
		return fp, fmt.Errorf("decode cells: %w", err)
	}
	states := map[string]string{}
	for _, cj := range cells.Cells {
		states[cj.Cell] = cj.State
	}
	for _, n := range names {
		if _, ok := states[n]; !ok {
			states[n] = "missing"
		}
	}
	e.check("fleet.all_done", checkAllDone(states))
	fp.wa = map[string]float64{}
	finalWA := map[string][]float64{}
	for i, n := range names {
		out, ok := sup.Output(n)
		if !ok || out.Err != nil {
			continue
		}
		fp.cellsDone++
		fp.retained += uint64(len(out.Events))
		st := out.Result.FTLStats
		fp.userWrites += st.UserPageWrites
		fp.flashWrites += st.FlashPageWrites()
		fp.wa[specKey(order[i])] = out.Result.WA
		finalWA[order[i].Scheme] = append(finalWA[order[i].Scheme], out.Result.WA)
	}
	e.cellsDone += fp.cellsDone
	e.check("fleet.percentiles", checkFleetPercentiles(c.lastFleet, finalWA))
	e.check("fleet.exposition", httpd.CheckExposition(bytes.NewReader(c.lastMetrics)))
	newest := storedEvents(reg.Snapshot())
	oldest := uint64(1)
	if newest > registry.DefaultEventRingCap {
		oldest = newest - registry.DefaultEventRingCap + 1
	}
	e.check("fleet.drain_once", checkDrainOnce(c.delivered, oldest, newest))

	fp.submit = c.submitNS.Seconds()
	fp.scrape = c.scrapeNS.Seconds()
	fp.drain = c.drainNS.Seconds()
	fp.snapshot = snapNS.Seconds()
	fp.metricsBytes = len(c.lastMetrics)
	fp.served = uint64(len(c.delivered))
	fp.events = reg.Totals().Events
	fp.dropped = reg.EventsDropped()
	for _, s := range reg.Snapshot() {
		if s.OpsPerSec > 0 {
			// The registry stamps each cell running and done; its lifetime
			// ops/s is ops over that interval.
			busy := float64(s.Ops) / s.OpsPerSec
			fp.busy += busy
			if st, ok := started[s.Name]; ok {
				fp.queueWait += st.Sub(t1).Seconds()
			}
		}
	}
	return fp, nil
}

// storedEvents computes how many events the registry's drain ring has
// stored, from the exact per-cell, per-kind counters: every event of a rare
// kind, and the 1st, 17th, 33rd, ... of each cell's hot meta-cache kinds.
func storedEvents(snaps []registry.CellSnapshot) uint64 {
	var n uint64
	for _, s := range snaps {
		for kind, count := range s.Events {
			switch kind {
			case obs.KindMetaCacheHit.String(), obs.KindMetaCacheMiss.String(), obs.KindMetaCacheEvict.String():
				n += (count + 15) / 16
			default:
				n += count
			}
		}
	}
	return n
}

// standaloneWA replays one campaign cell outside the service, the way a
// batch harness would: sim.RunProfile at the default geometry, sim.BuildOP +
// sim.RunOn at a non-default OP.
func standaloneWA(spec httpd.CellSpec) (float64, error) {
	p, ok := workload.ProfileByID(spec.Trace)
	if !ok {
		return 0, fmt.Errorf("unknown trace %q", spec.Trace)
	}
	if spec.OP == 0 {
		res, err := sim.RunProfile(p, sim.Scheme(spec.Scheme), spec.DriveWrites, nil)
		return res.WA, err
	}
	geo := sim.GeometryForDriveOP(p.ExportedPages, p.PageSize, spec.OP)
	in, err := sim.BuildOP(sim.Scheme(spec.Scheme), geo, spec.OP, nil)
	if err != nil {
		return 0, err
	}
	res, err := sim.RunOn(in, p, spec.DriveWrites)
	return res.WA, err
}

// runFleet runs the fleet-campaign workload.
func runFleet(e *env, fc fleetConfig) error {
	order := fc.cells(e.seed)
	keys := make([]string, len(order))
	for i, s := range order {
		keys[i] = specKey(s)
	}
	fmt.Fprintf(e.log, "campaign workers=%d cells=%d order=%s\n", fc.workers, len(order), strings.Join(keys, ","))

	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_build", "fleet-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	untracedShare := 1.0
	if e.traced {
		untracedShare = 0.5
	}
	baseline := runtime.NumGoroutine()
	var first fleetPass
	var repeatErr error
	pass := 0
	runPasses := func(traced bool, share float64, each func(fleetPass)) error {
		start := time.Now()
		for n := 0; n < e.minPasses || !e.deadline(start, share); n++ {
			settle(baseline)
			pass++
			fp, err := runFleetPass(e, fc, order, filepath.Join(dir, fmt.Sprintf("queue-%d.jsonl", pass)), traced)
			if err != nil {
				return err
			}
			if first.wa == nil {
				first = fp
			} else if repeatErr == nil {
				repeatErr = checkSameWA(first.wa, fp.wa)
			}
			each(fp)
		}
		return nil
	}
	err = runPasses(false, untracedShare, func(fp fleetPass) {
		e.addPass(fp.setup, fp.wall, fp.cpu, fp.userWrites)
	})
	if err != nil {
		return err
	}
	e.set("peak_rss_mb", peakRSSMB())
	e.set("wa", metrics.WriteAmp(first.flashWrites, first.userWrites))
	fmt.Fprintf(e.log, "passes untraced=%d\n", len(e.times.wall))

	// Each cell's WA against a standalone replay of the same cell.
	standalone := map[string]float64{}
	for _, spec := range order {
		wa, err := standaloneWA(spec)
		if err != nil {
			return err
		}
		standalone[specKey(spec)] = wa
	}
	e.check("fleet.standalone_wa", checkSameWA(first.wa, standalone))

	if !e.traced {
		e.check("fleet.passes_repeat", repeatErr)
		e.reportTimes()
		return nil
	}
	r := newLayerReport()
	err = runPasses(true, 0.5, func(fp fleetPass) {
		r.walls = append(r.walls, fp.wall)
		r.add("fleet.submit_s", fp.submit)
		r.add("fleet.queue_wait_s", fp.queueWait)
		r.add("fleet.busy_s", fp.busy)
		r.add("fleet.pool_util", fp.busy/(float64(fc.workers)*fp.wall))
		r.add("fleet.cells_done", float64(fp.cellsDone))
		r.add("fleet.retained_events", float64(fp.retained))
		r.add("registry.events", float64(fp.events))
		r.add("registry.events_dropped", float64(fp.dropped))
		r.add("registry.snapshot_s", fp.snapshot)
		r.add("httpd.scrape_s", fp.scrape)
		r.add("httpd.metrics_bytes", float64(fp.metricsBytes))
		r.add("httpd.drain_s", fp.drain)
		r.add("httpd.events_served", float64(fp.served))
	})
	if err != nil {
		return err
	}
	e.check("fleet.passes_repeat", repeatErr)
	fmt.Fprintf(e.log, "passes traced=%d\n", len(r.walls))
	r.publish(e)
	e.set("par.cpu_per_wall", median(e.times.cpu)/median(e.times.wall))
	e.set("bench.tracing_overhead_s", median(r.walls)-median(e.times.wall))
	return tracedCampaignLayers(e, order, first.wa, baseline)
}

// checkSameWA requires two replays of the campaign to give every cell the
// same WA.
func checkSameWA(a, b map[string]float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d and %d cells finished", len(a), len(b))
	}
	for k, v := range a {
		if b[k] != v {
			return fmt.Errorf("%s: wa %v then %v", k, v, b[k])
		}
	}
	return nil
}

// tracedCampaignLayers replays every campaign cell once outside the service
// with the module seams timed, and reports the sums as the campaign's
// trace, workload, ftl, nand and core layer figures. Each cell must give the
// WA it gave in the service.
func tracedCampaignLayers(e *env, cells []httpd.CellSpec, fleetWA map[string]float64, baseline int) error {
	sum := map[string]float64{}
	var copies, dataPageVictims uint64
	traced := map[string]float64{}
	for _, spec := range cells {
		p, ok := workload.ProfileByID(spec.Trace)
		if !ok {
			return fmt.Errorf("unknown trace %q", spec.Trace)
		}
		geo := sim.GeometryForDrive(p.ExportedPages, p.PageSize)
		if spec.OP > 0 {
			geo = sim.GeometryForDriveOP(p.ExportedPages, p.PageSize, spec.OP)
		}
		settle(baseline)
		l := &layers{}
		in, err := buildTraced(sim.Scheme(spec.Scheme), geo, spec.OP, l)
		if err != nil {
			return err
		}
		in.SetCellWorkers(spec.CellWorkers)
		tp, err := tracedReplay(in, l, p, 0, spec.DriveWrites)
		if err != nil {
			e.pageOpsFailed++
			return err
		}
		e.pageOps += tp.ops
		traced[specKey(spec)] = tp.sum.WA
		one := newLayerReport()
		one.addPass(tp)
		for name, vs := range one.vals {
			sum[name] += vs[0]
		}
		copies += tp.acc.gcCopies
		dataPageVictims += tp.acc.gcVictims * uint64(tp.dataPages)
		if spec.Scheme == string(sim.SchemePHFTL) {
			sum["core.f1"], sum["core.meta_hit_ratio"] = tp.f1, tp.hit
		}
	}
	e.check("cross.traced_vs_fleet", checkSameWA(fleetWA, traced))
	for name, v := range sum {
		e.set(name, v)
	}
	e.set("ftl.gc_valid_ratio", 0)
	if dataPageVictims > 0 {
		e.set("ftl.gc_valid_ratio", float64(copies)/float64(dataPageVictims))
	}
	return nil
}
