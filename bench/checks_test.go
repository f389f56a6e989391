package main

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"github.com/phftl/phftl/internal/metrics"
	"github.com/phftl/phftl/internal/obs"
	"github.com/phftl/phftl/internal/obs/httpd"
	"github.com/phftl/phftl/internal/obs/registry"
	"github.com/phftl/phftl/internal/sim"
	"github.com/phftl/phftl/internal/trace"
	"github.com/phftl/phftl/internal/workload"
)

// Every check passes on consistent figures and fails once one figure is
// perturbed.

func TestCheckDeviceWA(t *testing.T) {
	wa := metrics.WriteAmp(1500, 1000)
	if err := checkDeviceWA(1500, 1000, wa); err != nil {
		t.Fatal(err)
	}
	if checkDeviceWA(1501, 1000, wa) == nil {
		t.Fatal("one extra device program went unnoticed")
	}
}

func TestCheckUserWrites(t *testing.T) {
	if err := checkUserWrites(4096, 4096); err != nil {
		t.Fatal(err)
	}
	if checkUserWrites(4096, 4095) == nil {
		t.Fatal("a lost user write went unnoticed")
	}
}

func TestCheckFTLState(t *testing.T) {
	p, _ := workload.ProfileByID("#326")
	in, err := sim.Build(sim.SchemeBase, sim.GeometryForDrive(p.ExportedPages, p.PageSize), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunOn(in, p, 2); err != nil {
		t.Fatal(err)
	}
	if err := checkFTLState(in.FTL); err != nil {
		t.Fatal(err)
	}
	mapped, valid := mappedAndValid(in.FTL)
	if mapped == 0 {
		t.Fatal("replay mapped nothing")
	}
	if checkMappedValid(mapped, valid+1) == nil {
		t.Fatal("a valid page without a mapping went unnoticed")
	}
}

func TestCheckWindows(t *testing.T) {
	// 0.05 × 12000 = 600-page windows: 6100 writes close 10.
	if err := checkWindows(10, 6100, 0.05, 12000); err != nil {
		t.Fatal(err)
	}
	for _, w := range []uint64{9, 11} {
		if checkWindows(w, 6100, 0.05, 12000) == nil {
			t.Fatalf("%d windows accepted", w)
		}
	}
}

func TestCheckF1(t *testing.T) {
	if err := checkF1(0.8, 90, 100); err != nil {
		t.Fatal(err)
	}
	for _, f1 := range []float64{0, -0.1, 1.0001, math.NaN()} {
		if checkF1(f1, 90, 100) == nil {
			t.Fatalf("f1 %v accepted", f1)
		}
	}
	if checkF1(0.8, 101, 100) == nil {
		t.Fatal("a confusion total above the predictions accepted")
	}
}

func TestCheckBelowClosedForm(t *testing.T) {
	sf := 0.1
	bound := closedFormWA(sf) // 4.5
	if bound != 4.5 {
		t.Fatalf("closed form at 0.1 = %v, want 4.5", bound)
	}
	if err := checkBelowClosedForm(1.2, sf); err != nil {
		t.Fatal(err)
	}
	if checkBelowClosedForm(bound, sf) == nil {
		t.Fatal("wa at the closed form accepted")
	}
	if checkBelowClosedForm(1.2, 0) == nil {
		t.Fatal("a zero spare factor accepted")
	}
}

func TestCheckSameCell(t *testing.T) {
	a := cellSummary{WA: 1.25, UserWrites: 100, GCVictims: 7, Predictions: 3}
	if err := checkSameCell("x", a, a); err != nil {
		t.Fatal(err)
	}
	b := a
	b.WA = math.Nextafter(a.WA, 2)
	if checkSameCell("x", a, b) == nil {
		t.Fatal("a one-ulp WA difference went unnoticed")
	}
	b = a
	b.GCVictims++
	if checkSameCell("x", a, b) == nil {
		t.Fatal("an extra GC victim went unnoticed")
	}
}

func TestCheckSameWA(t *testing.T) {
	a := map[string]float64{"x": 1, "y": 2}
	if err := checkSameWA(a, map[string]float64{"x": 1, "y": 2}); err != nil {
		t.Fatal(err)
	}
	if checkSameWA(a, map[string]float64{"x": 1, "y": 2.5}) == nil {
		t.Fatal("a changed cell WA went unnoticed")
	}
	if checkSameWA(a, map[string]float64{"x": 1}) == nil {
		t.Fatal("a missing cell went unnoticed")
	}
}

func TestCheckAllDone(t *testing.T) {
	if err := checkAllDone(map[string]string{"a": "done", "b": "done"}); err != nil {
		t.Fatal(err)
	}
	if checkAllDone(map[string]string{"a": "done", "b": "failed"}) == nil {
		t.Fatal("a failed cell went unnoticed")
	}
}

// servedFleet builds the /api/v1/fleet document a registry serves after the
// given final WAs were published.
func servedFleet(t *testing.T, finalWA map[string][]float64) httpd.FleetJSON {
	t.Helper()
	reg := registry.New()
	n := 0
	for scheme, was := range finalWA {
		for _, wa := range was {
			n++
			c := reg.OpenCell(scheme+string(rune('a'+n)), registry.CellMeta{Trace: "#1", Scheme: scheme})
			c.PublishFinalWA(wa)
		}
	}
	_, schemes := reg.FleetWA()
	var doc httpd.FleetJSON
	for _, s := range schemes {
		d := func(w registry.WADist) httpd.DistJSON {
			opt := func(v float64) *float64 { return &v }
			return httpd.DistJSON{Count: w.Count, P50: opt(w.P50), P90: opt(w.P90), P99: opt(w.P99), Max: opt(w.Max)}
		}
		doc.Schemes = append(doc.Schemes, httpd.FleetSchemeJSON{Scheme: s.Scheme, FinalWA: d(s.FinalWA)})
	}
	return doc
}

func TestCheckFleetPercentiles(t *testing.T) {
	finalWA := map[string][]float64{"Base": {1.2, 0.4, 0.9, 1.6}, "2R": {0.3, 0.35}}
	doc := servedFleet(t, finalWA)
	if err := checkFleetPercentiles(doc, finalWA); err != nil {
		t.Fatal(err)
	}
	*doc.Schemes[0].FinalWA.P90 += 1e-9
	if checkFleetPercentiles(doc, finalWA) == nil {
		t.Fatal("a perturbed p90 went unnoticed")
	}
	if checkFleetPercentiles(servedFleet(t, finalWA), map[string][]float64{"Base": finalWA["Base"]}) == nil {
		t.Fatal("an extra served scheme went unnoticed")
	}
}

func TestCheckDrainOnce(t *testing.T) {
	seqs := func(from, to uint64) []uint64 {
		var s []uint64
		for q := from; q <= to; q++ {
			s = append(s, q)
		}
		return s
	}
	if err := checkDrainOnce(seqs(1, 50), 1, 50); err != nil {
		t.Fatal(err)
	}
	// Events overwritten before a drain reached them are no longer retained.
	lost := append(seqs(1, 10), seqs(30, 50)...)
	if err := checkDrainOnce(lost, 30, 50); err != nil {
		t.Fatal(err)
	}
	twice := append(seqs(1, 25), seqs(25, 50)...)
	if checkDrainOnce(twice, 1, 50) == nil {
		t.Fatal("a sequence delivered twice went unnoticed")
	}
	hole := append(seqs(1, 24), seqs(26, 50)...)
	if checkDrainOnce(hole, 1, 50) == nil {
		t.Fatal("a retained sequence never delivered went unnoticed")
	}
	if checkDrainOnce(seqs(1, 49), 1, 50) == nil {
		t.Fatal("an undelivered newest sequence went unnoticed")
	}
}

// TestStoredEvents pins the independent count of ring-stored events against
// what the registry's ring actually assigned.
func TestStoredEvents(t *testing.T) {
	reg := registry.New()
	for i, name := range []string{"a", "b"} {
		c := reg.OpenCell(name, registry.CellMeta{Trace: "#1", Scheme: "PHFTL"})
		for j := 0; j < 37+i; j++ {
			c.Record(obs.Event{Kind: obs.KindMetaCacheHit})
		}
		for j := 0; j < 5; j++ {
			c.Record(obs.Event{Kind: obs.KindGCStart})
			c.Record(obs.Event{Kind: obs.KindMetaCacheMiss})
		}
	}
	evs, _ := reg.EventsSince(0, 0, 1<<20)
	if got, want := storedEvents(reg.Snapshot()), evs[len(evs)-1].Seq; got != want {
		t.Fatalf("storedEvents = %d, ring's newest seq %d", got, want)
	}
}

func TestCheckExposition(t *testing.T) {
	reg := registry.New()
	reg.OpenCell("#1/Base@j1", registry.CellMeta{Trace: "#1", Scheme: "Base"}).Record(obs.Event{Kind: obs.KindGCEnd})
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := httpd.CheckExposition(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	bad := bytes.Replace(buf.Bytes(), []byte("} 1\n"), []byte("} one\n"), 1)
	if bytes.Equal(bad, buf.Bytes()) {
		t.Fatal("no sample value to perturb")
	}
	if httpd.CheckExposition(bytes.NewReader(bad)) == nil {
		t.Fatal("a non-numeric sample value went unnoticed")
	}
}

func TestLineSeq(t *testing.T) {
	line := obs.AppendJSONSeq(nil, 4242, obs.Event{Kind: obs.KindGCEnd}, "#1/Base@j1")
	if seq, err := lineSeq(line); err != nil || seq != 4242 {
		t.Fatalf("lineSeq = %d, %v", seq, err)
	}
	if _, err := lineSeq([]byte(`{"ev":"gc_end"}`)); err == nil {
		t.Fatal("a line without seq accepted")
	}
}

func TestPagesOfMatchesExpander(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	e := trace.NewExpander(4096, 1<<20)
	for i := 0; i < 2000; i++ {
		r := trace.Record{Op: trace.OpWrite, Offset: uint64(rng.Intn(1 << 24)), Size: uint32(rng.Intn(40000))}
		var n uint64
		_ = e.Expand(r, func(trace.PageOp) error { n++; return nil })
		if got := pagesOf(r, 4096); got != n {
			t.Fatalf("%+v: pagesOf %d, expander %d", r, got, n)
		}
	}
}
