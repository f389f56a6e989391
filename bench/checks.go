package main

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/phftl/phftl/internal/ftl"
	"github.com/phftl/phftl/internal/metrics"
	"github.com/phftl/phftl/internal/nand"
	"github.com/phftl/phftl/internal/obs/httpd"
)

// Each check compares a program output with an independent computation or a
// property the output must have. They are pure functions of the figures, so
// checks_test.go can show each one failing on a perturbed value.

// checkDeviceWA recomputes write amplification from the NAND device's
// program count and compares it with the FTL's own figure.
func checkDeviceWA(devPrograms, userWrites uint64, ftlWA float64) error {
	if want := metrics.WriteAmp(devPrograms, userWrites); want != ftlWA {
		return fmt.Errorf("FTL wa %v, device programs give %v", ftlWA, want)
	}
	return nil
}

// checkUserWrites compares the FTL's user page writes with the write page
// ops the benchmark handed to the program.
func checkUserWrites(issued, ftlUser uint64) error {
	if issued != ftlUser {
		return fmt.Errorf("issued %d write page ops, FTL counted %d user writes", issued, ftlUser)
	}
	return nil
}

// checkMappedValid compares the count of mapped LPNs with the count of valid
// data pages.
func checkMappedValid(mapped, valid int) error {
	if mapped != valid {
		return fmt.Errorf("%d mapped LPNs but %d valid data pages", mapped, valid)
	}
	return nil
}

// mappedAndValid counts the FTL's mapped LPNs and the valid data pages over
// every superblock.
func mappedAndValid(f *ftl.FTL) (mapped, valid int) {
	for lpn := 0; lpn < f.ExportedPages(); lpn++ {
		if f.MappedPPN(nand.LPN(lpn)) != nand.InvalidPPN {
			mapped++
		}
	}
	geo := f.Config().Geometry
	for sb := 0; sb < geo.Superblocks(); sb++ {
		valid += f.SuperblockView(sb).Valid
	}
	return mapped, valid
}

// checkFTLState runs the FTL's own invariant check and the mapped-versus-
// valid count.
func checkFTLState(f *ftl.FTL) error {
	if err := f.CheckInvariants(); err != nil {
		return err
	}
	return checkMappedValid(mappedAndValid(f))
}

// checkWindows checks PHFTL's completed training windows against
// ⌊user writes / ⌊windowFrac × exported pages⌋⌋.
func checkWindows(windows, userWrites uint64, windowFrac float64, exported int) error {
	size := uint64(windowFrac * float64(exported))
	if size < 1 {
		size = 1
	}
	if want := userWrites / size; windows != want {
		return fmt.Errorf("%d windows, want %d (%d user writes / window of %d)", windows, want, userWrites, size)
	}
	return nil
}

// checkF1 requires F1 in (0, 1] and a confusion total no larger than the
// number of predictions made.
func checkF1(f1 float64, confusionTotal, predictions uint64) error {
	if !(f1 > 0 && f1 <= 1) {
		return fmt.Errorf("f1 %v outside (0, 1]", f1)
	}
	if confusionTotal > predictions {
		return fmt.Errorf("confusion total %d exceeds %d predictions", confusionTotal, predictions)
	}
	return nil
}

// closedFormWA is Frankie et al.'s uniform-random greedy write amplification
// (1−Sf)/(2Sf) at spare factor sf, in the repository's (F−U)/U convention.
func closedFormWA(sf float64) float64 { return (1 - sf) / (2 * sf) }

// spareFactor is the effective spare factor of an FTL replaying a footprint
// of footprint LPNs: the share of data capacity the footprint leaves free.
func spareFactor(f *ftl.FTL, footprint int) float64 {
	total := float64(f.Config().Geometry.Superblocks() * f.DataPagesPerSB())
	if exp := f.ExportedPages(); exp < footprint {
		footprint = exp
	}
	return (total - float64(footprint)) / total
}

// checkBelowClosedForm requires a skewed workload's WA to stay below the
// uniform-random closed form at the same spare factor: skew only helps GC.
func checkBelowClosedForm(wa, sf float64) error {
	if !(sf > 0 && sf < 1) {
		return fmt.Errorf("spare factor %v outside (0, 1)", sf)
	}
	if bound := closedFormWA(sf); !(wa < bound) {
		return fmt.Errorf("wa %v not below the uniform closed form %v at spare factor %v", wa, bound, sf)
	}
	return nil
}

// cellSummary holds the simulated figures two replays of one cell must agree
// on exactly.
type cellSummary struct {
	WA          float64
	UserWrites  uint64
	GCVictims   uint64
	Predictions uint64
}

// checkSameCell requires two replays of one cell to agree exactly.
func checkSameCell(what string, a, b cellSummary) error {
	if a != b {
		return fmt.Errorf("%s disagree: %+v vs %+v", what, a, b)
	}
	return nil
}

// checkAllDone requires every cell of the campaign to have finished done.
func checkAllDone(states map[string]string) error {
	var bad []string
	for name, st := range states {
		if st != "done" {
			bad = append(bad, name+"="+st)
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("cells not done: %v", bad)
	}
	return nil
}

// checkFleetPercentiles compares the served per-scheme final-WA percentiles
// with an offline recomputation from the per-cell results, fed into the same
// fixed-bucket histogram the registry uses.
func checkFleetPercentiles(doc httpd.FleetJSON, finalWA map[string][]float64) error {
	served := map[string]httpd.DistJSON{}
	for _, s := range doc.Schemes {
		served[s.Scheme] = s.FinalWA
	}
	if len(served) != len(finalWA) {
		return fmt.Errorf("served %d schemes, campaign ran %d", len(served), len(finalWA))
	}
	for scheme, was := range finalWA {
		d, ok := served[scheme]
		if !ok {
			return fmt.Errorf("scheme %s not served", scheme)
		}
		h := metrics.NewHistogram(60, 0.05)
		max := math.Inf(-1)
		for _, wa := range was {
			h.Add(wa)
			max = math.Max(max, wa)
		}
		if d.Count != h.Count() {
			return fmt.Errorf("%s: served count %d, offline %d", scheme, d.Count, h.Count())
		}
		for _, q := range []struct {
			q   float64
			got *float64
		}{{0.50, d.P50}, {0.90, d.P90}, {0.99, d.P99}, {1, d.Max}} {
			want := h.Quantile(q.q)
			if q.q == 1 {
				want = max
			}
			if q.got == nil || *q.got != want {
				return fmt.Errorf("%s: served q%.2f %v, offline %v", scheme, q.q, q.got, want)
			}
		}
	}
	return nil
}

// checkDrainOnce checks an event drain: delivered must be strictly
// increasing (so no sequence arrived twice), and every sequence the ring
// still retains at the end, [oldest, newest], must have been delivered.
func checkDrainOnce(delivered []uint64, oldest, newest uint64) error {
	for i := 1; i < len(delivered); i++ {
		if delivered[i] <= delivered[i-1] {
			return fmt.Errorf("seq %d delivered after %d", delivered[i], delivered[i-1])
		}
	}
	if newest == 0 {
		return errors.New("ring holds no events")
	}
	// delivered is sorted: the retained window must be a contiguous suffix.
	i := sort.Search(len(delivered), func(i int) bool { return delivered[i] >= oldest })
	if got, want := uint64(len(delivered)-i), newest-oldest+1; got != want || (got > 0 && delivered[len(delivered)-1] != newest) {
		return fmt.Errorf("retained seqs [%d, %d]: %d of %d delivered", oldest, newest, got, want)
	}
	return nil
}
