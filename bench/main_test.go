package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/phftl/phftl/internal/obs/httpd"
	"github.com/phftl/phftl/internal/sim"
)

// shortSuite is the benchmark at small sizes, so the command itself stays
// under test.
func shortSuite() suite {
	return suite{
		phftl: cellConfig{trace: "#326", scheme: sim.SchemePHFTL, preDW: 1, timedDW: 1, cellWorkers: 1, parWorkers: 2, streams: 2},
		base:  cellConfig{trace: "#326", scheme: sim.SchemeBase, preDW: 1, timedDW: 2, cellWorkers: 1, parWorkers: 2, streams: 2, closedForm: true},
		fleet: fleetConfig{
			workers: 2,
			groups: [][]httpd.CellSpec{
				{{Trace: "#326", Scheme: "PHFTL", DriveWrites: 1}},
				{
					{Trace: "#326", Scheme: "Base", DriveWrites: 1},
					{Trace: "#144T", Scheme: "SepBIT", DriveWrites: 1},
					{Trace: "#326", Scheme: "2R", DriveWrites: 1, OP: 0.15},
				},
			},
			tick:        5 * time.Millisecond,
			drainTicks:  1,
			scrapeTicks: 4,
			drainLimit:  100,
		},
		minPasses: 1,
	}
}

func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("replays whole cells")
	}
	for _, wl := range workloadNames {
		for _, traced := range []string{"0", "1"} {
			var out, errOut bytes.Buffer
			code := run([]string{"--workload", wl, "--seed", "3", "--seconds", "0.01", "--trace", traced}, &out, &errOut, shortSuite())
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s%s", wl, traced, code, out.String(), errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line: %v", wl, traced, err)
			}
			if len(res) != 4 {
				t.Fatalf("%s trace=%s: result keys %v", wl, traced, res)
			}
			var r resultJSON
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
				t.Fatal(err)
			}
			defs := endToEnd
			if traced == "1" {
				defs = perLayer
			}
			if !r.Correct || r.Attempted == 0 || r.Failed != 0 || len(r.Metrics) != len(defs) {
				t.Fatalf("%s trace=%s: %+v\n%s", wl, traced, r, out.String())
			}
			for _, d := range defs {
				m, ok := r.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Fatalf("%s trace=%s: metric %s = %+v", wl, traced, d.name, m)
				}
				if traced == "0" && !(m.Value > 0) {
					t.Fatalf("%s: end-to-end metric %s = %v", wl, d.name, m.Value)
				}
			}
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "base-gc", "--trace", "2"},
		{"--workload", "base-gc", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut, shortSuite()); code != 2 {
			t.Fatalf("%v: exit %d, want 2", args, code)
		}
		if strings.Contains(out.String(), `"correct"`) {
			t.Fatalf("%v printed a result", args)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists in step with
// what the command reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		listed []struct{ Name, Unit string }
		want   []metricDef
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		if len(c.listed) != len(c.want) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the command reports %d", len(c.listed), len(c.want))
		}
		for i, m := range c.listed {
			if m.Name != c.want[i].name || m.Unit != c.want[i].unit {
				t.Fatalf("metric %d: BENCHMARK.json %s %s, command %s %s", i, m.Name, m.Unit, c.want[i].name, c.want[i].unit)
			}
		}
	}
}
