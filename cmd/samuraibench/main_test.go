package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"samurai/internal/montecarlo"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the
// tests hold the benchmark to.
type benchmarkSpec struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestBenchmarkJSONMatchesTables pins BENCHMARK.json to the workload and
// metric tables the program reports from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	spec := readBenchmarkSpec(t)
	if len(spec.Paths) != 1 || spec.Paths[0] != "cmd/samuraibench" {
		t.Errorf("paths %v, want [cmd/samuraibench]", spec.Paths)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %+v, benchmark %q: %q", i, w, workloads[i].name, workloads[i].why)
		}
	}
	for _, tc := range []struct{ json, code []metricDef }{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(tc.json) != len(tc.code) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the table %d", len(tc.json), len(tc.code))
		}
		for i, d := range tc.json {
			c := tc.code[i]
			if d.Name != c.Name || d.Unit != c.Unit || d.Better != c.Better || d.Bound != c.Bound {
				t.Errorf("metric %d: BENCHMARK.json %+v, table %+v", i, d, c)
			}
		}
	}
}

// TestQuickAllWorkloads runs every workload, untraced and traced, at tiny
// sizes and checks that every metric BENCHMARK.json names is emitted
// with its unit and a sample count, and that every check passes.
func TestQuickAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	spec := readBenchmarkSpec(t)
	// At seed 5 the quick rare-is pool (16 sweeps of 8 cells) holds two
	// failures, so rare.s_to_ci resolves.
	cfg := config{
		workloads: workloads, seed: 5, minOps: 2, trace: "both",
		sizes: quickSizes, workdir: t.TempDir(), repeat: 1,
	}
	var log bytes.Buffer
	res, err := execute(context.Background(), cfg, &log)
	if err != nil {
		t.Fatalf("%v\n%s", err, log.String())
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("failed %d of %d ops\n%s", res.Failed, res.Attempted, log.String())
	}
	seen := map[string]bool{}
	for _, p := range res.Sets[0] {
		want := spec.EndToEnd
		if p.Mode == "traced" {
			want = spec.PerLayer
		}
		for _, d := range want {
			v, ok := p.Metrics[d.Name]
			switch {
			case !ok:
				t.Errorf("%s %s: metric %s missing", p.Workload, p.Mode, d.Name)
			case v.Unit != d.Unit:
				t.Errorf("%s %s: metric %s unit %q, want %q", p.Workload, p.Mode, d.Name, v.Unit, d.Unit)
			case v.Samples < 1:
				t.Errorf("%s %s: metric %s has no samples", p.Workload, p.Mode, d.Name)
			}
		}
		seen[p.Workload+"/"+p.Mode] = true
	}
	for _, w := range workloads {
		for _, mode := range []string{"untraced", "traced"} {
			if !seen[w.name+"/"+mode] {
				t.Errorf("no %s pass of %s", mode, w.name)
			}
		}
	}
}

// TestGoldenCatchesCorruption shows the golden check detects a wrong
// output: the real digests pass, one flipped digest fails its op.
func TestGoldenCatchesCorruption(t *testing.T) {
	var golden map[string][]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if len(golden[w.goldenKey]) != goldenOps {
			t.Fatalf("testdata/golden.json has %d %s digests, want %d; run with -update-golden", len(golden[w.goldenKey]), w.goldenKey, goldenOps)
		}
	}
	w, _ := workloadByName("cell-run")
	cfg := config{workloads: []workload{w}, seed: 1, minOps: 2, trace: "0", sizes: fullSizes, repeat: 1}

	r := &runner{cfg: cfg, golden: golden}
	p, err := r.untraced(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if p.Failed != 0 {
		t.Fatalf("golden digests fail at seed 1: %v", p.Failures)
	}

	corrupt := map[string][]string{"cell-run": append([]string(nil), golden["cell-run"]...)}
	corrupt["cell-run"][1] = "0000000000000000"
	r = &runner{cfg: cfg, golden: corrupt}
	if p, err = r.untraced(context.Background(), w); err != nil {
		t.Fatal(err)
	}
	if p.Failed != 1 || !strings.Contains(p.Failures[0], "op 1") {
		t.Fatalf("corrupted digest of op 1 not caught: failed %d, %v", p.Failed, p.Failures)
	}
}

// TestRareUnresolvedFails checks that a pool without a single failure
// fails the run instead of reporting a time to the CI.
func TestRareUnresolvedFails(t *testing.T) {
	r := &rareIS{pooled: make([]montecarlo.CellOutcome, 8)}
	m := map[string]float64{}
	err := r.layerMetrics(m, &tracedPass{ops: 1, plain: []float64{1}})
	if err == nil || !strings.Contains(err.Error(), "unresolved") {
		t.Fatalf("p̂ = 0: error %v, want unresolved", err)
	}
	if v, ok := m["rare.s_to_ci"]; ok {
		t.Errorf("p̂ = 0 set rare.s_to_ci = %v", v)
	}
}

// TestLastLine checks the one-line summary the benchmark prints last.
func TestLastLine(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", "cell-run", "--seconds", "0", "--trace", "0", "-workdir", t.TempDir()}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
		t.Fatalf("last line keys: %s", lines[len(lines)-1])
	}
	var metrics map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEnd) {
		t.Errorf("%d metrics, want the %d end-to-end ones", len(metrics), len(endToEnd))
	}
	for _, d := range endToEnd {
		if m, ok := metrics[d.Name]; !ok || m.Unit != d.Unit || !(m.Value > 0) {
			t.Errorf("metric %s: %+v", d.Name, m)
		}
	}
}

// TestSelfTimesOverlappingChildren checks that concurrent children are
// subtracted from their parent as an interval union.
func TestSelfTimesOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "mc", Start: 10, End: 50},
		{ID: 3, Parent: 1, Layer: "mc", Start: 30, End: 70},
		{ID: 4, Parent: 3, Layer: "circuit", Start: 40, End: 60},
	}
	self := selfTimes(spans)
	want := map[string]float64{"op": 40e-9, "mc": 40e-9 + 20e-9, "circuit": 20e-9}
	for layer, w := range want {
		if d := self[layer] - w; d > 1e-18 || d < -1e-18 {
			t.Errorf("%s self %g, want %g", layer, self[layer], w)
		}
	}
}

// TestLanesNestStrictly checks that overlapping siblings get their own
// lane and that children follow their parent's lane.
func TestLanesNestStrictly(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "mc", Start: 10, End: 50},
		{ID: 3, Parent: 1, Layer: "mc", Start: 20, End: 70},
		{ID: 4, Parent: 2, Layer: "circuit", Start: 25, End: 40},
		{ID: 5, Parent: 3, Layer: "circuit", Start: 30, End: 60},
		{ID: 6, Parent: 1, Layer: "mc", Start: 75, End: 90},
	}
	got := lanes(spans)
	want := []int{0, 0, 1, 0, 1, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lanes %v, want %v", got, want)
		}
	}
}
