// Command samuraibench is the repository's end-to-end and per-layer
// benchmark. It runs five named workloads through the program's public
// API in one process — samurai.RunCtx, samurai.GenerateTrace, montecarlo
// importance-sampled sweeps, and the jobd and fabric HTTP handlers on
// loopback servers — checks every output, and prints each metric by name
// with its unit and sample count.
//
// An untraced pass measures the end-to-end metrics. A separate traced
// pass re-runs every op through the benchmark's own recomposition of the
// API from its layers' public calls (or, for the sweeps, through timing
// middleware), bit-compares the outputs with the untraced ones, and
// reports per-layer metrics from the spans it recorded and from deltas
// of the program's obs counters.
//
// The benchmark is a module of its own, so that its tests stay out of
// the repository's. Usage, from the repository root:
//
//	bash cmd/samuraibench/run.sh -seed 1 -o bench_result.json -trace-out bench_trace.json
//	bash cmd/samuraibench/run.sh --workload cell-run --seed 3 --seconds 24 --trace 0
//	go -C cmd/samuraibench run . -workload rare-is -trace 1 -cpuprofile ../../bench_cpu.pprof
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md for the
// workloads, the metrics and how to read the trace in Perfetto.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"samurai/internal/obs"
)

// goldenPath is where -update-golden writes, relative to the repository
// root; the benchmark reads the copy embedded at build time.
const goldenPath = "cmd/samuraibench/testdata/golden.json"

//go:embed testdata/golden.json
var goldenJSON []byte

// config is one invocation's settings.
type config struct {
	workloads    []workload
	seed         uint64
	seconds      float64 // time budget of each timed loop
	minOps       int     // ops each timed loop runs regardless of time
	trace        string  // "0" untraced, "1" traced, "both"
	sizes        sizes
	workdir      string
	repeat       int
	updateGolden bool
	out          string
	traceOut     string
	cpuprofile   string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("samuraibench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("workload", "all", "comma-separated workloads to run, or all: "+workloadNames())
	seed := fs.Uint64("seed", 1, "workload seed; every input derives from it")
	seconds := fs.Float64("seconds", 24, "time budget of each workload's timed loop, s")
	trace := fs.String("trace", "both", "0: untraced pass (end-to-end metrics); 1: traced pass (per-layer metrics); both")
	repeat := fs.Int("repeat", 1, "run this many whole sets and report the spread of each end-to-end metric")
	workdir := fs.String("workdir", ".bench_build", "directory for the sweeps' WAL files (removed after each set-up)")
	out := fs.String("o", "", "write the full result, with provenance, to this JSON file")
	traceOut := fs.String("trace-out", "", "write the traced pass's spans as Chrome trace_event JSON to this file")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the traced pass, labelled by workload and layer")
	update := fs.Bool("update-golden", false, "rewrite "+goldenPath+" from this run (seed 1 only; for changes that alter numerics on purpose)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := config{
		seed: *seed, seconds: *seconds, minOps: 1, trace: *trace, sizes: fullSizes,
		workdir: *workdir, repeat: *repeat, updateGolden: *update,
		out: *out, traceOut: *traceOut, cpuprofile: *cpuprofile,
	}
	var err error
	if cfg.workloads, err = parseWorkloads(*names); err != nil {
		fmt.Fprintln(stderr, "samuraibench:", err)
		return 2
	}
	switch {
	case cfg.trace != "0" && cfg.trace != "1" && cfg.trace != "both":
		err = fmt.Errorf("-trace must be 0, 1 or both, got %q", cfg.trace)
	case cfg.repeat < 1:
		err = fmt.Errorf("-repeat must be at least 1, got %d", cfg.repeat)
	case !(cfg.seconds >= 0):
		err = fmt.Errorf("-seconds must be non-negative, got %v", cfg.seconds)
	case cfg.updateGolden && cfg.seed != 1:
		err = fmt.Errorf("-update-golden pins seed 1; got -seed %d", cfg.seed)
	}
	if err != nil {
		fmt.Fprintln(stderr, "samuraibench:", err)
		return 2
	}
	if cfg.updateGolden {
		cfg.minOps = goldenOps
	}
	res, err := execute(context.Background(), cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "samuraibench:", err)
		return 1
	}
	line, err := json.Marshal(res.line())
	if err != nil {
		fmt.Fprintln(stderr, "samuraibench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var n []string
	for _, w := range workloads {
		n = append(n, w.name)
	}
	return strings.Join(n, ",")
}

func parseWorkloads(list string) ([]workload, error) {
	if list == "all" {
		return workloads, nil
	}
	var out []workload
	seen := map[string]bool{}
	for _, n := range strings.Split(list, ",") {
		w, ok := workloadByName(strings.TrimSpace(n))
		if !ok {
			return nil, fmt.Errorf("unknown workload %q (want %s)", n, workloadNames())
		}
		if !seen[w.name] {
			seen[w.name] = true
			out = append(out, w)
		}
	}
	return out, nil
}

// result is the whole invocation's outcome, written by -o.
type result struct {
	RunInfo   obs.RunInfo      `json:"run_info"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Sets      [][]*phaseResult `json:"sets"`
	Spread    []spreadRow      `json:"spread,omitempty"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	single    bool             // one workload: metric keys carry no @workload
}

// spreadRow summarises one end-to-end metric of one workload over the
// sets of a -repeat run.
type spreadRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Median   float64 `json:"median"`
	Q1       float64 `json:"q1"`
	Q3       float64 `json:"q3"`
	// Spread is (max − min) / median over the sets.
	Spread float64 `json:"spread"`
	Bound  float64 `json:"bound"`
	Noisy  bool    `json:"noisy"` // Spread exceeds Bound
}

// execute runs cfg.repeat sets and writes the requested files.
func execute(ctx context.Context, cfg config, stderr io.Writer) (*result, error) {
	runtime.GOMAXPROCS(goThreads)
	var golden map[string][]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return nil, fmt.Errorf("embedded golden digests: %w", err)
	}
	r := &runner{cfg: cfg, golden: golden}
	rec := newRecorder()
	res := &result{RunInfo: obs.Info(cfg.seed, ""), Seed: cfg.seed, Seconds: cfg.seconds, single: len(cfg.workloads) == 1}
	for i := 0; i < cfg.repeat; i++ {
		set, err := r.set(ctx, rec)
		if err != nil {
			return nil, err
		}
		res.Sets = append(res.Sets, set)
	}
	for _, set := range res.Sets {
		for _, p := range set {
			res.Attempted += p.Attempted
			res.Failed += p.Failed
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if cfg.repeat > 1 {
		res.Spread = spreads(res.Sets)
	}
	printTable(stderr, res)
	if cfg.updateGolden {
		if err := writeGolden(res.Sets[0]); err != nil {
			return nil, err
		}
	}
	if cfg.traceOut != "" {
		spans := rec.spans(0)
		table := map[string]map[string]float64{}
		for _, p := range res.Sets[len(res.Sets)-1] {
			if p.SelfSecs != nil {
				table[p.Workload] = p.SelfSecs
			}
		}
		if err := writeFile(cfg.traceOut, func(w io.Writer) error { return writeChrome(w, spans, table) }); err != nil {
			return nil, err
		}
	}
	if cfg.out != "" {
		if err := writeFile(cfg.out, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(res)
		}); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// set runs every selected workload once: untraced pass, then traced.
func (r *runner) set(ctx context.Context, rec *recorder) ([]*phaseResult, error) {
	var out []*phaseResult
	for _, w := range r.cfg.workloads {
		if r.cfg.trace != "1" {
			p, err := r.untraced(ctx, w)
			if err != nil {
				return nil, err
			}
			out = append(out, p)
		}
	}
	if r.cfg.trace != "0" {
		stop, err := startProfile(r.cfg.cpuprofile)
		if err != nil {
			return nil, err
		}
		for _, w := range r.cfg.workloads {
			p, err := r.traced(ctx, w, rec)
			if err != nil {
				return nil, errors.Join(err, stop())
			}
			out = append(out, p)
		}
		if err := stop(); err != nil {
			return nil, err
		}
	}
	crossCheckSweeps(out)
	return out, nil
}

// crossCheckSweeps compares the job results of sweep-service and
// sweep-fabric op by op when one set ran both: single-node and
// distributed sweeps must agree bit for bit.
func crossCheckSweeps(phases []*phaseResult) {
	for _, a := range phases {
		if a.Workload != "sweep-service" {
			continue
		}
		for _, b := range phases {
			if b.Workload != "sweep-fabric" || b.Mode != a.Mode {
				continue
			}
			for k := 0; k < len(a.Digests) && k < len(b.Digests); k++ {
				if a.Digests[k] != b.Digests[k] {
					b.fail("job %d: fabric digest %s, service digest %s", k, b.Digests[k], a.Digests[k])
				}
			}
		}
	}
}

// startProfile starts the CPU profile of the traced pass, if requested,
// and returns the function that stops it.
func startProfile(path string) (func() error, error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		return nil, errors.Join(err, f.Close())
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// writeFile writes path through fn, reporting the first error.
func writeFile(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		return errors.Join(fmt.Errorf("writing %s: %w", path, err), f.Close())
	}
	return f.Close()
}

// writeGolden records the untraced digests of the first goldenOps ops of
// each workload, keeping the entries of workloads this run skipped.
func writeGolden(set []*phaseResult) error {
	var golden map[string][]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return err
	}
	for _, p := range set {
		w, _ := workloadByName(p.Workload)
		if p.Mode == "untraced" || golden[w.goldenKey] == nil {
			golden[w.goldenKey] = p.Digests
		}
	}
	return writeFile(goldenPath, func(wr io.Writer) error {
		enc := json.NewEncoder(wr)
		enc.SetIndent("", "  ")
		return enc.Encode(golden)
	})
}

// line is the one-line summary printed last: every metric's value and
// unit, medians over sets when -repeat ran several. Metric keys carry an
// @workload suffix when more than one workload ran.
func (res *result) line() any {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals := map[string][]float64{}
	units := map[string]string{}
	for _, set := range res.Sets {
		for _, p := range set {
			for _, name := range sortedKeys(p.Metrics) {
				if _, known := metricByName(name); !known {
					continue
				}
				key := name
				if !res.single {
					key += "@" + p.Workload
				}
				vals[key] = append(vals[key], p.Metrics[name].Value)
				units[key] = p.Metrics[name].Unit
			}
		}
	}
	metrics := map[string]metric{}
	for _, k := range sortedKeys(vals) {
		metrics[k] = metric{quantile(vals[k], 0.5), units[k]}
	}
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics}
}

// spreads computes the -repeat summary of every end-to-end metric.
func spreads(sets [][]*phaseResult) []spreadRow {
	type key struct{ w, m string }
	vals := map[key][]float64{}
	var order []key
	for _, set := range sets {
		for _, p := range set {
			if p.Mode != "untraced" {
				continue
			}
			for _, d := range endToEnd {
				k := key{p.Workload, d.Name}
				if _, ok := vals[k]; !ok {
					order = append(order, k)
				}
				vals[k] = append(vals[k], p.Metrics[d.Name].Value)
			}
		}
	}
	var rows []spreadRow
	for _, k := range order {
		d, _ := metricByName(k.m)
		v := append([]float64(nil), vals[k]...)
		sort.Float64s(v)
		med := quantile(v, 0.5)
		row := spreadRow{
			Workload: k.w, Metric: k.m, Unit: d.Unit, Median: med,
			Q1: quantile(v, 0.25), Q3: quantile(v, 0.75),
			Spread: ratio(v[len(v)-1]-v[0], med), Bound: d.Bound,
		}
		row.Noisy = row.Spread > row.Bound
		rows = append(rows, row)
	}
	return rows
}

// printTable writes every metric of every pass, with unit and sample
// count, and the -repeat spread table.
func printTable(w io.Writer, res *result) {
	for i, set := range res.Sets {
		for _, p := range set {
			fmt.Fprintf(w, "set %d  %-13s %-8s ops %d  failed %d\n", i+1, p.Workload, p.Mode, p.Attempted, p.Failed)
			for _, n := range sortedKeys(p.Metrics) {
				v := p.Metrics[n]
				fmt.Fprintf(w, "    %-30s %14.6g %-6s n=%d\n", n, v.Value, v.Unit, v.Samples)
			}
		}
	}
	if len(res.Spread) > 0 {
		fmt.Fprintf(w, "%-13s %-13s %12s %12s %12s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound")
		for _, r := range res.Spread {
			flag := ""
			if r.Noisy {
				flag = "  NOISY: spread exceeds bound"
			}
			fmt.Fprintf(w, "%-13s %-13s %12.6g %12.6g %12.6g %7.1f%% %5.0f%%%s\n",
				r.Workload, r.Metric, r.Median, r.Q1, r.Q3, 100*r.Spread, 100*r.Bound, flag)
		}
	}
}
