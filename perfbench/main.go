// Command perfbench is the repository's end-to-end benchmark. It drives the
// engine only through its public entry points — pipeline sessions, the
// pgwire server with pgclient connections, the metrics registry, the
// statement statistics and the trace sink — and prints one JSON result as
// the last line of its standard output:
//
//	perfbench --workload tpch --seed 1 --seconds 10 --trace 0
//
// BENCHMARK.json (read from the working directory) names the workloads, why
// each was chosen, and the metrics with their units. With --trace 0 the run
// measures untraced and prints the end-to-end metrics. With --trace 1 it
// runs an untraced phase and then a traced phase of --seconds each, and
// prints the per-layer metrics: counts, stage and operator times and waits
// from the traced phase, latencies from the untraced one, and the tracing
// overhead as the ratio of the two.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"hyrise/internal/benchmark"
	"hyrise/internal/pipeline"
)

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

// report is what one workload run measured.
type report struct {
	attempted, failed int64
	setups            []time.Duration // one per set-up of the system under test
	passes            []time.Duration // untraced passes over the workload's fixed work
	tracedPasses      []time.Duration // the same passes with the trace sink installed
	latencies         []time.Duration // untraced latencies of the main request: a TPC-H query, a TPC-C New-Order, a pgwire point read
	dataBytes         int64           // Table.MemoryUsage summed at the end of the run
	layer             map[string]float64
	context           map[string]string
}

// check counts one checked operation; a non-nil err fails it.
func (r *report) check(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintln(os.Stderr, "check failed:", err)
	}
}

var workloads = map[string]func(runConfig) (*report, error){
	"tpch":       func(c runConfig) (*report, error) { return runTPCH(c, false) },
	"tpch-sched": func(c runConfig) (*report, error) { return runTPCH(c, true) },
	"tpcc":       runTPCC,
	"pgwire":     runWire,
}

func main() {
	var (
		workload  = flag.String("workload", "", "workload name from BENCHMARK.json")
		seed      = flag.Int64("seed", 1, "seed every generator and client derives from")
		seconds   = flag.Float64("seconds", 10, "measured seconds per phase")
		trace     = flag.Int("trace", 0, "1: print per-layer metrics from a traced run")
		reference = flag.String("reference", "", "write the TPC-H reference results for --seed to this file and exit")
	)
	flag.Parse()
	if *reference != "" {
		if err := writeTPCHReference(*reference, *seed); err != nil {
			fatal(err)
		}
		return
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	run, ok := workloads[*workload]
	if !ok || !spec.hasWorkload(*workload) {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("want --seconds > 0 and --trace 0 or 1"))
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1}
	rep, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	echoContext(*workload, cfg, rep)

	var values map[string]float64
	var defs []metricDef
	if cfg.trace {
		values, defs = rep.layer, spec.PerLayer
	} else {
		values, defs = endToEnd(rep), spec.EndToEnd
	}
	out := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			fatal(fmt.Errorf("workload %s did not measure %s", *workload, d.Name))
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// Streams of derive: every generator and client draws its seed from the
// run's seed through its own stream.
const (
	streamTPCH         = 1
	streamTPCCData     = 2
	streamTPCCTerminal = 100 // + terminal id, -1 for the warm-up terminal
	streamTPCCMix      = 200 // + terminal id
	streamWireClient   = 300 // + client id
)

// derive returns the seed of one stream (splitmix64 of the run seed and the
// stream), so no two generators or clients share a sequence.
func derive(seed, stream int64) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(stream)*0xD1B54A32D192ED03
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z ^ (z >> 31)) >> 1)
}

// endToEnd derives the end-to-end metrics every workload reports.
func endToEnd(r *report) map[string]float64 {
	lat := sortedMillis(r.latencies)
	p50, _ := quantile(lat, 0.5)
	return map[string]float64{
		"setup_s":        median(seconds(r.setups)),
		"pass_ms":        median(millis(r.passes)),
		"latency_p50_ms": p50,
		"data_mb":        float64(r.dataBytes) / 1e6,
		"peak_rss_mb":    peakRSSMB(),
	}
}

// echoContext prints the run's reproducibility context (paper §2.10) as a
// JSON line and a human-readable summary to standard error.
func echoContext(workload string, cfg runConfig, r *report) {
	ctx := map[string]string{
		"workload":   workload,
		"seed":       fmt.Sprint(cfg.seed),
		"seconds":    fmt.Sprint(cfg.seconds.Seconds()),
		"traced":     fmt.Sprint(cfg.trace),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
	}
	for k, v := range r.context {
		ctx[k] = v
	}
	if line, err := json.Marshal(map[string]any{"context": ctx}); err == nil {
		fmt.Println(string(line))
	}
	fmt.Fprintf(os.Stderr, "%s: %d passes, pass median %.1f ms, setup median %.2f s, %d/%d failed\n",
		workload, len(r.passes), median(millis(r.passes)), median(seconds(r.setups)), r.failed, r.attempted)
	fmt.Fprintf(os.Stderr, "  requests: %s\n", describe(sortedMillis(r.latencies), "ms"))
	fmt.Fprintf(os.Stderr, "  passes ms: %.0f\n", millis(r.passes))
}

// engineContext is benchmark.Context plus the settings this benchmark adds;
// it warns when the load generator asks for more threads than there are CPUs.
func engineContext(e *pipeline.Engine, extra map[string]string, threads int) map[string]string {
	if threads > runtime.NumCPU() {
		fmt.Fprintf(os.Stderr, "warning: %d clients or workers exceed nproc=%d\n", threads, runtime.NumCPU())
	}
	return benchmark.Context(e, extra)
}

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark spec: %w", err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}

func (s *spec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func sortedMillis(ds []time.Duration) []float64 {
	out := millis(ds)
	sort.Float64s(out)
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", strings.TrimSpace(err.Error()))
	os.Exit(1)
}
