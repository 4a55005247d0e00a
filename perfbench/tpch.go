package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"hyrise/internal/pipeline"
	"hyrise/internal/rowengine"
	"hyrise/internal/statistics"
	"hyrise/internal/storage"
	"hyrise/internal/tpch"
)

// tpchScale is the TPC-H scale factor of both TPC-H workloads. It is set so
// that a pass of all 22 queries takes well under a tenth of a run, and the
// row-engine reference of a new seed takes seconds, not minutes.
const tpchScale = 0.02

// buildDir holds everything the benchmark writes, relative to the
// repository root it runs from.
const buildDir = ".bench_build"

// queryResult is one query's rows rendered as text.
type queryResult struct {
	Rows [][]string `json:"rows"`
}

func generateTPCH(sm *storage.StorageManager, seed int64) error {
	return tpch.Generate(sm, tpch.Config{
		ScaleFactor: tpchScale, ChunkSize: storage.DefaultChunkSize, UseMvcc: true, Seed: derive(seed, streamTPCH),
	})
}

// tpchRun is one TPC-H workload run: one engine, one session.
type tpchRun struct {
	session  *pipeline.Session
	queries  map[int]string
	expected map[int]queryResult
	rep      *report
	perQuery map[int][]float64 // untraced latencies in ms
}

type phase int

const (
	warmup phase = iota
	untraced
	traced
)

// runTPCH runs the 22 TPC-H queries back to back on one session, serially
// or with the node-queue scheduler at one worker per CPU.
func runTPCH(cfg runConfig, scheduler bool) (*report, error) {
	expected, err := tpchReference(cfg.seed)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	start := time.Now()
	ecfg := pipeline.DefaultConfig()
	if scheduler {
		ecfg.UseScheduler = true
		ecfg.SchedulerWorkers = runtime.NumCPU()
	}
	engine := pipeline.NewEngine(ecfg, nil)
	defer engine.Close()
	sm := engine.StorageManager()
	if err := generateTPCH(sm, cfg.seed); err != nil {
		return nil, err
	}
	if err := tpch.EncodeAndFilter(sm, tpch.DefaultEncoding()); err != nil {
		return nil, err
	}
	t := &tpchRun{
		session: engine.NewSession(), queries: tpch.Queries(tpchScale), expected: expected,
		rep: rep, perQuery: map[int][]float64{},
	}
	// The warm-up pass builds statistics and fills the plan cache, so that
	// work lands in set-up, not in the first measured pass.
	t.pass(warmup, nil, nil)
	rep.setups = append(rep.setups, time.Since(start))
	rep.context = engineContext(engine, map[string]string{
		"scale_factor": fmt.Sprint(tpchScale),
		"encoding":     tpch.DefaultEncoding().String(),
		"chunk_size":   fmt.Sprint(storage.DefaultChunkSize),
		"sync_mode":    "none (no data directory)",
	}, engine.Scheduler().WorkerCount())

	layers := newLayerRun()
	if err := measure(cfg, rep, layers, func(p phase) (time.Duration, error) {
		watch, endPass, err := layers.begin(p, engine)
		if err != nil {
			return 0, err
		}
		defer endPass()
		return t.pass(p, layers, watch), nil
	}); err != nil {
		return nil, err
	}
	rep.dataBytes = tableBytes(sm)
	own := map[string]float64{}
	for n, ms := range t.perQuery {
		own[fmt.Sprintf("tpch.q%02d_ms", n)] = median(ms)
	}
	finishLayers(rep, layers, own)
	return rep, nil
}

// pass runs every query once, checks each result against the reference,
// and returns the summed query time (checking is not timed).
func (t *tpchRun) pass(p phase, layers *layerRun, watch *statsWatch) time.Duration {
	var total time.Duration
	for _, n := range tpch.QueryNumbers() {
		var before []*statistics.TableStatistics
		if p == traced {
			before = watch.snapshot()
		}
		start := time.Now()
		res, err := t.session.ExecuteOne(t.queries[n])
		d := time.Since(start)
		total += d
		switch p {
		case untraced:
			t.perQuery[n] = append(t.perQuery[n], float64(d.Nanoseconds())/1e6)
			t.rep.latencies = append(t.rep.latencies, d)
		case traced:
			layers.units++
			layers.around += d
			layers.rebuilds += rebuilt(before, watch.snapshot())
		}
		if err == nil && !sameResult(pipeline.RowStrings(res.Table), t.expected[n].Rows) {
			err = errors.New("result differs from the row-engine reference")
		}
		if err != nil {
			err = fmt.Errorf("Q%d: %w", n, err)
		}
		t.rep.check(err)
	}
	return total
}

// tpchReference returns the expected results of the 22 queries on the
// data of seed. They come from internal/rowengine, an independent
// row-at-a-time executor, so both TPC-H lanes are checked against the same
// set. A child process computes them once per seed and caches them under
// buildDir, which keeps the reference's time and memory out of every
// measurement.
func tpchReference(seed int64) (map[int]queryResult, error) {
	path := filepath.Join(buildDir, "tpch-reference", fmt.Sprintf("sf%g-seed%d.json", tpchScale, seed))
	if _, err := os.Stat(path); err != nil {
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(exe, "--reference", path, "--seed", fmt.Sprint(seed))
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("compute TPC-H reference: %w", err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[int]queryResult{}
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(out) != len(tpch.QueryNumbers()) {
		return nil, fmt.Errorf("%s holds %d results, want %d", path, len(out), len(tpch.QueryNumbers()))
	}
	return out, nil
}

// writeTPCHReference runs the 22 queries on the row engine and writes the
// results to path.
func writeTPCHReference(path string, seed int64) error {
	sm := storage.NewStorageManager()
	if err := generateTPCH(sm, seed); err != nil {
		return err
	}
	rows := rowengine.NewFromStorage(sm)
	queries := tpch.Queries(tpchScale)
	out := map[int]queryResult{}
	for _, n := range tpch.QueryNumbers() {
		vals, _, err := rows.Query(queries[n])
		if err != nil {
			return fmt.Errorf("row engine Q%d: %w", n, err)
		}
		r := queryResult{Rows: make([][]string, len(vals))}
		for i, row := range vals {
			r.Rows[i] = make([]string, len(row))
			for j, v := range row {
				r.Rows[i][j] = v.String()
			}
		}
		out[n] = r
	}
	raw, err := json.Marshal(out)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := fmt.Sprintf("%s.%d.tmp", path, os.Getpid())
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// sameResult compares rows in order, cell by cell, with numbers equal within
// a relative 1e-6 (the engines sum floats in different orders). The TPC-H
// queries order by unique keys, so the row order is checked too.
func sameResult(got, want [][]string) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return false
		}
		for j := range got[i] {
			if !sameCell(got[i][j], want[i][j]) {
				return false
			}
		}
	}
	return true
}

func sameCell(a, b string) bool {
	if a == b {
		return true
	}
	x, errA := strconv.ParseFloat(a, 64)
	y, errB := strconv.ParseFloat(b, 64)
	if errA != nil || errB != nil {
		return false
	}
	return math.Abs(x-y) <= 1e-6*math.Max(math.Max(math.Abs(x), math.Abs(y)), 1e-3)
}
