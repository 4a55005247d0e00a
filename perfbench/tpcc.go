package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"hyrise/internal/concurrency"
	"hyrise/internal/pipeline"
	"hyrise/internal/statistics"
	"hyrise/internal/tpcc"
)

// A TPC-C pass is a fixed number of transactions per terminal on freshly
// generated data, so both commits of a comparison run the same transactions
// against identically growing tables however fast they are.
const (
	tpccTerminals  = 2
	tpccMaxRetries = 100
)

// The mix of one terminal's pass, as a deck the seed shuffles (TPC-C deals
// its mix from a deck too): a fixed composition keeps the work of a pass
// the same for every seed. The warm-up deals one of each.
var (
	tpccMix    = []int{newOrder: 45, payment: 43, orderStatus: 12}
	tpccWarmup = []int{newOrder: 1, payment: 1, orderStatus: 1}
)

const (
	newOrder = iota
	payment
	orderStatus
)

func tpccConfig(seed int64) tpcc.Config {
	c := tpcc.DefaultConfig()
	c.Items = 10_000
	c.CustomersPerDistrict = 300
	c.InitialOrders = 300
	c.Seed = derive(seed, streamTPCCData)
	return c
}

type tpccRun struct {
	seed   int64
	cfg    tpcc.Config
	rep    *report
	layers *layerRun
}

func runTPCC(cfg runConfig) (*report, error) {
	w := &tpccRun{seed: cfg.seed, cfg: tpccConfig(cfg.seed), rep: &report{}, layers: newLayerRun()}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	if err := measure(cfg, w.rep, w.layers, w.round); err != nil {
		return nil, err
	}
	no := sortedMillis(w.rep.latencies)
	finishLayers(w.rep, w.layers, map[string]float64{
		"tpcc.neworder_p50_ms": reported(no, 0.5),
		"tpcc.neworder_p95_ms": reported(no, 0.95),
	})
	return w.rep, nil
}

// round generates the data, checkpoints it into a fresh data directory,
// warms up with one terminal, runs the terminals concurrently, and checks
// the database's consistency. It returns the terminals' wall time.
func (w *tpccRun) round(p phase) (time.Duration, error) {
	// Return the previous pass's memory, so peak RSS measures one pass.
	debug.FreeOSMemory()
	dir, err := os.MkdirTemp(buildDir, "tpcc-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	start := time.Now()
	ecfg := pipeline.DefaultConfig()
	ecfg.DataDir = dir
	ecfg.SyncMode = "commit"
	engine, err := pipeline.NewEngineErr(ecfg, nil)
	if err != nil {
		return 0, err
	}
	defer engine.Close()
	if err := tpcc.Generate(engine.StorageManager(), w.cfg); err != nil {
		return 0, err
	}
	if err := engine.Checkpoint(); err != nil {
		return 0, err
	}
	warm := w.terminal(engine, -1, tpccWarmup, nil)
	w.rep.attempted += warm.committed + warm.failed
	w.rep.failed += warm.failed
	w.rep.setups = append(w.rep.setups, time.Since(start))
	if w.rep.context == nil {
		w.rep.context = engineContext(engine, map[string]string{
			"warehouses":    fmt.Sprint(w.cfg.Warehouses),
			"items":         fmt.Sprint(w.cfg.Items),
			"customers":     fmt.Sprint(w.cfg.CustomersPerDistrict),
			"terminals":     fmt.Sprint(tpccTerminals),
			"transactions":  fmt.Sprint(tpccTerminals * total(tpccMix)),
			"sync_mode":     ecfg.SyncMode,
			"flush_policy":  "default group commit",
			"conflict_rule": "retried until commit",
		}, tpccTerminals)
	}

	watch, endPass, err := w.layers.begin(p, engine)
	if err != nil {
		return 0, err
	}
	stats := make([]terminalStats, tpccTerminals)
	var wg sync.WaitGroup
	runStart := time.Now()
	for i := range stats {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stats[i] = w.terminal(engine, i, tpccMix, watch)
		}(i)
	}
	wg.Wait()
	wall := time.Since(runStart)
	endPass()

	for _, s := range stats {
		w.rep.attempted += s.committed + s.failed
		w.rep.failed += s.failed
		w.layers.attempts += s.attempts
		w.layers.aborts += s.aborts
		if p == traced {
			w.layers.units += s.committed
			w.layers.commits += s.committed
			w.layers.around += s.around
			w.layers.rebuilds += s.rebuilds
		} else {
			w.rep.latencies = append(w.rep.latencies, s.newOrder...)
		}
	}
	tpccConsistency(engine, w.cfg.Warehouses*w.cfg.DistrictsPerWarehouse, w.rep)
	w.rep.dataBytes = tableBytes(engine.StorageManager())
	return wall, nil
}

// terminalStats is what one terminal did in one round.
type terminalStats struct {
	committed, failed int64
	attempts, aborts  int64
	newOrder          []time.Duration // New-Order latencies, retries included
	around            time.Duration
	rebuilds          int64
}

// terminal runs the transactions of mix in a seeded order. A transaction
// that hits a serialization conflict is retried, with backoff, until it
// commits; any other error fails it. Terminal id -1 is the warm-up terminal.
func (w *tpccRun) terminal(e *pipeline.Engine, id int, mix []int, watch *statsWatch) terminalStats {
	term := tpcc.NewTerminal(e, w.cfg, derive(w.seed, streamTPCCTerminal+int64(id)))
	rng := rand.New(rand.NewSource(derive(w.seed, streamTPCCMix+int64(id))))
	var s terminalStats
	for _, kind := range deck(rng, mix) {
		var before []*statistics.TableStatistics
		if watch != nil {
			before = watch.snapshot()
		}
		start := time.Now()
		var err error
		backoff := 100 * time.Microsecond
		for try := 0; ; try++ {
			s.attempts++
			switch kind {
			case newOrder:
				err = term.NewOrder()
			case payment:
				err = term.Payment()
			case orderStatus:
				err = term.OrderStatus()
			}
			if !isConflict(err) || try == tpccMaxRetries {
				break
			}
			s.aborts++
			// A conflicting commit may still be waiting for its WAL sync;
			// back off so the retry sees it published.
			time.Sleep(backoff)
			backoff = min(2*backoff, 10*time.Millisecond)
		}
		d := time.Since(start)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tpcc terminal %d: %v (gave up after %v)\n", id, err, d)
			s.failed++
			continue
		}
		s.committed++
		if kind == newOrder {
			s.newOrder = append(s.newOrder, d)
		}
		if watch != nil {
			s.around += d
			s.rebuilds += rebuilt(before, watch.snapshot())
		}
	}
	return s
}

func isConflict(err error) bool {
	return err != nil && (errors.Is(err, concurrency.ErrConflict) || strings.Contains(err.Error(), "conflict"))
}

// tpccConsistency checks the TPC-C consistency conditions the mix can
// break: per district, d_next_o_id − 1 equals max(o_id), and the number of
// order lines equals the sum of o_ol_cnt.
func tpccConsistency(e *pipeline.Engine, districts int, rep *report) {
	s := e.NewSession()
	query := func(sql string) [][]string {
		res, err := s.ExecuteOne(sql)
		if err != nil {
			rep.check(fmt.Errorf("tpcc consistency: %w", err))
			return nil
		}
		return pipeline.RowStrings(res.Table)
	}
	maxOID := map[string]string{}
	for _, r := range query("SELECT o_w_id, o_d_id, max(o_id) FROM orders GROUP BY o_w_id, o_d_id") {
		maxOID[r[0]+"/"+r[1]] = r[2]
	}
	seen := 0
	for _, r := range query("SELECT d_w_id, d_id, d_next_o_id FROM district") {
		seen++
		next, err := strconv.ParseInt(r[2], 10, 64)
		if err == nil && maxOID[r[0]+"/"+r[1]] != strconv.FormatInt(next-1, 10) {
			err = fmt.Errorf("district %s/%s: d_next_o_id %s, max(o_id) %s", r[0], r[1], r[2], maxOID[r[0]+"/"+r[1]])
		}
		rep.check(err)
	}
	if seen != districts {
		rep.check(fmt.Errorf("tpcc consistency: %d districts, want %d", seen, districts))
	}
	lines, olCnt := query("SELECT count(*) FROM order_line"), query("SELECT sum(o_ol_cnt) FROM orders")
	if len(lines) != 1 || len(olCnt) != 1 || !sameCell(lines[0][0], olCnt[0][0]) {
		rep.check(fmt.Errorf("tpcc consistency: order_line count %v, sum(o_ol_cnt) %v", lines, olCnt))
	} else {
		rep.check(nil)
	}
}

// deck returns the card values of counts (counts[v] cards of value v) in an
// order shuffled by rng.
func deck(rng *rand.Rand, counts []int) []int {
	var cards []int
	for v, n := range counts {
		for i := 0; i < n; i++ {
			cards = append(cards, v)
		}
	}
	rng.Shuffle(len(cards), func(i, j int) { cards[i], cards[j] = cards[j], cards[i] })
	return cards
}

func total(counts []int) int {
	n := 0
	for _, c := range counts {
		n += c
	}
	return n
}
