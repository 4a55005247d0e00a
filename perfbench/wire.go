package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"time"

	"hyrise/internal/concurrency"
	"hyrise/internal/observe"
	"hyrise/internal/pgclient"
	"hyrise/internal/pipeline"
	"hyrise/internal/server"
	"hyrise/internal/statistics"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// A pgwire pass is a fixed number of operations per client against a table
// prefilled with a fixed number of rows, on a fresh server, so the table
// grows by the same writes in every pass.
const (
	wireRows      = 10_000
	wireClients   = 2
	wirePoolReads = 2
	wireScanWidth = 100
	wireScanTexts = 16
)

const (
	pointSQL  = "SELECT id, tag, val FROM kv WHERE id = $1"
	insertSQL = "INSERT INTO kv VALUES ($1, $2, $3)"
)

// The prefilled row of key id.
func wireTag(id int64) string  { return "t" + strconv.FormatInt(id%1000, 10) }
func wireVal(id int64) float64 { return float64(id) / 4 }

// scanSQL is range read i of the fixed set, so every text repeats and hits
// the plan cache after the warm-up.
func scanSQL(i int) string {
	lo := i * (wireRows / wireScanTexts)
	return fmt.Sprintf("SELECT count(*), sum(val) FROM kv WHERE id >= %d AND id < %d", lo, lo+wireScanWidth)
}

type opClass int

const (
	opPoint opClass = iota
	opScan
	opWrite
	numClasses
)

var classNames = [numClasses]string{"point", "scan", "write"}

// wireMix is one client's pass: 75% point reads, 20% range reads and 5%
// writes, dealt in a seeded order.
var wireMix = []int{opPoint: 1500, opScan: 400, opWrite: 100}

type wireRun struct {
	seed   int64
	rep    *report
	layers *layerRun
	// Untraced latencies per class, and the engine's own statement time
	// over the same operations (StatementStats), for the time spent
	// outside the engine.
	byClass   [numClasses][]time.Duration
	engineNS  int64
	engineOps int64
}

func runWire(cfg runConfig) (*report, error) {
	w := &wireRun{seed: cfg.seed, rep: &report{}, layers: newLayerRun()}
	if err := measure(cfg, w.rep, w.layers, w.round); err != nil {
		return nil, err
	}
	own := map[string]float64{}
	var clientNS, ops int64
	for c := opClass(0); c < numClasses; c++ {
		for _, d := range w.byClass[c] {
			clientNS += d.Nanoseconds()
		}
		ops += int64(len(w.byClass[c]))
		us := make([]float64, len(w.byClass[c]))
		for i, d := range w.byClass[c] {
			us[i] = float64(d.Nanoseconds()) / 1e3
		}
		sort.Float64s(us)
		fmt.Fprintf(os.Stderr, "  %s: %s\n", classNames[c], describe(us, "us"))
		own["wire."+classNames[c]+"_p50_us"] = reported(us, 0.5)
		own["wire."+classNames[c]+"_p99_us"] = reported(us, 0.99)
	}
	own["server.outside_engine_us"] = (ratio(float64(clientNS), float64(ops)) - ratio(float64(w.engineNS), float64(w.engineOps))) / 1e3
	finishLayers(w.rep, w.layers, own)
	return w.rep, nil
}

// round starts an engine with the prefilled table and a server with an
// executor pool, connects the clients, warms up, and runs the clients'
// fixed operation counts concurrently. It returns the clients' wall time.
func (w *wireRun) round(p phase) (time.Duration, error) {
	// Return the previous pass's memory, so peak RSS measures one pass.
	debug.FreeOSMemory()
	start := time.Now()
	engine := pipeline.NewEngine(pipeline.DefaultConfig(), nil)
	defer engine.Close()
	if err := prefill(engine.StorageManager()); err != nil {
		return 0, err
	}
	srv := server.New(engine)
	srv.EnableExecutorPool(wirePoolReads, 0, 0)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	defer func() {
		srv.Close()
		<-served
	}()

	clients := make([]*wireClient, wireClients)
	for i := range clients {
		c, err := dialClient(addr, derive(w.seed, streamWireClient+int64(i)), i)
		if err != nil {
			return 0, err
		}
		defer c.conn.Close()
		clients[i] = c
		// The warm-up plans every statement text once, so the measured
		// operations find their plans cached.
		for s := 0; s < wireScanTexts; s++ {
			w.rep.check(c.scan(s))
		}
		w.rep.check(c.point(0))
		w.rep.check(c.write())
	}
	w.rep.setups = append(w.rep.setups, time.Since(start))
	if w.rep.context == nil {
		w.rep.context = engineContext(engine, map[string]string{
			"rows":         fmt.Sprint(wireRows),
			"clients":      fmt.Sprint(wireClients),
			"pool_workers": fmt.Sprint(wirePoolReads),
			"ops_per_pass": fmt.Sprint(wireClients * total(wireMix)),
			"loop":         "closed",
			"sync_mode":    "none (no data directory)",
		}, max(wireClients, wirePoolReads))
	}

	watch, endPass, err := w.layers.begin(p, engine)
	if err != nil {
		return 0, err
	}
	statsBefore := engine.StatementStats()
	var wg sync.WaitGroup
	runStart := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func(c *wireClient) {
			defer wg.Done()
			c.run(watch)
		}(c)
	}
	wg.Wait()
	wall := time.Since(runStart)
	endPass()
	if p == untraced {
		ns, calls := statementTotals(engine.StatementStats())
		ns0, calls0 := statementTotals(statsBefore)
		w.engineNS += ns - ns0
		w.engineOps += calls - calls0
	}
	for _, c := range clients {
		w.rep.attempted += c.attempted
		w.rep.failed += c.failed
		if p == traced {
			w.layers.units += c.attempted
			w.layers.around += c.around
			w.layers.rebuilds += c.rebuilds
		} else {
			for k := range c.latencies {
				w.byClass[k] = append(w.byClass[k], c.latencies[k]...)
			}
			w.rep.latencies = append(w.rep.latencies, c.latencies[opPoint]...)
		}
	}
	w.rep.dataBytes = tableBytes(engine.StorageManager())
	return wall, nil
}

// prefill creates table kv with wireRows rows, bulk-loaded as committed.
func prefill(sm *storage.StorageManager) error {
	t := storage.NewTable("kv", []storage.ColumnDefinition{
		{Name: "id", Type: types.TypeInt64},
		{Name: "tag", Type: types.TypeString, Nullable: true},
		{Name: "val", Type: types.TypeFloat64, Nullable: true},
	}, storage.DefaultChunkSize, true)
	for id := int64(0); id < wireRows; id++ {
		if _, err := t.AppendRow([]types.Value{types.Int(id), types.Str(wireTag(id)), types.Float(wireVal(id))}); err != nil {
			return err
		}
	}
	concurrency.MarkTableLoaded(t)
	return sm.AddTable(t)
}

func statementTotals(rows []observe.StatementStatRow) (ns, calls int64) {
	for _, r := range rows {
		ns += r.TotalNS
		calls += r.Calls
	}
	return ns, calls
}

// wireClient is one closed-loop connection: it sends its next operation
// only after the previous reply arrived.
type wireClient struct {
	conn      *pgclient.Conn
	rng       *rand.Rand
	id        int
	seq       int64
	attempted int64
	failed    int64
	latencies [numClasses][]time.Duration
	around    time.Duration
	rebuilds  int64
}

func dialClient(addr string, seed int64, id int) (*wireClient, error) {
	conn, err := pgclient.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	for _, s := range []struct{ name, sql string }{{"pt", pointSQL}, {"ins", insertSQL}} {
		if _, err := conn.Prepare(s.name, s.sql, nil); err != nil {
			conn.Close()
			return nil, fmt.Errorf("prepare %s: %w", s.sql, err)
		}
	}
	return &wireClient{conn: conn, rng: rand.New(rand.NewSource(seed)), id: id}, nil
}

// run sends the operations of wireMix and checks every reply.
func (c *wireClient) run(watch *statsWatch) {
	c.attempted, c.failed, c.around, c.rebuilds = 0, 0, 0, 0
	c.latencies = [numClasses][]time.Duration{}
	for _, card := range deck(c.rng, wireMix) {
		class := opClass(card)
		key := c.rng.Int63n(wireRows)
		scan := c.rng.Intn(wireScanTexts)
		var before []*statistics.TableStatistics
		if watch != nil {
			before = watch.snapshot()
		}
		start := time.Now()
		var err error
		switch class {
		case opPoint:
			err = c.point(key)
		case opScan:
			err = c.scan(scan)
		case opWrite:
			err = c.write()
		}
		d := time.Since(start)
		c.attempted++
		if err != nil {
			c.failed++
			fmt.Fprintf(os.Stderr, "wire client %d: %v\n", c.id, err)
			continue
		}
		c.latencies[class] = append(c.latencies[class], d)
		if watch != nil {
			c.around += d
			c.rebuilds += rebuilt(before, watch.snapshot())
		}
	}
}

// point reads key id through the prepared statement with a binary
// parameter and checks that the row is the key's.
func (c *wireClient) point(id int64) error {
	res, err := c.conn.Exec("pt", []pgclient.Param{pgclient.BinaryInt8(id)}, nil)
	if err != nil {
		return err
	}
	if len(res.Rows) != 1 {
		return fmt.Errorf("point read %d: %d rows", id, len(res.Rows))
	}
	row := res.Rows[0]
	if string(row[0]) != strconv.FormatInt(id, 10) || string(row[1]) != wireTag(id) || !sameCell(string(row[2]), strconv.FormatFloat(wireVal(id), 'g', -1, 64)) {
		return fmt.Errorf("point read %d: got %q", id, row)
	}
	return nil
}

// scan runs range read i through the simple protocol and checks its count
// and sum against the prefilled rows, which writes never touch.
func (c *wireClient) scan(i int) error {
	results, err := c.conn.SimpleQuery(scanSQL(i))
	if err != nil {
		return err
	}
	lo := int64(i * (wireRows / wireScanTexts))
	var sum float64
	for id := lo; id < lo+wireScanWidth; id++ {
		sum += wireVal(id)
	}
	if len(results) != 1 || len(results[0].Rows) != 1 ||
		string(results[0].Rows[0][0]) != strconv.Itoa(wireScanWidth) ||
		!sameCell(string(results[0].Rows[0][1]), strconv.FormatFloat(sum, 'g', -1, 64)) {
		return fmt.Errorf("range read %d: unexpected result", i)
	}
	return nil
}

// write inserts a new key above the prefilled range through the prepared
// statement with binary parameters.
func (c *wireClient) write() error {
	c.seq++
	id := int64(c.id+1)*1_000_000 + c.seq
	res, err := c.conn.Exec("ins", []pgclient.Param{
		pgclient.BinaryInt8(id), pgclient.Text("w"), pgclient.BinaryFloat8(c.rng.Float64()),
	}, nil)
	if err != nil {
		return err
	}
	if res.Tag != "INSERT 0 1" {
		return fmt.Errorf("insert %d: tag %q", id, res.Tag)
	}
	return nil
}
