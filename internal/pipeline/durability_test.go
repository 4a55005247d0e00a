package pipeline_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"hyrise/internal/pipeline"
	"hyrise/internal/tpcc"
)

// durableEngine opens an engine over dir with the WAL enabled. Sync mode
// "off" still flushes every append to the OS, so the WAL file observed via
// the filesystem is byte-exact at every commit boundary — which is what
// lets the test simulate a crash at an arbitrary offset by truncating it.
func durableEngine(t *testing.T, dir string) *pipeline.Engine {
	t.Helper()
	cfg := pipeline.DefaultConfig()
	cfg.DataDir = dir
	cfg.SyncMode = "off"
	e, err := pipeline.NewEngineErr(cfg, nil)
	if err != nil {
		t.Fatalf("open durable engine: %v", err)
	}
	return e
}

func mustExec(t *testing.T, e *pipeline.Engine, sql string) {
	t.Helper()
	if _, err := e.NewSession().Execute(sql); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
}

func queryRows(t *testing.T, e *pipeline.Engine, sql string) [][]string {
	t.Helper()
	res, err := e.NewSession().ExecuteOne(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return pipeline.RowStrings(res.Table)
}

func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		buf, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func rowsMatch(a, b [][]string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestCrashRecoveryAtArbitraryWALOffsets is the crash-safety invariant test:
// a database killed at ANY WAL offset — commit boundaries, mid-record, torn
// frames — must reopen without a panic or error, show exactly the state of
// the last commit whose record fully fits in the surviving prefix, and show
// nothing of any later or uncommitted transaction.
func TestCrashRecoveryAtArbitraryWALOffsets(t *testing.T) {
	dir := t.TempDir()
	e := durableEngine(t, dir)
	walPath := filepath.Join(dir, "wal.log")

	walSize := func() int64 {
		st, err := os.Stat(walPath)
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}

	// The workload: DDL, then a mix of inserts, updates, and deletes. After
	// every statement, record the WAL size (a durable commit boundary) and
	// the full visible state as of that boundary.
	stmts := []string{
		"CREATE TABLE kv (id INT, val TEXT, n INT NULL)",
		"INSERT INTO kv VALUES (1, 'one', 10)",
		"INSERT INTO kv VALUES (2, 'two', NULL)",
		"INSERT INTO kv VALUES (3, 'three', 30)",
		"UPDATE kv SET val = 'TWO' WHERE id = 2",
		"INSERT INTO kv VALUES (4, 'four', 40)",
		"DELETE FROM kv WHERE id = 1",
		"UPDATE kv SET n = 99 WHERE id = 3",
		"INSERT INTO kv VALUES (5, 'five', 50)",
		"DELETE FROM kv WHERE id = 4",
	}
	boundaries := make([]int64, 0, len(stmts))
	states := make([][][]string, 0, len(stmts))
	for _, sql := range stmts {
		mustExec(t, e, sql)
		boundaries = append(boundaries, walSize())
		states = append(states, queryRows(t, e, "SELECT id, val, n FROM kv ORDER BY id"))
	}

	// One transaction that never commits: visible to nobody, never durable.
	uncommitted := e.NewSession()
	if _, err := uncommitted.Execute("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := uncommitted.Execute("INSERT INTO kv VALUES (666, 'ghost', NULL)"); err != nil {
		t.Fatal(err)
	}
	e.Close() // leaves the open transaction dangling, like a crash would

	final := walSize()

	// Offsets to crash at: every commit boundary, every boundary ±1 and ±3
	// (mid-frame), a sweep of deterministic random offsets, and the
	// degenerate prefixes (0, mid-header).
	offsets := []int64{0, 7, walHeader(t, walPath)}
	for _, b := range boundaries {
		offsets = append(offsets, b, b-1, b-3, b+1)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 40; i++ {
		offsets = append(offsets, rng.Int63n(final+1))
	}

	for _, cut := range offsets {
		if cut < 0 || cut > final {
			continue
		}
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			crashDir := copyDir(t, dir)
			if err := os.Truncate(filepath.Join(crashDir, "wal.log"), cut); err != nil {
				t.Fatal(err)
			}
			re := durableEngine(t, crashDir) // must not error or panic
			defer re.Close()

			// Expected state: the last statement whose commit boundary fits
			// inside the surviving prefix.
			last := -1
			for k, b := range boundaries {
				if b <= cut {
					last = k
				}
			}
			if last < 0 {
				// Even the CREATE TABLE record is gone: the table must not exist.
				if _, err := re.StorageManager().GetTable("kv"); err == nil {
					t.Fatalf("table exists although its DDL record was cut away")
				}
				return
			}
			got := queryRows(t, re, "SELECT id, val, n FROM kv ORDER BY id")
			if !rowsMatch(got, states[last]) {
				t.Fatalf("cut %d (after stmt %d %q):\n got %v\nwant %v",
					cut, last, stmts[last], got, states[last])
			}
			if len(queryRows(t, re, "SELECT id FROM kv WHERE id = 666")) != 0 {
				t.Fatal("uncommitted transaction visible after recovery")
			}
		})
	}
}

func walHeader(t *testing.T, path string) int64 {
	t.Helper()
	return 16 // magic + start LSN; torn-header cuts must also recover
}

// TestCrashRecoveryAcrossCheckpoint repeats the crash sweep with a snapshot
// taken mid-workload, so recovery combines snapshot restore with WAL replay
// and cut offsets interact with the truncated log.
func TestCrashRecoveryAcrossCheckpoint(t *testing.T) {
	dir := t.TempDir()
	e := durableEngine(t, dir)
	walPath := filepath.Join(dir, "wal.log")

	mustExec(t, e, "CREATE TABLE kv (id INT, val TEXT)")
	for i := 0; i < 5; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO kv VALUES (%d, 'pre%d')", i, i))
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}

	stmts := []string{
		"INSERT INTO kv VALUES (100, 'post')",
		"DELETE FROM kv WHERE id = 1",
		"UPDATE kv SET val = 'X' WHERE id = 3",
		"INSERT INTO kv VALUES (101, 'post2')",
	}
	boundaries := make([]int64, 0, len(stmts)+1)
	states := make([][][]string, 0, len(stmts)+1)
	record := func() {
		st, err := os.Stat(walPath)
		if err != nil {
			t.Fatal(err)
		}
		boundaries = append(boundaries, st.Size())
		states = append(states, queryRows(t, e, "SELECT id, val FROM kv ORDER BY id"))
	}
	record() // state 0: right after the checkpoint
	for _, sql := range stmts {
		mustExec(t, e, sql)
		record()
	}
	e.Close()

	st, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	final := st.Size()
	rng := rand.New(rand.NewSource(7))
	offsets := append([]int64{0, 9, 16}, boundaries...)
	for i := 0; i < 25; i++ {
		offsets = append(offsets, rng.Int63n(final+1))
	}

	for _, cut := range offsets {
		if cut < 0 || cut > final {
			continue
		}
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			crashDir := copyDir(t, dir)
			if err := os.Truncate(filepath.Join(crashDir, "wal.log"), cut); err != nil {
				t.Fatal(err)
			}
			re := durableEngine(t, crashDir)
			defer re.Close()

			// Cuts below the first boundary (even into the rewritten header)
			// must still restore the snapshot state.
			last := 0
			for k, b := range boundaries {
				if b <= cut {
					last = k
				}
			}
			got := queryRows(t, re, "SELECT id, val FROM kv ORDER BY id")
			if !rowsMatch(got, states[last]) {
				t.Fatalf("cut %d: got %v\nwant %v", cut, got, states[last])
			}
		})
	}
}

// tpccConsistency returns the violations of the TPC-C conditions the
// benchmark checks after every pass: each district's d_next_o_id is one past
// its highest order id, and the order lines match sum(o_ol_cnt).
func tpccConsistency(t *testing.T, e *pipeline.Engine, districts int) []string {
	t.Helper()
	var bad []string
	maxOID := map[string]string{}
	for _, r := range queryRows(t, e, "SELECT o_w_id, o_d_id, max(o_id) FROM orders GROUP BY o_w_id, o_d_id") {
		maxOID[r[0]+"/"+r[1]] = r[2]
	}
	rows := queryRows(t, e, "SELECT d_w_id, d_id, d_next_o_id FROM district")
	if len(rows) != districts {
		bad = append(bad, fmt.Sprintf("%d districts, want %d", len(rows), districts))
	}
	for _, r := range rows {
		next, err := strconv.ParseInt(r[2], 10, 64)
		if err != nil || maxOID[r[0]+"/"+r[1]] != strconv.FormatInt(next-1, 10) {
			bad = append(bad, fmt.Sprintf("district %s/%s: d_next_o_id %s, max(o_id) %s", r[0], r[1], r[2], maxOID[r[0]+"/"+r[1]]))
		}
	}
	lines := queryRows(t, e, "SELECT count(*) FROM order_line")
	olCnt := queryRows(t, e, "SELECT sum(o_ol_cnt) FROM orders")
	if lines[0][0] != olCnt[0][0] {
		bad = append(bad, fmt.Sprintf("order_line count %s, sum(o_ol_cnt) %s", lines[0][0], olCnt[0][0]))
	}
	return bad
}

// TestRecoveryAfterConcurrentTPCC runs two TPC-C terminals concurrently, so
// transactions commit in a different order than they appended rows, then
// reopens the data directory: the recovered state must equal the state
// before the restart and satisfy the TPC-C consistency conditions.
func TestRecoveryAfterConcurrentTPCC(t *testing.T) {
	dir := t.TempDir()
	cfg := tpcc.SmallConfig()
	districts := cfg.Warehouses * cfg.DistrictsPerWarehouse
	e := durableEngine(t, dir)
	if err := tpcc.Generate(e.StorageManager(), cfg); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = tpcc.NewTerminal(e, cfg, int64(i+1)).Run(100)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("terminal %d: %v", i, err)
		}
	}
	if bad := tpccConsistency(t, e, districts); len(bad) > 0 {
		t.Fatalf("inconsistent before restart: %v", bad)
	}
	queries := []string{
		"SELECT d_w_id, d_id, d_next_o_id, d_ytd FROM district ORDER BY d_w_id, d_id",
		"SELECT count(*), sum(o_ol_cnt), sum(o_id) FROM orders",
		"SELECT count(*), sum(ol_amount), sum(ol_i_id) FROM order_line",
		"SELECT count(*), sum(h_amount) FROM history",
		"SELECT count(*), sum(no_o_id) FROM new_order",
	}
	var want [][][]string
	for _, q := range queries {
		want = append(want, queryRows(t, e, q))
	}
	e.Close()

	e2 := durableEngine(t, dir)
	defer e2.Close()
	if bad := tpccConsistency(t, e2, districts); len(bad) > 0 {
		t.Fatalf("inconsistent after recovery: %v", bad)
	}
	for i, q := range queries {
		if got := queryRows(t, e2, q); !rowsMatch(got, want[i]) {
			t.Errorf("%s after recovery:\ngot:  %v\nwant: %v", q, got, want[i])
		}
	}
}
