package tpcc

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"hyrise/internal/pipeline"
	"hyrise/internal/storage"
)

func setup(t *testing.T) (*pipeline.Engine, Config) {
	t.Helper()
	cfg := SmallConfig()
	sm := storage.NewStorageManager()
	if err := Generate(sm, cfg); err != nil {
		t.Fatal(err)
	}
	e := pipeline.NewEngine(pipeline.DefaultConfig(), sm)
	t.Cleanup(e.Close)
	return e, cfg
}

func queryFloat(t *testing.T, e *pipeline.Engine, sql string) float64 {
	t.Helper()
	s := e.NewSession()
	res, err := s.ExecuteOne(sql)
	if err != nil {
		t.Fatal(err)
	}
	rows := pipeline.RowStrings(res.Table)
	f, err := strconv.ParseFloat(rows[0][0], 64)
	if err != nil {
		t.Fatalf("parse %q: %v", rows[0][0], err)
	}
	return f
}

func TestGenerateSchemaAndCardinalities(t *testing.T) {
	e, cfg := setup(t)
	sm := e.StorageManager()
	expect := map[string]int{
		"warehouse": cfg.Warehouses,
		"district":  cfg.Warehouses * cfg.DistrictsPerWarehouse,
		"customer":  cfg.Warehouses * cfg.DistrictsPerWarehouse * cfg.CustomersPerDistrict,
		"item":      cfg.Items,
		"stock":     cfg.Warehouses * cfg.Items,
		"orders":    cfg.Warehouses * cfg.DistrictsPerWarehouse * cfg.InitialOrders,
	}
	for name, want := range expect {
		tab, err := sm.GetTable(name)
		if err != nil {
			t.Fatal(err)
		}
		if tab.RowCount() != want {
			t.Errorf("%s: %d rows, want %d", name, tab.RowCount(), want)
		}
	}
	// Undelivered orders: the last third.
	no, _ := sm.GetTable("new_order")
	want := cfg.Warehouses * cfg.DistrictsPerWarehouse * (cfg.InitialOrders - cfg.InitialOrders*2/3)
	if no.RowCount() != want {
		t.Errorf("new_order rows = %d, want %d", no.RowCount(), want)
	}
}

func TestNewOrderTransaction(t *testing.T) {
	e, cfg := setup(t)
	term := NewTerminal(e, cfg, 1)

	ordersBefore := queryFloat(t, e, "SELECT count(*) FROM orders")
	if err := term.NewOrder(); err != nil {
		t.Fatal(err)
	}
	ordersAfter := queryFloat(t, e, "SELECT count(*) FROM orders")
	if ordersAfter != ordersBefore+1 {
		t.Errorf("orders %f -> %f", ordersBefore, ordersAfter)
	}
	// d_next_o_id advanced for exactly one district.
	total := queryFloat(t, e, "SELECT sum(d_next_o_id) FROM district")
	wantTotal := float64(cfg.DistrictsPerWarehouse*(cfg.InitialOrders+1)) + 1
	if total != wantTotal {
		t.Errorf("sum(d_next_o_id) = %f, want %f", total, wantTotal)
	}
	// Order lines reference the new order and carry positive amounts.
	badLines := queryFloat(t, e, "SELECT count(*) FROM order_line WHERE ol_amount <= 0")
	if badLines != 0 {
		t.Errorf("%f non-positive order line amounts", badLines)
	}
}

func TestPaymentConsistency(t *testing.T) {
	e, cfg := setup(t)
	term := NewTerminal(e, cfg, 2)
	for i := 0; i < 10; i++ {
		if err := term.Payment(); err != nil {
			t.Fatal(err)
		}
	}
	// TPC-C consistency condition 1-ish: warehouse YTD growth equals the
	// history amounts, and equals district YTD growth.
	wYtd := queryFloat(t, e, "SELECT sum(w_ytd) FROM warehouse") - 300_000*float64(cfg.Warehouses)
	dYtd := queryFloat(t, e, "SELECT sum(d_ytd) FROM district") - 30_000*float64(cfg.Warehouses*cfg.DistrictsPerWarehouse)
	hSum := queryFloat(t, e, "SELECT sum(h_amount) FROM history")
	if diff := wYtd - hSum; diff > 0.01 || diff < -0.01 {
		t.Errorf("warehouse ytd %.2f != history sum %.2f", wYtd, hSum)
	}
	if diff := dYtd - hSum; diff > 0.01 || diff < -0.01 {
		t.Errorf("district ytd %.2f != history sum %.2f", dYtd, hSum)
	}
	payments := queryFloat(t, e, "SELECT count(*) FROM history")
	if payments != 10 {
		t.Errorf("history rows = %f", payments)
	}
}

func TestMixedWorkloadSerial(t *testing.T) {
	e, cfg := setup(t)
	term := NewTerminal(e, cfg, 3)
	stats, err := term.Run(60)
	if err != nil {
		t.Fatal(err)
	}
	total := stats.NewOrders + stats.Payments + stats.OrderStatus + stats.Aborts
	if total != 60 {
		t.Errorf("accounted transactions = %d, want 60 (%+v)", total, stats)
	}
	if stats.NewOrders == 0 || stats.Payments == 0 {
		t.Errorf("mix missing transaction types: %+v", stats)
	}
}

func TestConcurrentTerminals(t *testing.T) {
	e, cfg := setup(t)
	const terminals = 4
	const perTerminal = 15

	var wg sync.WaitGroup
	results := make([]Stats, terminals)
	errs := make([]error, terminals)
	for i := 0; i < terminals; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			term := NewTerminal(e, cfg, int64(100+i))
			results[i], errs[i] = term.Run(perTerminal)
		}(i)
	}
	wg.Wait()
	committedPayments := 0
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("terminal %d: %v", i, errs[i])
		}
		committedPayments += results[i].Payments
	}
	// Money conservation under concurrency: warehouse YTD growth must match
	// the committed history rows exactly (aborted payments left no trace).
	wYtd := queryFloat(t, e, "SELECT sum(w_ytd) FROM warehouse") - 300_000*float64(cfg.Warehouses)
	hSum := queryFloat(t, e, "SELECT sum(h_amount) FROM history")
	if diff := wYtd - hSum; diff > 0.01 || diff < -0.01 {
		t.Errorf("concurrent: warehouse ytd %.2f != history %.2f", wYtd, hSum)
	}
	hCount := int(queryFloat(t, e, "SELECT count(*) FROM history"))
	if hCount != committedPayments {
		t.Errorf("history rows %d != committed payments %d", hCount, committedPayments)
	}
	// Every committed new-order produced a new_order entry.
	fmt.Println("concurrent stats:", results)
}

func TestCheckConsistency(t *testing.T) {
	e, cfg := setup(t)
	if err := CheckConsistency(e); err != nil {
		t.Fatalf("freshly generated data: %v", err)
	}
	term := NewTerminal(e, cfg, 4)
	if _, err := term.Run(30); err != nil {
		t.Fatal(err)
	}
	if err := CheckConsistency(e); err != nil {
		t.Fatalf("after the mix: %v", err)
	}

	s := e.NewSession()
	if _, err := s.ExecuteOne("UPDATE district SET d_next_o_id = d_next_o_id + 1 WHERE d_id = 1"); err != nil {
		t.Fatal(err)
	}
	err := CheckConsistency(e)
	if err == nil || !strings.Contains(err.Error(), "d=1: d_next_o_id-1") {
		t.Errorf("skipped order id not reported: %v", err)
	}
	if _, err := s.ExecuteOne("UPDATE district SET d_next_o_id = d_next_o_id - 1 WHERE d_id = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExecuteOne("INSERT INTO order_line VALUES (1, 2, 1, 99, 1, 1.0, 1.0)"); err != nil {
		t.Fatal(err)
	}
	err = CheckConsistency(e)
	if err == nil || !strings.Contains(err.Error(), "d=2:") || !strings.Contains(err.Error(), "order lines") {
		t.Errorf("extra order line not reported: %v", err)
	}
}
