package statistics

import (
	"math"
	"sync"
	"time"

	"hyrise/internal/encoding"
	"hyrise/internal/observe"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// DefaultHistogramBins is the bin budget for column histograms.
const DefaultHistogramBins = 64

// ColumnStatistics summarizes one column for the cardinality estimator.
type ColumnStatistics struct {
	Type          types.DataType
	RowCount      float64
	NullCount     float64
	DistinctCount float64
	Min, Max      float64 // domain-mapped for strings
	Hist          *Histogram
}

// NullFraction returns the fraction of NULL rows.
func (c *ColumnStatistics) NullFraction() float64 {
	if c.RowCount == 0 {
		return 0
	}
	return c.NullCount / c.RowCount
}

// TableStatistics summarizes a table. Statistics are built lazily by the
// optimizer and cached per table; Cache refreshes them once the table's row
// count has drifted by refreshFraction, so an entry may describe a table a
// little smaller or larger than the live one.
type TableStatistics struct {
	RowCount float64
	Columns  []*ColumnStatistics
}

// ValueToDomain maps a dynamic value into the float64 estimation domain.
func ValueToDomain(v types.Value) (float64, bool) {
	switch v.Type {
	case types.TypeInt64:
		return float64(v.I), true
	case types.TypeFloat64:
		return v.F, true
	case types.TypeString:
		return StringToDomain(v.S), true
	default:
		return 0, false
	}
}

// BuildTableStatistics scans a data table and builds statistics for every
// column using the given histogram type.
func BuildTableStatistics(t *storage.Table, kind HistogramType) *TableStatistics {
	defs := t.ColumnDefinitions()
	ts := &TableStatistics{
		RowCount: float64(t.RowCount()),
		Columns:  make([]*ColumnStatistics, len(defs)),
	}
	chunks := t.Chunks()
	for col := range defs {
		counts := make(map[float64]int)
		nullCount := 0
		// The float domain embedding truncates strings to eight bytes, which
		// collapses long shared prefixes; distinct counts for strings are
		// therefore tracked on the exact values.
		var strDistinct map[string]struct{}
		if defs[col].Type == types.TypeString {
			strDistinct = make(map[string]struct{})
		}
		for _, c := range chunks {
			seg := c.GetSegment(types.ColumnID(col))
			switch defs[col].Type {
			case types.TypeInt64:
				vals, nulls := encoding.Materialize[int64](seg)
				for i, v := range vals {
					if nulls != nil && nulls[i] {
						nullCount++
						continue
					}
					counts[float64(v)]++
				}
			case types.TypeFloat64:
				vals, nulls := encoding.Materialize[float64](seg)
				for i, v := range vals {
					if nulls != nil && nulls[i] {
						nullCount++
						continue
					}
					counts[v]++
				}
			case types.TypeString:
				vals, nulls := encoding.Materialize[string](seg)
				for i, v := range vals {
					if nulls != nil && nulls[i] {
						nullCount++
						continue
					}
					counts[StringToDomain(v)]++
					strDistinct[v] = struct{}{}
				}
			}
		}
		distinct := float64(len(counts))
		if strDistinct != nil {
			distinct = float64(len(strDistinct))
		}
		cs := &ColumnStatistics{
			Type:          defs[col].Type,
			RowCount:      ts.RowCount,
			NullCount:     float64(nullCount),
			DistinctCount: distinct,
			Hist:          BuildHistogram(kind, counts, DefaultHistogramBins),
		}
		cs.Min, cs.Max = math.Inf(1), math.Inf(-1)
		for v := range counts {
			cs.Min = math.Min(cs.Min, v)
			cs.Max = math.Max(cs.Max, v)
		}
		ts.Columns[col] = cs
	}
	return ts
}

// EstimateEquals estimates the selectivity (0..1) of column = v.
func (ts *TableStatistics) EstimateEquals(col types.ColumnID, v types.Value) float64 {
	cs := ts.Columns[col]
	if ts.RowCount == 0 || cs == nil {
		return 0
	}
	d, ok := ValueToDomain(v)
	if !ok {
		return 0 // NULL never matches equality
	}
	return clampSel(cs.Hist.EstimateEquals(d) / ts.RowCount)
}

// EstimateRange estimates the selectivity of lo <= column <= hi (nil = open).
func (ts *TableStatistics) EstimateRange(col types.ColumnID, lo, hi *types.Value) float64 {
	cs := ts.Columns[col]
	if ts.RowCount == 0 || cs == nil {
		return 0
	}
	loF, hiF := math.Inf(-1), math.Inf(1)
	if lo != nil {
		d, ok := ValueToDomain(*lo)
		if !ok {
			return 0
		}
		loF = d
	}
	if hi != nil {
		d, ok := ValueToDomain(*hi)
		if !ok {
			return 0
		}
		hiF = d
	}
	return clampSel(cs.Hist.EstimateRange(loF, hiF) / ts.RowCount)
}

// EstimateNotEquals estimates the selectivity of column <> v.
func (ts *TableStatistics) EstimateNotEquals(col types.ColumnID, v types.Value) float64 {
	cs := ts.Columns[col]
	if cs == nil || ts.RowCount == 0 {
		return 1
	}
	return clampSel(1 - ts.EstimateEquals(col, v) - cs.NullFraction())
}

// EstimateJoinCardinality estimates |R join S| on an equi-join between this
// table's column and another table's column using the textbook formula
// |R|*|S| / max(ndv(R.a), ndv(S.b)).
func EstimateJoinCardinality(left *TableStatistics, leftCol types.ColumnID, right *TableStatistics, rightCol types.ColumnID) float64 {
	ndv := math.Max(distinctOrOne(left, leftCol), distinctOrOne(right, rightCol))
	return left.RowCount * right.RowCount / ndv
}

func distinctOrOne(ts *TableStatistics, col types.ColumnID) float64 {
	if ts == nil || int(col) >= len(ts.Columns) || ts.Columns[col] == nil || ts.Columns[col].DistinctCount < 1 {
		return 1
	}
	return ts.Columns[col].DistinctCount
}

func clampSel(s float64) float64 {
	if s < 0 || math.IsNaN(s) {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// refreshFraction is how far a table's row count must drift from the count
// its statistics were built at before Get rebuilds them: an entry built at
// n rows serves until the live count differs from n by at least
// max(1, n*refreshFraction). This is PostgreSQL's autoanalyze scale factor
// without its additive floor. Because successive refreshes are a constant
// factor apart, the histogram work a growing table causes is a constant
// multiple of the rows appended, not one full-table build per write.
const refreshFraction = 0.1

// drifted reports whether live rows are far enough from built rows to
// warrant a rebuild.
func drifted(built, live int) bool {
	d := live - built
	if d < 0 {
		d = -d
	}
	return d >= max(1, int(float64(built)*refreshFraction))
}

// Cache caches TableStatistics per table and refreshes an entry once the
// table's row count has drifted by refreshFraction. Builds run outside the
// cache lock: a caller that finds a refresh of the same table in flight gets
// the previous entry, so stale estimates are part of the contract. Only a
// table's first build can run twice concurrently; the last install wins.
//
// Estimates stay consistent under drift because the estimator only takes
// fractions from an entry (EstimateEquals and EstimateRange divide by the
// entry's own RowCount) and scales them by the live row count.
type Cache struct {
	kind HistogramType

	mu      sync.Mutex
	entries map[*storage.Table]cacheEntry

	builds  *observe.Counter   // nil until Instrument
	buildNS *observe.Histogram // nil until Instrument
}

type cacheEntry struct {
	stats      *TableStatistics // nil while the table's first build runs
	rowCount   int              // the row count stats were built at
	refreshing bool             // a build of this table is in flight
}

// NewCache creates a statistics cache using the given histogram type.
func NewCache(kind HistogramType) *Cache {
	return &Cache{entries: make(map[*storage.Table]cacheEntry), kind: kind}
}

// Instrument registers the cache's build metrics in r: statistics.builds
// counts histogram builds and statistics.build_ns records how long each
// took. Call it before the cache is shared.
func (c *Cache) Instrument(r *observe.Registry) {
	c.builds = r.Counter("statistics.builds")
	c.buildNS = r.Histogram("statistics.build_ns")
}

// Peek returns the cached statistics of a table without building anything —
// the executor's parallelism cost gates call this per scan, so it must stay
// a map lookup (builds never hold the lock). Stale entries are returned as
// they are: a slightly off selectivity only skews a serial-vs-parallel
// choice, never a result. Returns nil when the optimizer has not built
// statistics for the table yet.
func (c *Cache) Peek(t *storage.Table) *TableStatistics {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries[t].stats
}

// Get returns the statistics of a table, building them on first use and
// rebuilding them once the row count has drifted (see refreshFraction).
func (c *Cache) Get(t *storage.Table) *TableStatistics {
	live := t.RowCount()
	c.mu.Lock()
	e := c.entries[t]
	if e.stats != nil && (e.refreshing || !drifted(e.rowCount, live)) {
		c.mu.Unlock()
		return e.stats
	}
	e.refreshing = true
	c.entries[t] = e
	c.mu.Unlock()

	start := time.Now()
	stats := BuildTableStatistics(t, c.kind)
	if c.builds != nil {
		c.builds.Inc()
		c.buildNS.Observe(time.Since(start).Nanoseconds())
	}

	c.mu.Lock()
	// A table evicted while its build ran stays evicted.
	if _, ok := c.entries[t]; ok {
		c.entries[t] = cacheEntry{stats: stats, rowCount: int(stats.RowCount)}
	}
	c.mu.Unlock()
	return stats
}

// Evict drops a table's entry. The entry's key is the table itself, so
// without eviction a dropped table's chunks would stay reachable. The engine
// wires it to StorageManager.OnDropTable.
func (c *Cache) Evict(t *storage.Table) {
	c.mu.Lock()
	delete(c.entries, t)
	c.mu.Unlock()
}
