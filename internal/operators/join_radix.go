package operators

import (
	"sort"
	"sync/atomic"
	"time"

	"hyrise/internal/expression"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// This file implements the hash join kernel: both inputs are partitioned by a
// hash prefix of their join key into P partitions (P from the parallelism
// rule, a power of two); build and probe then run per partition as
// independent scheduler tasks. Each partition's hash table stays small and
// cache-resident, and the partitions never share mutable state — the paper's
// §2.9 point that chunked tables are "an inherent partitioning for
// multiprocessing", applied to the join hot path. P = 1 is the single build
// and probe: it skips the key hash, the bucket concatenation and the pair
// merge.
//
// Determinism: partitioning keeps rows in global row order within each
// partition, and the final pair merge restores global probe order, so every
// P emits exactly the pair sequence of P = 1.

// radixCancelStride is how many probe rows a partition task processes
// between cancellation checks.
const radixCancelStride = 4096

// joinPartition is one side's rows falling into one hash partition. idx
// holds global row indices (into the side's rows slice) in ascending order;
// row i's canonical key encoding (types.AppendKey) is keys[ends[i-1]:ends[i]].
type joinPartition struct {
	keys []byte
	ends []int
	idx  []int32
}

// key returns row i's encoded key.
func (jp *joinPartition) key(i int) []byte {
	start := 0
	if i > 0 {
		start = jp.ends[i-1]
	}
	return jp.keys[start:jp.ends[i]]
}

// appendPartition appends src's rows to dst, rebasing src's key offsets.
func (jp *joinPartition) appendPartition(src *joinPartition) {
	base := len(jp.keys)
	jp.keys = append(jp.keys, src.keys...)
	for _, e := range src.ends {
		jp.ends = append(jp.ends, base+e)
	}
	jp.idx = append(jp.idx, src.idx...)
}

// partitionKeysOverTable fuses key materialization with hash partitioning:
// each morsel (a run of consecutive chunks, the same units a parallel
// TableScan dispatches) evaluates the key expressions over its chunks and
// scatters rows into private per-partition buckets as soon as they
// materialize. The scan's output streams straight into the radix partitioner
// — no table-wide [][]Value key array is ever built, which both removes the
// materialization barrier between the phases and halves the passes over the
// keys. Each row's key tuple is encoded once into a reused buffer and
// partitioned by its KeyHash. NULL-key rows are dropped (NULL never joins);
// they remain visible to finish through the returned global rows slice.
//
// Each morsel covers a contiguous global row range and buckets are
// concatenated in morsel order, so every partition keeps ascending global
// row order — the invariant mergePairSets needs to reproduce P = 1 output.
func partitionKeysOverTable(ctx *ExecContext, t *storage.Table, keys []expression.Expression, parts int) ([]joinPartition, types.PosList, error) {
	chunks := t.Chunks()
	// base[ci] is the global row index of chunk ci's first row.
	base := make([]int, len(chunks))
	total := 0
	for ci, c := range chunks {
		base[ci] = total
		total += c.Size()
	}
	rows := make(types.PosList, total)
	mask := uint64(parts - 1)

	morsels := morselRanges(chunks, parts)
	type morselBuckets struct {
		parts []joinPartition
		err   error
	}
	buckets := make([]morselBuckets, len(morsels))
	jobs := make([]func(), len(morsels))
	for mi, m := range morsels {
		mi, m := mi, m
		jobs[mi] = func() {
			b := morselBuckets{parts: make([]joinPartition, parts)}
			n := 0
			for ci := m.lo; ci < m.hi; ci++ {
				n += chunks[ci].Size()
			}
			for p := range b.parts {
				// Numeric keys take 9 bytes per component (type byte plus
				// 8); strings grow the buffer as needed.
				b.parts[p].keys = make([]byte, 0, n/parts*9*len(keys))
				b.parts[p].ends = make([]int, 0, n/parts)
				b.parts[p].idx = make([]int32, 0, n/parts)
			}
			var buf []byte
			for ci := m.lo; ci < m.hi; ci++ {
				if ctx.Err() != nil {
					return
				}
				c := chunks[ci]
				n := c.Size()
				if n == 0 {
					continue
				}
				ec := ctx.evalContext(t, c, n)
				vecs := make([]*expression.Vector, len(keys))
				for i, k := range keys {
					v, err := expression.Evaluate(k, ec)
					if err != nil {
						b.err = err
						buckets[mi] = b
						return
					}
					vecs[i] = v
				}
			rowLoop:
				for row := 0; row < n; row++ {
					if row%radixCancelStride == 0 && ctx.Err() != nil {
						return
					}
					gi := base[ci] + row
					rows[gi] = types.RowID{Chunk: types.ChunkID(ci), Offset: types.ChunkOffset(row)}
					buf = buf[:0]
					for _, v := range vecs {
						val := v.ValueAt(row)
						if val.IsNull() {
							continue rowLoop
						}
						buf = types.AppendKey(buf, types.CanonicalKey(val))
					}
					p := uint64(0)
					if mask != 0 {
						p = types.KeyHash(buf) & mask
					}
					jp := &b.parts[p]
					jp.keys = append(jp.keys, buf...)
					jp.ends = append(jp.ends, len(jp.keys))
					jp.idx = append(jp.idx, int32(gi))
				}
			}
			buckets[mi] = b
		}
	}
	ctx.runJobs(jobs)
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	for mi := range buckets {
		if buckets[mi].err != nil {
			return nil, nil, buckets[mi].err
		}
	}
	if len(buckets) == 1 {
		return buckets[0].parts, rows, nil
	}
	// Concatenate the morsel buckets per partition, in morsel order, so each
	// partition keeps ascending global row order.
	out := make([]joinPartition, parts)
	concat := make([]func(), parts)
	for p := 0; p < parts; p++ {
		p := p
		concat[p] = func() {
			nKeys, nRows := 0, 0
			for mi := range buckets {
				nKeys += len(buckets[mi].parts[p].keys)
				nRows += len(buckets[mi].parts[p].idx)
			}
			jp := joinPartition{
				keys: make([]byte, 0, nKeys),
				ends: make([]int, 0, nRows),
				idx:  make([]int32, 0, nRows),
			}
			for mi := range buckets {
				jp.appendPartition(&buckets[mi].parts[p])
			}
			out[p] = jp
		}
	}
	ctx.runJobs(concat)
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	return out, rows, nil
}

// radixJoinPairs runs the partitioned build+probe over pre-partitioned sides
// and returns the candidate pairs in global probe order.
func radixJoinPairs(ctx *ExecContext, j *HashJoin, build, probe []joinPartition, leftRows, rightRows types.PosList) (pairSet, error) {
	parts := len(build)
	results := make([]pairSet, parts)
	var buildNS, probeNS atomic.Int64
	jobs := make([]func(), parts)
	for p := 0; p < parts; p++ {
		p := p
		jobs[p] = func() {
			b, pr := &build[p], &probe[p]
			if len(pr.idx) == 0 {
				return
			}
			t0 := time.Now()
			// One string holds every build key; the table's keys are
			// substrings of it, so building allocates no key strings.
			arena := string(b.keys)
			ht := make(map[string][]int32, len(b.idx))
			start := 0
			for i, end := range b.ends {
				k := arena[start:end]
				ht[k] = append(ht[k], b.idx[i])
				start = end
			}
			t1 := time.Now()
			buildNS.Add(t1.Sub(t0).Nanoseconds())
			var out pairSet
			for i := range pr.idx {
				if i%radixCancelStride == 0 && ctx.Err() != nil {
					return
				}
				for _, ri := range ht[string(pr.key(i))] {
					out.append(leftRows[pr.idx[i]], rightRows[ri], pr.idx[i], ri)
				}
			}
			probeNS.Add(time.Since(t1).Nanoseconds())
			results[p] = out
		}
	}
	ctx.runJobs(jobs)
	if err := ctx.Err(); err != nil {
		return pairSet{}, err
	}
	ctx.noteJoinPhases(j, parts, buildNS.Load(), probeNS.Load())
	if parts == 1 {
		return results[0], nil
	}
	return mergePairSets(results), nil
}

// mergePairSets concatenates per-partition pairs and restores global probe
// order. Each partition's pairs are already ascending in leftIdx and every
// left row lives in exactly one partition, so a stable sort by leftIdx
// reproduces the single-partition pair sequence exactly.
func mergePairSets(results []pairSet) pairSet {
	total := 0
	for i := range results {
		total += len(results[i].left)
	}
	merged := pairSet{
		left:     make(types.PosList, 0, total),
		right:    make(types.PosList, 0, total),
		leftIdx:  make([]int32, 0, total),
		rightIdx: make([]int32, 0, total),
	}
	for i := range results {
		merged.left = append(merged.left, results[i].left...)
		merged.right = append(merged.right, results[i].right...)
		merged.leftIdx = append(merged.leftIdx, results[i].leftIdx...)
		merged.rightIdx = append(merged.rightIdx, results[i].rightIdx...)
	}
	sort.Stable(pairsByLeftIdx{&merged})
	return merged
}

// pairsByLeftIdx stable-sorts a pairSet's four parallel slices by leftIdx.
type pairsByLeftIdx struct{ ps *pairSet }

func (s pairsByLeftIdx) Len() int           { return len(s.ps.leftIdx) }
func (s pairsByLeftIdx) Less(i, j int) bool { return s.ps.leftIdx[i] < s.ps.leftIdx[j] }
func (s pairsByLeftIdx) Swap(i, j int) {
	ps := s.ps
	ps.left[i], ps.left[j] = ps.left[j], ps.left[i]
	ps.right[i], ps.right[j] = ps.right[j], ps.right[i]
	ps.leftIdx[i], ps.leftIdx[j] = ps.leftIdx[j], ps.leftIdx[i]
	ps.rightIdx[i], ps.rightIdx[j] = ps.rightIdx[j], ps.rightIdx[i]
}
