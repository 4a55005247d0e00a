package expression

import (
	"fmt"

	"hyrise/internal/encoding"
	"hyrise/internal/storage"
	"hyrise/internal/types"
)

// Vector is a column of evaluation results for one chunk: a typed slice
// plus an optional null bitmap. The evaluator processes expressions one
// vector at a time (column-at-a-time within a chunk).
type Vector struct {
	DT    types.DataType
	I     []int64
	F     []float64
	S     []string
	B     []bool
	Nulls []bool // nil = no NULLs
	N     int
}

// NewIntVector wraps an int64 slice.
func NewIntVector(vals []int64, nulls []bool) *Vector {
	return &Vector{DT: types.TypeInt64, I: vals, Nulls: nulls, N: len(vals)}
}

// NewFloatVector wraps a float64 slice.
func NewFloatVector(vals []float64, nulls []bool) *Vector {
	return &Vector{DT: types.TypeFloat64, F: vals, Nulls: nulls, N: len(vals)}
}

// NewStringVector wraps a string slice.
func NewStringVector(vals []string, nulls []bool) *Vector {
	return &Vector{DT: types.TypeString, S: vals, Nulls: nulls, N: len(vals)}
}

// NewBoolVector wraps a bool slice.
func NewBoolVector(vals []bool, nulls []bool) *Vector {
	return &Vector{DT: types.TypeBool, B: vals, Nulls: nulls, N: len(vals)}
}

// IsNullAt reports whether row i is NULL.
func (v *Vector) IsNullAt(i int) bool { return v.Nulls != nil && v.Nulls[i] }

// ValueAt boxes row i into a dynamic value (boundary use).
func (v *Vector) ValueAt(i int) types.Value {
	if v.IsNullAt(i) {
		return types.NullValue
	}
	switch v.DT {
	case types.TypeInt64:
		return types.Int(v.I[i])
	case types.TypeFloat64:
		return types.Float(v.F[i])
	case types.TypeString:
		return types.Str(v.S[i])
	case types.TypeBool:
		return types.Bool(v.B[i])
	default:
		return types.NullValue
	}
}

// ConstVector broadcasts a single value to n rows.
func ConstVector(val types.Value, n int) *Vector {
	switch val.Type {
	case types.TypeInt64:
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = val.I
		}
		return NewIntVector(vals, nil)
	case types.TypeFloat64:
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = val.F
		}
		return NewFloatVector(vals, nil)
	case types.TypeString:
		vals := make([]string, n)
		for i := range vals {
			vals[i] = val.S
		}
		return NewStringVector(vals, nil)
	case types.TypeBool:
		vals := make([]bool, n)
		for i := range vals {
			vals[i] = val.I != 0
		}
		return NewBoolVector(vals, nil)
	default: // NULL literal
		nulls := make([]bool, n)
		for i := range nulls {
			nulls[i] = true
		}
		return &Vector{DT: types.TypeNull, Nulls: nulls, N: n}
	}
}

// Floats returns the rows coerced to float64 (ints are widened). The result
// aliases v.F when already float.
func (v *Vector) Floats() []float64 {
	if v.DT == types.TypeFloat64 {
		return v.F
	}
	out := make([]float64, v.N)
	if v.DT == types.TypeInt64 {
		for i, x := range v.I {
			out[i] = float64(x)
		}
	}
	return out
}

// VectorFromSegment materializes a storage segment into a vector using the
// static access path.
func VectorFromSegment(seg storage.Segment) *Vector {
	switch seg.DataType() {
	case types.TypeInt64:
		vals, nulls := encoding.Materialize[int64](seg)
		return NewIntVector(vals, nulls)
	case types.TypeFloat64:
		vals, nulls := encoding.Materialize[float64](seg)
		return NewFloatVector(vals, nulls)
	case types.TypeString:
		vals, nulls := encoding.Materialize[string](seg)
		return NewStringVector(vals, nulls)
	default:
		panic(fmt.Sprintf("expression: cannot vectorize segment type %s", seg.DataType()))
	}
}

// VectorFromSegmentPositions materializes selected offsets of a segment.
func VectorFromSegmentPositions(seg storage.Segment, pos []types.ChunkOffset) *Vector {
	switch seg.DataType() {
	case types.TypeInt64:
		vals, nulls := encoding.MaterializePositions[int64](seg, pos)
		return NewIntVector(vals, nulls)
	case types.TypeFloat64:
		vals, nulls := encoding.MaterializePositions[float64](seg, pos)
		return NewFloatVector(vals, nulls)
	case types.TypeString:
		vals, nulls := encoding.MaterializePositions[string](seg, pos)
		return NewStringVector(vals, nulls)
	default:
		panic(fmt.Sprintf("expression: cannot vectorize segment type %s", seg.DataType()))
	}
}

// ValueSet is the materialized result of an IN-subquery: the canonical key
// encodings (types.AppendKey of types.CanonicalKey) of its non-NULL values,
// so membership follows SQL equality across int, float and boolean values,
// plus a NULL marker for correct three-valued NOT IN semantics.
type ValueSet struct {
	keys    map[string]struct{}
	HasNull bool
}

// NewValueSet creates an empty set.
func NewValueSet() *ValueSet {
	return &ValueSet{keys: make(map[string]struct{})}
}

// Add inserts a value.
func (s *ValueSet) Add(v types.Value) {
	if v.IsNull() {
		s.HasNull = true
		return
	}
	s.keys[string(types.AppendKey(nil, types.CanonicalKey(v)))] = struct{}{}
}

// Contains reports membership under SQL equality. It does not allocate for
// numeric probes or strings of up to 62 bytes.
func (s *ValueSet) Contains(v types.Value) bool {
	if v.IsNull() {
		return false
	}
	var scratch [64]byte
	_, ok := s.keys[string(types.AppendKey(scratch[:0], types.CanonicalKey(v)))]
	return ok
}

// Len returns the number of stored non-NULL values.
func (s *ValueSet) Len() int { return len(s.keys) }
