package types

import (
	"encoding/binary"
	"math"
)

// Value keys. Every operator that hashes SQL values — the hash join, GROUP
// BY, COUNT(DISTINCT), IN-subquery sets and the subquery memo — encodes them
// here, so "are these two values the same key" has one answer engine-wide.
// A key is the byte string AppendKey produces; tuples are the concatenation
// of their components' keys.

// CanonicalKey maps SQL-equal values to one representative: an integral
// float in int64 range becomes that int (5.0 ≡ 5, -0.0 ≡ 0), every NaN
// becomes the same NaN, and a boolean becomes its 0/1 int (predicate
// results meet stored 0/1 columns). Other values are returned unchanged.
func CanonicalKey(v Value) Value {
	switch v.Type {
	case TypeFloat64:
		f := v.F
		switch {
		case f != f:
			return Float(math.NaN())
		case f >= math.MinInt64 && f < math.MaxInt64 && f == math.Trunc(f):
			return Int(int64(f))
		}
	case TypeBool:
		return Int(v.I)
	}
	return v
}

// AppendKey appends v's exact, prefix-free key encoding to buf: the type
// byte, then 8 little-endian bytes for ints, booleans and floats (IEEE bits),
// or a uvarint length plus the bytes for strings. NULL is the type byte
// alone. AppendKey does not canonicalize: callers that want SQL equality pass
// CanonicalKey(v); callers that must tell 5 from 5.0 pass v itself.
func AppendKey(buf []byte, v Value) []byte {
	buf = append(buf, byte(v.Type))
	switch v.Type {
	case TypeInt64, TypeBool:
		return binary.LittleEndian.AppendUint64(buf, uint64(v.I))
	case TypeFloat64:
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.F))
	case TypeString:
		buf = binary.AppendUvarint(buf, uint64(len(v.S)))
		return append(buf, v.S...)
	}
	return buf
}

// KeyHash is FNV-1a over an encoded key: the partition selector of the
// radix join and the shard selector of the aggregate merge.
func KeyHash(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}
