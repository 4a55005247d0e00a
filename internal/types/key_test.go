package types

import (
	"bytes"
	"math"
	"testing"
)

func canonicalEncoding(vals ...Value) []byte {
	var buf []byte
	for _, v := range vals {
		buf = AppendKey(buf, CanonicalKey(v))
	}
	return buf
}

func isNaN(v Value) bool { return v.Type == TypeFloat64 && math.IsNaN(v.F) }

// sqlEqual is the key layer's contract: NaN is one value, everything else
// is equal when Compare says so.
func sqlEqual(a, b Value) bool {
	if isNaN(a) || isNaN(b) {
		return isNaN(a) && isNaN(b)
	}
	c, ok := Compare(a, b)
	return ok && c == 0
}

func TestCanonicalKey(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cases := []struct {
		in, want Value
	}{
		{Float(5), Int(5)},
		{Float(negZero), Int(0)},
		{Float(-7), Int(-7)},
		{Float(math.MinInt64), Int(math.MinInt64)},
		{Float(math.Ldexp(1, 63)), Float(math.Ldexp(1, 63))}, // just past MaxInt64
		{Float(1e300), Float(1e300)},
		{Float(math.Inf(-1)), Float(math.Inf(-1))},
		{Float(0.5), Float(0.5)},
		{Bool(true), Int(1)},
		{Bool(false), Int(0)},
		{Int(3), Int(3)},
		{Str("x"), Str("x")},
		{NullValue, NullValue},
	}
	for _, c := range cases {
		if got := CanonicalKey(c.in); got != c.want {
			t.Errorf("CanonicalKey(%v %s) = %v %s, want %v %s", c.in, c.in.Type, got, got.Type, c.want, c.want.Type)
		}
	}
	a := CanonicalKey(Float(math.NaN()))
	b := CanonicalKey(Float(-math.NaN()))
	if math.Float64bits(a.F) != math.Float64bits(b.F) {
		t.Errorf("NaNs canonicalize to different bits: %x vs %x", math.Float64bits(a.F), math.Float64bits(b.F))
	}
}

func TestAppendKeyCanonicalEquality(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cases := []struct {
		a, b  Value
		equal bool
	}{
		{Int(5), Float(5), true},
		{Float(0), Float(negZero), true},
		{Int(0), Float(negZero), true},
		{Float(math.NaN()), Float(-math.NaN()), true},
		{Bool(true), Int(1), true},
		{Bool(false), Float(0), true},
		{NullValue, NullValue, true},
		{Str("5"), Int(5), false},
		{Float(5.5), Int(5), false},
		{Float(math.NaN()), Float(0), false},
		{Bool(true), Int(2), false},
		{NullValue, Int(0), false},
		{NullValue, Str(""), false},
		{Str(""), Int(0), false},
	}
	for _, c := range cases {
		got := bytes.Equal(canonicalEncoding(c.a), canonicalEncoding(c.b))
		if got != c.equal {
			t.Errorf("key(%v %s) == key(%v %s): %v, want %v", c.a, c.a.Type, c.b, c.b.Type, got, c.equal)
		}
	}
}

func TestAppendKeyExactWithoutCanonicalization(t *testing.T) {
	pairs := [][2]Value{
		{Int(5), Float(5)},
		{Float(0), Float(math.Copysign(0, -1))},
		{Bool(true), Int(1)},
	}
	for _, p := range pairs {
		if bytes.Equal(AppendKey(nil, p[0]), AppendKey(nil, p[1])) {
			t.Errorf("exact keys of %v %s and %v %s collide", p[0], p[0].Type, p[1], p[1].Type)
		}
	}
}

func TestAppendKeyTuplesInjective(t *testing.T) {
	tuples := [][2][]Value{
		{{Str("a"), Str("bc")}, {Str("ab"), Str("c")}},
		{{Str(""), Str("a")}, {Str("a"), Str("")}},
		{{Str("a"), NullValue}, {NullValue, Str("a")}},
		{{Int(1), Int(2)}, {Int(2), Int(1)}},
		{{Int(256), Int(0)}, {Int(1), Int(1)}},
	}
	for _, tp := range tuples {
		if bytes.Equal(canonicalEncoding(tp[0]...), canonicalEncoding(tp[1]...)) {
			t.Errorf("tuples %v and %v encode alike", tp[0], tp[1])
		}
	}
}

func TestKeyHash(t *testing.T) {
	if got := KeyHash(nil); got != 14695981039346656037 {
		t.Errorf("KeyHash(nil) = %d, want the FNV-1a offset basis", got)
	}
	if KeyHash(canonicalEncoding(Float(5))) != KeyHash(canonicalEncoding(Int(5))) {
		t.Error("equal keys hash differently")
	}
}

// fuzzValue builds an int, float or string value from fuzz input.
func fuzzValue(kind uint8, i int64, f float64, s string) Value {
	switch kind % 3 {
	case 0:
		return Int(i)
	case 1:
		return Float(f)
	default:
		return Str(s)
	}
}

// FuzzKeyEncoding checks the key layer's two laws: canonical encodings are
// equal exactly when the values are SQL-equal (both NaN, or Compare = 0
// within one type class), and encodings are prefix-free, so tuple encodings
// are injective.
func FuzzKeyEncoding(f *testing.F) {
	f.Add(uint8(0), int64(5), 5.0, "", uint8(1), int64(0), 5.0, "")
	f.Add(uint8(1), int64(0), 0.0, "", uint8(1), int64(0), math.Copysign(0, -1), "")
	f.Add(uint8(1), int64(0), math.NaN(), "", uint8(1), int64(0), -math.NaN(), "")
	f.Add(uint8(2), int64(0), 0.0, "a", uint8(2), int64(0), 0.0, "ab")
	f.Add(uint8(2), int64(0), 0.0, "5", uint8(0), int64(5), 0.0, "")
	f.Add(uint8(0), int64(math.MaxInt64), 0.0, "", uint8(1), int64(0), math.Ldexp(1, 63), "")
	f.Fuzz(func(t *testing.T, ka uint8, ia int64, fa float64, sa string, kb uint8, ib int64, fb float64, sb string) {
		a, b := fuzzValue(ka, ia, fa, sa), fuzzValue(kb, ib, fb, sb)
		ea, eb := canonicalEncoding(a), canonicalEncoding(b)

		// Compare orders int against float through float64, which rounds
		// ints beyond ±2^53; keys are exact there, so skip the equality law.
		lossy := func(x, y Value) bool {
			return x.Type == TypeInt64 && y.Type == TypeFloat64 && (x.I > 1<<53 || x.I < -(1<<53))
		}
		if !lossy(a, b) && !lossy(b, a) {
			if got, want := bytes.Equal(ea, eb), sqlEqual(a, b); got != want {
				t.Fatalf("key(%v %s) == key(%v %s): %v, SQL equality %v", a, a.Type, b, b.Type, got, want)
			}
		}
		if !bytes.Equal(ea, eb) && (bytes.HasPrefix(ea, eb) || bytes.HasPrefix(eb, ea)) {
			t.Fatalf("key(%v %s) and key(%v %s) are not prefix-free", a, a.Type, b, b.Type)
		}
		// A tuple and its shifted split must not collide.
		if a.Type == TypeString && b.Type == TypeString && len(sb) > 0 {
			k := len(sb) / 2
			if k == 0 {
				k = 1
			}
			shifted := canonicalEncoding(Str(sa+sb[:k]), Str(sb[k:]))
			if bytes.Equal(canonicalEncoding(a, b), shifted) {
				t.Fatalf("tuples (%q, %q) and (%q, %q) encode alike", sa, sb, sa+sb[:k], sb[k:])
			}
		}
	})
}
