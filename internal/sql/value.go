// Package sql is the SparkSQL stand-in: typed rows and schemas, an
// expression language, logical query plans (Scan, Filter, Project, Join,
// Aggregate, Limit) and an executor that compiles plans onto the mapreduce
// engine. The paper evaluates "seven SparkSQL queries"; this package is the
// substrate that lets those queries be written as relational plans, runs
// them with engine-metered shuffles, and exposes the plan structure that
// FLEX's static analysis consumes (see FLEXPlan).
package sql

import (
	"fmt"
	"math"
	"strconv"
)

// Kind is a column/value type.
type Kind int

// Value kinds.
const (
	KindInt Kind = iota + 1
	KindFloat
	KindString
	KindBool
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Value is one cell: a tagged union over the four supported kinds.
// Comparable with ==, so Values can key engine shuffles directly.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
	b    bool
}

// Int builds an integer value.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Float builds a floating-point value.
func Float(v float64) Value { return Value{kind: KindFloat, f: v} }

// Str builds a string value.
func Str(v string) Value { return Value{kind: KindString, s: v} }

// Bool builds a boolean value.
func Bool(v bool) Value { return Value{kind: KindBool, b: v} }

// Kind reports the value's kind (zero for the zero Value).
func (v Value) Kind() Kind { return v.kind }

// AsInt returns the integer payload.
func (v Value) AsInt() (int64, bool) { return v.i, v.kind == KindInt }

// AsFloat returns the numeric payload, widening integers.
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindFloat:
		return v.f, true
	case KindInt:
		return float64(v.i), true
	default:
		return 0, false
	}
}

// AsString returns the string payload.
func (v Value) AsString() (string, bool) { return v.s, v.kind == KindString }

// AsBool returns the boolean payload.
func (v Value) AsBool() (bool, bool) { return v.b, v.kind == KindBool }

// String renders the value for diagnostics.
func (v Value) String() string { return string(v.appendText(nil)) }

// appendText appends the value's String rendering to buf.
func (v Value) appendText(buf []byte) []byte {
	switch v.kind {
	case KindInt:
		return strconv.AppendInt(buf, v.i, 10)
	case KindFloat:
		return strconv.AppendFloat(buf, v.f, 'g', -1, 64)
	case KindString:
		return strconv.AppendQuote(buf, v.s)
	case KindBool:
		return strconv.AppendBool(buf, v.b)
	default:
		return append(buf, "<nil>"...)
	}
}

// GobEncode serializes the tagged union so rows survive the engine's
// spill-to-disk path (gob refuses structs with only unexported fields). The
// encoding is deterministic — kind byte, then the active payload only — so
// a retried task rewriting a spill file reproduces identical bytes.
func (v Value) GobEncode() ([]byte, error) {
	switch v.kind {
	case KindInt:
		var buf [1 + 8]byte
		buf[0] = byte(KindInt)
		putUint64(buf[1:], uint64(v.i))
		return buf[:], nil
	case KindFloat:
		var buf [1 + 8]byte
		buf[0] = byte(KindFloat)
		putUint64(buf[1:], math.Float64bits(v.f))
		return buf[:], nil
	case KindString:
		buf := make([]byte, 1+len(v.s))
		buf[0] = byte(KindString)
		copy(buf[1:], v.s)
		return buf, nil
	case KindBool:
		b := byte(0)
		if v.b {
			b = 1
		}
		return []byte{byte(KindBool), b}, nil
	default:
		return []byte{0}, nil // zero Value
	}
}

// GobDecode is the inverse of GobEncode.
func (v *Value) GobDecode(data []byte) error {
	if len(data) == 0 {
		return fmt.Errorf("sql: empty Value encoding")
	}
	*v = Value{kind: Kind(data[0])}
	payload := data[1:]
	switch v.kind {
	case 0:
		v.kind = 0 // zero Value
		return nil
	case KindInt:
		if len(payload) != 8 {
			return fmt.Errorf("sql: int Value encoding has %d payload bytes", len(payload))
		}
		v.i = int64(getUint64(payload))
	case KindFloat:
		if len(payload) != 8 {
			return fmt.Errorf("sql: float Value encoding has %d payload bytes", len(payload))
		}
		v.f = math.Float64frombits(getUint64(payload))
	case KindString:
		v.s = string(payload)
	case KindBool:
		if len(payload) != 1 {
			return fmt.Errorf("sql: bool Value encoding has %d payload bytes", len(payload))
		}
		v.b = payload[0] == 1
	default:
		return fmt.Errorf("sql: unknown Value kind %d in encoding", data[0])
	}
	return nil
}

func putUint64(b []byte, x uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(x >> (8 * i))
	}
}

func getUint64(b []byte) uint64 {
	var x uint64
	for i := 0; i < 8; i++ {
		x |= uint64(b[i]) << (8 * i)
	}
	return x
}

// Compare orders two values of the same kind: -1, 0, +1. Numeric kinds
// compare after widening; mixing other kinds is an error.
func Compare(a, b Value) (int, error) {
	if af, ok := a.AsFloat(); ok {
		if bf, ok := b.AsFloat(); ok {
			switch {
			case af < bf:
				return -1, nil
			case af > bf:
				return 1, nil
			default:
				return 0, nil
			}
		}
	}
	if a.kind != b.kind {
		return 0, fmt.Errorf("sql: comparing %s with %s", a.kind, b.kind)
	}
	switch a.kind {
	case KindString:
		switch {
		case a.s < b.s:
			return -1, nil
		case a.s > b.s:
			return 1, nil
		default:
			return 0, nil
		}
	case KindBool:
		switch {
		case !a.b && b.b:
			return -1, nil
		case a.b && !b.b:
			return 1, nil
		default:
			return 0, nil
		}
	default:
		return 0, fmt.Errorf("sql: cannot compare %s values", a.kind)
	}
}

// Column is one schema entry.
type Column struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of columns.
type Schema []Column

// IndexOf resolves a column name (case-sensitive) to its position.
func (s Schema) IndexOf(name string) (int, error) {
	for i, c := range s {
		if c.Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("sql: unknown column %q (have %v)", name, s.Names())
}

// Names lists the column names.
func (s Schema) Names() []string {
	out := make([]string, len(s))
	for i, c := range s {
		out[i] = c.Name
	}
	return out
}

// Row is one tuple, positionally aligned with its Schema.
type Row []Value
