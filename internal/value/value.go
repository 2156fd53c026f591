// Package value defines the typed datum that flows through the storage
// layer, the query engine, and the template instantiation pipeline. A Value
// is a small immutable tagged union over NULL, INT, FLOAT, TEXT, DATE, and
// BOOL with SQL comparison semantics (NULL compares as unknown).
package value

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/lexicon"
)

// Kind discriminates the variants of a Value.
type Kind int

// The value kinds. Null is the zero value so that a zero Value is NULL.
const (
	Null Kind = iota
	Int
	Float
	Text
	Date
	Bool
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Null:
		return "NULL"
	case Int:
		return "INT"
	case Float:
		return "FLOAT"
	case Text:
		return "TEXT"
	case Date:
		return "DATE"
	case Bool:
		return "BOOL"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Value is one typed datum. The zero Value is NULL.
//
// The struct is deliberately small (40 bytes): the i field carries the Int
// payload, Date values as days since the Unix epoch, and Bool as 0/1, so no
// time.Time or bool field widens every value flowing through the engine's
// row arenas and the columnar store's materialization path.
type Value struct {
	kind Kind
	// i holds the Int payload; for Date, days since the Unix epoch; for
	// Bool, 0 or 1.
	i int64
	f float64
	s string
}

// secondsPerDay converts between the epoch-day payload and the Unix-second
// timeline all date encodings are defined on (dates are midnight UTC, so the
// conversion is exact in both directions).
const secondsPerDay = 86400

// NewNull returns the NULL value.
func NewNull() Value { return Value{} }

// NewInt wraps an integer.
func NewInt(i int64) Value { return Value{kind: Int, i: i} }

// NewFloat wraps a float.
func NewFloat(f float64) Value { return Value{kind: Float, f: f} }

// NewText wraps a string.
func NewText(s string) Value { return Value{kind: Text, s: s} }

// NewDate wraps a date (time components are truncated).
func NewDate(t time.Time) Value {
	u := time.Date(t.Year(), t.Month(), t.Day(), 0, 0, 0, 0, time.UTC).Unix()
	return Value{kind: Date, i: u / secondsPerDay} // midnight UTC: exact division
}

// NewDateDays wraps a date given as days since the Unix epoch — the columnar
// store's native date representation, avoiding any time.Time round trip.
func NewDateDays(days int64) Value { return Value{kind: Date, i: days} }

// NewBool wraps a boolean.
func NewBool(b bool) Value {
	if b {
		return Value{kind: Bool, i: 1}
	}
	return Value{kind: Bool}
}

// Kind returns the variant tag.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == Null }

// Int returns the integer payload; it panics unless Kind is Int.
func (v Value) Int() int64 {
	if v.kind != Int {
		panic(fmt.Sprintf("value: Int() on %s", v.kind))
	}
	return v.i
}

// Float returns the numeric payload as float64 (valid for Int and Float).
func (v Value) Float() float64 {
	switch v.kind {
	case Float:
		return v.f
	case Int:
		return float64(v.i)
	default:
		panic(fmt.Sprintf("value: Float() on %s", v.kind))
	}
}

// Text returns the string payload; it panics unless Kind is Text.
func (v Value) Text() string {
	if v.kind != Text {
		panic(fmt.Sprintf("value: Text() on %s", v.kind))
	}
	return v.s
}

// Date returns the date payload; it panics unless Kind is Date.
func (v Value) Date() time.Time {
	if v.kind != Date {
		panic(fmt.Sprintf("value: Date() on %s", v.kind))
	}
	return time.Unix(v.i*secondsPerDay, 0).UTC()
}

// DateDays returns the date payload as days since the Unix epoch; it panics
// unless Kind is Date.
func (v Value) DateDays() int64 {
	if v.kind != Date {
		panic(fmt.Sprintf("value: DateDays() on %s", v.kind))
	}
	return v.i
}

// Bool returns the boolean payload; it panics unless Kind is Bool.
func (v Value) Bool() bool {
	if v.kind != Bool {
		panic(fmt.Sprintf("value: Bool() on %s", v.kind))
	}
	return v.i != 0
}

// IsNumeric reports whether the value is Int or Float.
func (v Value) IsNumeric() bool { return v.kind == Int || v.kind == Float }

// String renders the value for debugging and test output. Text values are
// unquoted; use SQL() for SQL-literal rendering.
func (v Value) String() string {
	switch v.kind {
	case Null:
		return "NULL"
	case Int:
		return strconv.FormatInt(v.i, 10)
	case Float:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case Text:
		return v.s
	case Date:
		return v.Date().Format("2006-01-02")
	case Bool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	default:
		return fmt.Sprintf("Value(%d)", int(v.kind))
	}
}

// AppendString appends String's text to buf, without allocating for any
// known kind.
func (v Value) AppendString(buf []byte) []byte {
	switch v.kind {
	case Null:
		return append(buf, "NULL"...)
	case Int:
		return strconv.AppendInt(buf, v.i, 10)
	case Float:
		return strconv.AppendFloat(buf, v.f, 'g', -1, 64)
	case Text:
		return append(buf, v.s...)
	case Date:
		return v.Date().AppendFormat(buf, "2006-01-02")
	case Bool:
		return strconv.AppendBool(buf, v.i != 0)
	default:
		return fmt.Appendf(buf, "Value(%d)", int(v.kind))
	}
}

// SQL renders the value as a SQL literal.
func (v Value) SQL() string {
	switch v.kind {
	case Float:
		// Plain decimal notation only — the SQL lexer has no exponent
		// syntax — with a forced fraction so the literal re-parses as a
		// float rather than an integer.
		s := strconv.FormatFloat(v.f, 'f', -1, 64)
		if !strings.ContainsAny(s, ".") {
			s += ".0"
		}
		return s
	case Text:
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	case Date:
		return "DATE '" + v.Date().Format("2006-01-02") + "'"
	case Bool:
		if v.i != 0 {
			return "TRUE"
		}
		return "FALSE"
	default:
		return v.String()
	}
}

// Prose renders the value the way narratives quote it: dates in "December 1,
// 1935" form, everything else as String().
func (v Value) Prose() string {
	if v.kind == Date {
		return lexicon.FormatDate(v.Date())
	}
	return v.String()
}

// Equal reports strict equality (same kind, same payload). NULL equals NULL
// here; use Compare for SQL three-valued semantics.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		// Numeric cross-kind equality: 1 == 1.0.
		if v.IsNumeric() && o.IsNumeric() {
			return v.Float() == o.Float()
		}
		return false
	}
	switch v.kind {
	case Null:
		return true
	case Int:
		return v.i == o.i
	case Float:
		return v.f == o.f
	case Text:
		return v.s == o.s
	case Date:
		return v.i == o.i
	case Bool:
		return v.i == o.i
	}
	return false
}

// Compare orders two values: -1, 0, +1. It returns an error when the kinds
// are incomparable or either side is NULL (SQL unknown). Numeric kinds
// compare with each other.
func (v Value) Compare(o Value) (int, error) {
	if v.kind == Null || o.kind == Null {
		return 0, fmt.Errorf("value: comparison with NULL is unknown")
	}
	if v.IsNumeric() && o.IsNumeric() {
		a, b := v.Float(), o.Float()
		switch {
		case a < b:
			return -1, nil
		case a > b:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if v.kind != o.kind {
		return 0, fmt.Errorf("value: cannot compare %s with %s", v.kind, o.kind)
	}
	switch v.kind {
	case Text:
		return strings.Compare(v.s, o.s), nil
	case Date, Bool:
		switch {
		case v.i < o.i:
			return -1, nil
		case v.i > o.i:
			return 1, nil
		default:
			return 0, nil
		}
	default:
		return 0, fmt.Errorf("value: cannot compare %s values", v.kind)
	}
}

// Key returns a string usable as a map key that distinguishes values the way
// Equal does (so 1 and 1.0 share a key, and "1" does not).
func (v Value) Key() string {
	switch v.kind {
	case Null:
		return "n"
	case Int:
		return "f:" + strconv.FormatFloat(float64(v.i), 'g', -1, 64)
	case Float:
		return "f:" + strconv.FormatFloat(v.f, 'g', -1, 64)
	case Text:
		return "t:" + v.s
	case Date:
		return "d:" + v.Date().Format("2006-01-02")
	case Bool:
		if v.i != 0 {
			return "b1"
		}
		return "b0"
	default:
		return "?"
	}
}

// AppendKey appends a binary encoding of v to buf and returns the extended
// buffer. The encoding distinguishes values exactly the way Equal does
// (1 and 1.0 share an encoding, "1" does not) and — unlike Key — is safe to
// concatenate: every variant is either fixed-width or length-prefixed, so
// adjacent values can never collide ("a|b","c" vs "a","b|c"). Storage hash
// keys (primary keys, indexes, statistics) and the engine's grouping and
// deduplication keys are all built with it, typically into a reusable buffer.
func (v Value) AppendKey(buf []byte) []byte {
	switch v.kind {
	case Null:
		return append(buf, 'n')
	case Int, Float:
		return binary.BigEndian.AppendUint64(append(buf, 'f'), v.Key64())
	case Text:
		buf = append(buf, 't')
		buf = binary.AppendUvarint(buf, uint64(len(v.s)))
		return append(buf, v.s...)
	case Date:
		return binary.BigEndian.AppendUint64(append(buf, 'd'), v.Key64())
	case Bool:
		if v.i != 0 {
			return append(buf, 'B')
		}
		return append(buf, 'b')
	default:
		return append(buf, '?')
	}
}

// Key64 is the fixed-width word AppendKey encodes for an Int, Float or Date
// value, so two values of one of those kinds share a Key64 exactly when
// AppendKey encodes them alike: ints by their float64 image (2^53 and 2^53+1
// are one key), -0 folded into +0, NaN payloads kept apart. Storage counts
// distinct numeric values by it. Other kinds return 0.
func (v Value) Key64() uint64 {
	switch v.kind {
	case Int:
		return floatKey(float64(v.i))
	case Float:
		return floatKey(v.f)
	case Date:
		return uint64(v.i * secondsPerDay)
	}
	return 0
}

func floatKey(f float64) uint64 {
	if f == 0 {
		f = 0 // collapse -0 and +0, which Equal treats as the same value
	}
	return math.Float64bits(f)
}

// CatalogKind maps a catalog attribute type to the value kind it stores.
func CatalogKind(t catalog.Type) Kind {
	switch t {
	case catalog.Int:
		return Int
	case catalog.Float:
		return Float
	case catalog.Text:
		return Text
	case catalog.Date:
		return Date
	case catalog.Bool:
		return Bool
	default:
		return Null
	}
}

// Coerce converts v to the given kind when a lossless (or standard SQL)
// conversion exists: Int→Float, Text→Date, Int↔Float with truncation rules.
// NULL coerces to every kind. It returns an error otherwise.
func Coerce(v Value, k Kind) (Value, error) {
	if v.kind == k || v.kind == Null {
		return v, nil
	}
	switch {
	case v.kind == Int && k == Float:
		return NewFloat(float64(v.i)), nil
	case v.kind == Float && k == Int:
		if v.f == float64(int64(v.f)) {
			return NewInt(int64(v.f)), nil
		}
		return Value{}, fmt.Errorf("value: %v is not an integer", v.f)
	case v.kind == Text && k == Date:
		t, err := lexicon.ParseDate(v.s)
		if err != nil {
			return Value{}, fmt.Errorf("value: cannot coerce %q to DATE: %v", v.s, err)
		}
		return NewDate(t), nil
	case v.kind == Date && k == Text:
		return NewText(v.Date().Format("2006-01-02")), nil
	case v.kind == Text && k == Int:
		i, err := strconv.ParseInt(strings.TrimSpace(v.s), 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("value: cannot coerce %q to INT", v.s)
		}
		return NewInt(i), nil
	case v.kind == Text && k == Float:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.s), 64)
		if err != nil {
			return Value{}, fmt.Errorf("value: cannot coerce %q to FLOAT", v.s)
		}
		return NewFloat(f), nil
	default:
		return Value{}, fmt.Errorf("value: cannot coerce %s to %s", v.kind, k)
	}
}

// Parse converts a raw string into a Value of the requested kind; empty
// strings become NULL. talkbackd's /entity parses its value parameter with
// it.
func Parse(raw string, k Kind) (Value, error) {
	if raw == "" {
		return NewNull(), nil
	}
	switch k {
	case Int:
		i, err := strconv.ParseInt(strings.TrimSpace(raw), 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("value: bad INT %q", raw)
		}
		return NewInt(i), nil
	case Float:
		f, err := strconv.ParseFloat(strings.TrimSpace(raw), 64)
		if err != nil {
			return Value{}, fmt.Errorf("value: bad FLOAT %q", raw)
		}
		return NewFloat(f), nil
	case Text:
		return NewText(raw), nil
	case Date:
		t, err := lexicon.ParseDate(strings.TrimSpace(raw))
		if err != nil {
			return Value{}, err
		}
		return NewDate(t), nil
	case Bool:
		switch strings.ToLower(strings.TrimSpace(raw)) {
		case "true", "t", "1", "yes":
			return NewBool(true), nil
		case "false", "f", "0", "no":
			return NewBool(false), nil
		default:
			return Value{}, fmt.Errorf("value: bad BOOL %q", raw)
		}
	default:
		return Value{}, fmt.Errorf("value: cannot parse into %s", k)
	}
}
