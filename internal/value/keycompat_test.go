package value

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"time"
	"unsafe"
)

// TestAppendKeyEncodingCompat pins the AppendKey byte encoding against
// independently constructed golden bytes. The encoding is load-bearing far
// beyond this package — primary-key slots, statistics count-maps, grouping
// and DISTINCT keys are all built from it — so shrinking the Value struct
// (dates to epoch days, bool into the int payload) must not move a single
// byte.
func TestAppendKeyEncodingCompat(t *testing.T) {
	floatKey := func(f float64) []byte {
		var b [9]byte
		b[0] = 'f'
		binary.BigEndian.PutUint64(b[1:], math.Float64bits(f))
		return b[:]
	}
	dateKey := func(y int, m time.Month, d int) []byte {
		var b [9]byte
		b[0] = 'd'
		binary.BigEndian.PutUint64(b[1:], uint64(time.Date(y, m, d, 0, 0, 0, 0, time.UTC).Unix()))
		return b[:]
	}
	textKey := func(s string) []byte {
		b := []byte{'t'}
		b = binary.AppendUvarint(b, uint64(len(s)))
		return append(b, s...)
	}
	cases := []struct {
		name string
		v    Value
		want []byte
	}{
		{"null", NewNull(), []byte{'n'}},
		{"int", NewInt(7), floatKey(7)},
		{"int-neg", NewInt(-1), floatKey(-1)},
		{"float", NewFloat(2.5), floatKey(2.5)},
		{"float-int-alias", NewFloat(7), floatKey(7)}, // 7 and 7.0 share a key
		{"neg-zero", NewFloat(math.Copysign(0, -1)), floatKey(0)},
		{"text", NewText("abc"), textKey("abc")},
		{"text-empty", NewText(""), textKey("")},
		{"date-post-epoch", NewDate(time.Date(2005, 1, 2, 0, 0, 0, 0, time.UTC)), dateKey(2005, 1, 2)},
		{"date-pre-epoch", NewDate(time.Date(1935, 12, 1, 0, 0, 0, 0, time.UTC)), dateKey(1935, 12, 1)},
		{"date-epoch", NewDate(time.Date(1970, 1, 1, 0, 0, 0, 0, time.UTC)), dateKey(1970, 1, 1)},
		{"bool-true", NewBool(true), []byte{'B'}},
		{"bool-false", NewBool(false), []byte{'b'}},
	}
	for _, c := range cases {
		if got := c.v.AppendKey(nil); !bytes.Equal(got, c.want) {
			t.Errorf("%s: AppendKey = %x, want %x", c.name, got, c.want)
		}
	}
}

// TestValueStructSize pins the shrunken layout: kind + int64 payload +
// float64 + string header = 40 bytes, with no time.Time or bool field.
func TestValueStructSize(t *testing.T) {
	if s := unsafe.Sizeof(Value{}); s > 40 {
		t.Errorf("Value is %d bytes, want <= 40", s)
	}
}

// TestDateEpochDayRoundTrip checks the epoch-day representation across the
// 1970 boundary: construction from time.Time, reconstruction via Date(), and
// the NewDateDays fast path all agree.
func TestDateEpochDayRoundTrip(t *testing.T) {
	dates := []time.Time{
		time.Date(1893, 3, 15, 0, 0, 0, 0, time.UTC),
		time.Date(1935, 12, 1, 0, 0, 0, 0, time.UTC),
		time.Date(1969, 12, 31, 0, 0, 0, 0, time.UTC),
		time.Date(1970, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2005, 1, 2, 0, 0, 0, 0, time.UTC),
	}
	for _, d := range dates {
		v := NewDate(d)
		if !v.Date().Equal(d) {
			t.Errorf("Date() round trip: got %v, want %v", v.Date(), d)
		}
		again := NewDateDays(v.DateDays())
		if !again.Equal(v) {
			t.Errorf("NewDateDays(%d) != NewDate(%v)", v.DateDays(), d)
		}
		if got := NewDate(d.Add(5 * time.Hour)); !got.Equal(v) {
			t.Errorf("time-of-day not truncated for %v", d)
		}
	}
}

// TestKey64IsAppendKeyWord pins Key64 to the word AppendKey writes after its
// tag byte, so a count-map keyed by Key64 counts exactly the values AppendKey
// tells apart: 2^53 and 2^53+1 as one, -0 as +0, NaN payloads apart.
func TestKey64IsAppendKeyWord(t *testing.T) {
	nan1, nan2 := math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002)
	for _, v := range []Value{
		NewInt(0), NewInt(-7), NewInt(1 << 53), NewInt(1<<53 + 1), NewInt(math.MinInt64),
		NewFloat(0), NewFloat(math.Copysign(0, -1)), NewFloat(2.5), NewFloat(math.Inf(-1)),
		NewFloat(nan1), NewFloat(nan2), NewDateDays(0), NewDateDays(-4000), NewDateDays(12345),
	} {
		key := v.AppendKey(nil)
		if got, want := v.Key64(), binary.BigEndian.Uint64(key[1:]); len(key) != 9 || got != want {
			t.Errorf("%v: Key64 %#x, AppendKey %x", v, got, key)
		}
	}
	if NewInt(1<<53).Key64() != NewInt(1<<53+1).Key64() || NewFloat(math.Copysign(0, -1)).Key64() != NewFloat(0).Key64() {
		t.Error("values AppendKey encodes alike got different Key64s")
	}
	if NewFloat(nan1).Key64() == NewFloat(nan2).Key64() {
		t.Error("NaN payloads share a Key64")
	}
}
