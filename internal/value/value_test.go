package value

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/catalog"
)

func TestZeroValueIsNull(t *testing.T) {
	var v Value
	if !v.IsNull() || v.Kind() != Null {
		t.Error("zero Value must be NULL")
	}
}

func TestAccessors(t *testing.T) {
	if NewInt(7).Int() != 7 {
		t.Error("Int accessor")
	}
	if NewFloat(2.5).Float() != 2.5 {
		t.Error("Float accessor")
	}
	if NewInt(3).Float() != 3.0 {
		t.Error("Int as Float")
	}
	if NewText("x").Text() != "x" {
		t.Error("Text accessor")
	}
	if !NewBool(true).Bool() {
		t.Error("Bool accessor")
	}
	d := time.Date(2005, 3, 4, 13, 30, 0, 0, time.UTC)
	got := NewDate(d).Date()
	if got.Hour() != 0 || got.Day() != 4 {
		t.Errorf("Date truncation: %v", got)
	}
}

func TestAccessorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Int() on TEXT should panic")
		}
	}()
	NewText("x").Int()
}

func TestString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{NewNull(), "NULL"},
		{NewInt(-4), "-4"},
		{NewFloat(1.5), "1.5"},
		{NewFloat(-2e21), "-2e+21"},
		{NewInt(9223372036854775807), "9223372036854775807"},
		{NewText("Brad Pitt"), "Brad Pitt"},
		{NewBool(false), "false"},
		{NewBool(true), "true"},
		{Value{kind: Kind(42)}, "Value(42)"},
		{NewDate(time.Date(1935, 12, 1, 0, 0, 0, 0, time.UTC)), "1935-12-01"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.v.Kind(), got, c.want)
		}
		if got := string(c.v.AppendString([]byte("x"))); got != "x"+c.want {
			t.Errorf("AppendString(%v) = %q, want %q", c.v.Kind(), got, "x"+c.want)
		}
	}
}

func TestSQL(t *testing.T) {
	if got := NewText("O'Brien").SQL(); got != "'O''Brien'" {
		t.Errorf("SQL text escaping = %q", got)
	}
	if got := NewInt(5).SQL(); got != "5" {
		t.Errorf("SQL int = %q", got)
	}
	if got := NewBool(true).SQL(); got != "TRUE" {
		t.Errorf("SQL bool = %q", got)
	}
	if got := NewDate(time.Date(2005, 1, 2, 0, 0, 0, 0, time.UTC)).SQL(); got != "DATE '2005-01-02'" {
		t.Errorf("SQL date = %q", got)
	}
}

func TestProse(t *testing.T) {
	d := NewDate(time.Date(1935, 12, 1, 0, 0, 0, 0, time.UTC))
	if got := d.Prose(); got != "December 1, 1935" {
		t.Errorf("Prose date = %q", got)
	}
	if got := NewText("hi").Prose(); got != "hi" {
		t.Errorf("Prose text = %q", got)
	}
}

func TestEqual(t *testing.T) {
	if !NewInt(1).Equal(NewFloat(1.0)) {
		t.Error("1 should equal 1.0")
	}
	if NewInt(1).Equal(NewText("1")) {
		t.Error("1 should not equal '1'")
	}
	if !NewNull().Equal(NewNull()) {
		t.Error("strict NULL equality")
	}
	if NewText("a").Equal(NewText("b")) {
		t.Error("a != b")
	}
	d1 := NewDate(time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC))
	d2 := NewDate(time.Date(2000, 1, 1, 5, 0, 0, 0, time.UTC))
	if !d1.Equal(d2) {
		t.Error("dates equal after truncation")
	}
}

func TestCompare(t *testing.T) {
	lt := func(a, b Value) {
		t.Helper()
		c, err := a.Compare(b)
		if err != nil || c != -1 {
			t.Errorf("Compare(%v,%v) = %d, %v; want -1", a, b, c, err)
		}
	}
	lt(NewInt(1), NewInt(2))
	lt(NewInt(1), NewFloat(1.5))
	lt(NewText("a"), NewText("b"))
	lt(NewBool(false), NewBool(true))
	lt(NewDate(time.Date(2003, 1, 1, 0, 0, 0, 0, time.UTC)),
		NewDate(time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)))
	if c, err := NewInt(3).Compare(NewInt(3)); err != nil || c != 0 {
		t.Errorf("Compare equal = %d, %v", c, err)
	}
	if c, err := NewInt(4).Compare(NewInt(3)); err != nil || c != 1 {
		t.Errorf("Compare greater = %d, %v", c, err)
	}
	if _, err := NewNull().Compare(NewInt(1)); err == nil {
		t.Error("NULL comparison must error")
	}
	if _, err := NewText("a").Compare(NewInt(1)); err == nil {
		t.Error("cross-kind comparison must error")
	}
}

func TestKey(t *testing.T) {
	if NewInt(1).Key() != NewFloat(1).Key() {
		t.Error("1 and 1.0 must share a key")
	}
	if NewInt(1).Key() == NewText("1").Key() {
		t.Error("1 and '1' must not share a key")
	}
	if NewNull().Key() != "n" {
		t.Error("NULL key")
	}
	if NewBool(true).Key() == NewBool(false).Key() {
		t.Error("bool keys must differ")
	}
}

func TestCoerce(t *testing.T) {
	v, err := Coerce(NewInt(3), Float)
	if err != nil || v.Float() != 3.0 {
		t.Errorf("Int→Float: %v, %v", v, err)
	}
	v, err = Coerce(NewFloat(3.0), Int)
	if err != nil || v.Int() != 3 {
		t.Errorf("Float→Int: %v, %v", v, err)
	}
	if _, err = Coerce(NewFloat(3.5), Int); err == nil {
		t.Error("lossy Float→Int accepted")
	}
	v, err = Coerce(NewText("1935-12-01"), Date)
	if err != nil || v.Date().Year() != 1935 {
		t.Errorf("Text→Date: %v, %v", v, err)
	}
	v, err = Coerce(NewText("42"), Int)
	if err != nil || v.Int() != 42 {
		t.Errorf("Text→Int: %v, %v", v, err)
	}
	v, err = Coerce(NewNull(), Int)
	if err != nil || !v.IsNull() {
		t.Errorf("NULL coerces to anything: %v, %v", v, err)
	}
	if _, err = Coerce(NewBool(true), Int); err == nil {
		t.Error("Bool→Int accepted")
	}
}

func TestParse(t *testing.T) {
	v, err := Parse("42", Int)
	if err != nil || v.Int() != 42 {
		t.Errorf("Parse int: %v %v", v, err)
	}
	v, err = Parse("", Int)
	if err != nil || !v.IsNull() {
		t.Errorf("Parse empty: %v %v", v, err)
	}
	v, err = Parse("December 1, 1935", Date)
	if err != nil || v.Date().Month() != time.December {
		t.Errorf("Parse narrative date: %v %v", v, err)
	}
	v, err = Parse("yes", Bool)
	if err != nil || !v.Bool() {
		t.Errorf("Parse bool: %v %v", v, err)
	}
	if _, err = Parse("xyz", Int); err == nil {
		t.Error("Parse bad int accepted")
	}
	if _, err = Parse("maybe", Bool); err == nil {
		t.Error("Parse bad bool accepted")
	}
	v, err = Parse("3.25", Float)
	if err != nil || v.Float() != 3.25 {
		t.Errorf("Parse float: %v %v", v, err)
	}
}

func TestCatalogKind(t *testing.T) {
	cases := map[catalog.Type]Kind{
		catalog.Int: Int, catalog.Float: Float, catalog.Text: Text,
		catalog.Date: Date, catalog.Bool: Bool,
	}
	for in, want := range cases {
		if got := CatalogKind(in); got != want {
			t.Errorf("CatalogKind(%v) = %v, want %v", in, got, want)
		}
	}
}

func TestKindString(t *testing.T) {
	if Null.String() != "NULL" || Int.String() != "INT" {
		t.Error("Kind.String basics")
	}
	if !strings.Contains(Kind(42).String(), "42") {
		t.Error("unknown kind string")
	}
}

// Property: Compare is antisymmetric over ints.
func TestComparePropertyInts(t *testing.T) {
	f := func(a, b int64) bool {
		x, y := NewInt(a), NewInt(b)
		c1, err1 := x.Compare(y)
		c2, err2 := y.Compare(x)
		return err1 == nil && err2 == nil && c1 == -c2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Equal values share a Key; unequal text values do not.
func TestKeyProperty(t *testing.T) {
	f := func(a, b string) bool {
		x, y := NewText(a), NewText(b)
		if x.Equal(y) {
			return x.Key() == y.Key()
		}
		return x.Key() != y.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Parse(String) round-trips ints.
func TestParseRoundTripProperty(t *testing.T) {
	f := func(n int64) bool {
		v := NewInt(n)
		back, err := Parse(v.String(), Int)
		return err == nil && back.Equal(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMoreAccessorPanics(t *testing.T) {
	checkPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	checkPanic("Text on int", func() { NewInt(1).Text() })
	checkPanic("Date on int", func() { NewInt(1).Date() })
	checkPanic("Bool on int", func() { NewInt(1).Bool() })
	checkPanic("Float on text", func() { NewText("x").Float() })
}

func TestCoerceMoreBranches(t *testing.T) {
	v, err := Coerce(NewDate(time.Date(2005, 1, 2, 0, 0, 0, 0, time.UTC)), Text)
	if err != nil || v.Text() != "2005-01-02" {
		t.Errorf("Date→Text = %v, %v", v, err)
	}
	v, err = Coerce(NewText("2.5"), Float)
	if err != nil || v.Float() != 2.5 {
		t.Errorf("Text→Float = %v, %v", v, err)
	}
	if _, err := Coerce(NewText("xx"), Float); err == nil {
		t.Error("bad Text→Float accepted")
	}
	if _, err := Coerce(NewText("xx"), Int); err == nil {
		t.Error("bad Text→Int accepted")
	}
	if _, err := Coerce(NewText("bad-date"), Date); err == nil {
		t.Error("bad Text→Date accepted")
	}
	// Same-kind coercion is identity.
	v, err = Coerce(NewInt(5), Int)
	if err != nil || v.Int() != 5 {
		t.Errorf("identity coerce = %v, %v", v, err)
	}
}

func TestIsNumeric(t *testing.T) {
	if !NewInt(1).IsNumeric() || !NewFloat(1).IsNumeric() {
		t.Error("numeric kinds")
	}
	if NewText("1").IsNumeric() || NewNull().IsNumeric() {
		t.Error("non-numeric kinds")
	}
}

func TestParseDateKindAndErrors(t *testing.T) {
	if _, err := Parse("garbage", Date); err == nil {
		t.Error("bad date accepted")
	}
	if _, err := Parse("1", Kind(99)); err == nil {
		t.Error("unknown kind accepted")
	}
	v, err := Parse("t", Bool)
	if err != nil || !v.Bool() {
		t.Errorf("Parse bool t = %v, %v", v, err)
	}
	v, err = Parse("0", Bool)
	if err != nil || v.Bool() {
		t.Errorf("Parse bool 0 = %v, %v", v, err)
	}
}

func TestEqualSameKindBranches(t *testing.T) {
	d1 := NewDate(time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC))
	d2 := NewDate(time.Date(2001, 1, 1, 0, 0, 0, 0, time.UTC))
	if d1.Equal(d2) {
		t.Error("different dates equal")
	}
	if !NewBool(true).Equal(NewBool(true)) || NewBool(true).Equal(NewBool(false)) {
		t.Error("bool equality")
	}
	if NewFloat(1.5).Equal(NewFloat(2.5)) {
		t.Error("float equality")
	}
	if NewNull().Equal(NewInt(0)) {
		t.Error("null vs int")
	}
}
