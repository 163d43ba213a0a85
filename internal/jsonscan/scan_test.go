package jsonscan

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// checkFloat is the fast path's contract on one input: when Float accepts,
// NumberToken cuts the same token, strconv.ParseFloat accepts it (finite),
// and the bits agree; when Float declines, the cursor has not moved.
func checkFloat(t *testing.T, in string) (accepted bool) {
	t.Helper()
	s := New([]byte(in))
	v, ok := s.Float()
	if !ok {
		if s.pos != 0 {
			t.Fatalf("Float(%q) declined but moved the cursor to %d", in, s.pos)
		}
		return false
	}
	ref := New([]byte(in))
	tok, err := ref.NumberToken()
	if err != nil || tok == "" || ref.pos != s.pos {
		t.Fatalf("Float(%q) took %q, NumberToken takes %q (%v)", in, in[:s.pos], tok, err)
	}
	want, err := strconv.ParseFloat(tok, 64)
	if err != nil || math.IsInf(want, 0) {
		t.Fatalf("Float(%q) = %v, but strconv rejects %q: %v", in, v, tok, err)
	}
	if math.Float64bits(v) != math.Float64bits(want) {
		t.Fatalf("Float(%q) = %v (%#x), strconv %v (%#x)", in, v, math.Float64bits(v), want, math.Float64bits(want))
	}
	return true
}

func TestFloatMatchesStrconv(t *testing.T) {
	fixed := []string{
		"0", "-0", "0.0", "-0.0", "0e500", "-0e-500", "1", "-1", "0.1", "0.3", "123.456",
		"1e22", "1e23", "9007199254740992", "9007199254740993", "9007199254740995",
		"1.7976931348623157e308", "1.7976931348623159e308", "2.2250738585072014e-308",
		"2.2250738585072011e-308", "4.9e-324", "5e-324", "1e-400", "1e400", "1e-7",
		"8.41e21", "2.5e-6", "12345678901234567890", "1234567890123456789",
		"0.000000000000000000000000000001", "1E5", "1e+5", "1e-5", "7.0e-10",
		"01", "+1", ".5", "1.", "1.e5", "1e", "1e+", "-", "--1", "1..2", "1e5.5",
		"null", "true", "x", "", "1_0", "0x10", "Inf", "NaN", "1,", "1}", "1 ",
	}
	for _, in := range fixed {
		checkFloat(t, in)
	}
	// How encoding/json writes float64s, which is what every record holds.
	rng := rand.New(rand.NewSource(1))
	accepted := 0
	const n = 200000
	for i := 0; i < n; i++ {
		var f float64
		switch i % 4 {
		case 0:
			f = math.Float64frombits(rng.Uint64())
		case 1:
			f = rng.Float64() * 500
		case 2:
			f = math.Floor(rng.Float64() * 1e6)
		default:
			f = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		if checkFloat(t, strconv.FormatFloat(f, 'g', -1, 64)+",") {
			accepted++
		}
		checkFloat(t, strconv.FormatFloat(f, 'f', -1, 64))
		checkFloat(t, strconv.FormatFloat(f, 'e', 17, 64))
	}
	if accepted < n*9/10 {
		t.Errorf("fast path took %d of %d shortest spellings; it should take nearly all", accepted, n)
	}
	// Random digit strings near and past the table's ends, and halfway
	// cases: a 17-digit value with a 5 appended sits between two floats.
	for i := 0; i < 100000; i++ {
		digits := strconv.FormatUint(rng.Uint64()>>uint(rng.Intn(64)), 10)
		if i%3 == 0 {
			digits = strconv.FormatFloat(rng.Float64(), 'e', 16, 64)[:1] + strconv.FormatFloat(rng.Float64(), 'e', 16, 64)[2:18] + "5"
		}
		checkFloat(t, digits+"e"+strconv.Itoa(rng.Intn(720)-360))
	}
}

func FuzzParseFloat(f *testing.F) {
	for _, seed := range []string{
		"0", "-0", "0.1", "123.456", "1e23", "9007199254740993", "1.7976931348623157e308",
		"2.2250738585072011e-308", "4.9e-324", "1e-400", "1e400", "8.41e21",
		"12345678901234567890", "01", "+1", ".5", "1.", "1e", "-", "1e5.5", "null",
		"1,", "7.0e-10", "0.000000000000000000000000000001",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) { checkFloat(t, in) })
}

func TestIntegers(t *testing.T) {
	for _, c := range []struct {
		in  string
		u   uint64
		uok bool
		i   int64
		iok bool
	}{
		{"0", 0, true, 0, true},
		{"42,", 42, true, 42, true},
		{"-7", 0, false, -7, true},
		{"-0", 0, false, 0, true},
		{"9999999999999999999", 9999999999999999999, true, 0, false},
		{"10000000000000000000", 0, false, 0, false},
		{"9223372036854775807", 9223372036854775807, true, math.MaxInt64, true},
		{"-9223372036854775808", 0, false, 0, false},
		{"01", 0, false, 0, false},
		{"1.0", 0, false, 0, false},
		{"1e2", 0, false, 0, false},
		{"+1", 0, false, 0, false},
		{"null", 0, false, 0, false},
	} {
		s := New([]byte(c.in))
		if u, ok := s.Uint(); ok != c.uok || u != c.u || (!ok && s.pos != 0) {
			t.Errorf("Uint(%q) = %d, %v (cursor %d)", c.in, u, ok, s.pos)
		}
		s = New([]byte(c.in))
		if i, ok := s.Int(); ok != c.iok || i != c.i || (!ok && s.pos != 0) {
			t.Errorf("Int(%q) = %d, %v (cursor %d)", c.in, i, ok, s.pos)
		}
	}
}

func TestStringEscapes(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{`"plain"`, "plain"},
		{`"a\"b\\c\/d\b\f\n\r\t"`, "a\"b\\c/d\b\f\n\r\t"},
		{`"Aé😀"`, "Aé😀"},
		{`"\ud800"`, "�"},
		{`"\ud800A"`, "�A"},
		{"\"bad\xffutf8\"", "bad�utf8"},
	} {
		s := New([]byte(c.in))
		if got, err := s.String(); err != nil || got != c.want {
			t.Errorf("String(%s) = %q, %v; want %q", c.in, got, err, c.want)
		}
	}
	for _, bad := range []string{`"\q"`, `"\u12"`, `"unterminated`, "\"ctrl\x01\"", `x`, `"\`} {
		s := New([]byte(bad))
		if _, err := s.String(); err == nil {
			t.Errorf("String(%q) accepted", bad)
		}
	}
	// \' is outside the JSON grammar; only the lenient scanner takes it.
	s, l := New([]byte(`"it\'s"`)), NewLenient([]byte(`"it\'s"`))
	if _, err := s.String(); err == nil {
		t.Error(`strict String took \'`)
	}
	if got, err := l.String(); err != nil || got != "it's" {
		t.Errorf(`lenient String(\') = %q, %v`, got, err)
	}
}

func TestSkipValue(t *testing.T) {
	for _, in := range []string{
		`1`, `-1.5e3`, `"s"`, `true`, `false`, `null`, `{}`, `[]`, ` [ ] `,
		`{"a":[1,{"b":null}],"c":"d"}`, `[1, "x", [true], {}]`,
	} {
		s := New([]byte(in + ","))
		err := s.SkipValue()
		if s.SkipSpace(); err != nil || !s.peekIs(',') {
			t.Errorf("SkipValue(%s): %v, stopped at %d", in, err, s.pos)
		}
	}
	for _, bad := range []string{``, `[1,]`, `{"a"}`, `{"a":1,}`, `tru`, `{"a":1 "b":2}`, `[1 2]`, strings.Repeat("[", 1002)} {
		s := New([]byte(bad))
		if err := s.SkipValue(); err == nil {
			t.Errorf("SkipValue(%q) accepted", bad)
		}
	}
}
