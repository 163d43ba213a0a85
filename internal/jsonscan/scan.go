// Package jsonscan is the minimal recursive-descent JSON reader behind the
// hand-written record decoders (telemetry's SessionRecord, social's Post):
// whitespace, strings, literals, numbers, and object/array iteration over
// one input line. It reads the line in place and borrows tokens from it
// instead of allocating them, and leaves typing to the decoder that drives
// it.
package jsonscan

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"
)

// Scanner reads JSON in place; its zero value reads an empty input.
type Scanner struct {
	data string
	pos  int
	// lenient also takes the \' escape, which the JSON grammar lacks but
	// encoding/json's unquote (and the session codec, from its first
	// version) accepts.
	lenient bool
}

// New scans data under the JSON grammar's string escapes. It reads data in
// place, without copying it: String and NumberToken return views of data,
// valid while data is unchanged, so a decoder copies (StringCopy) every
// string it keeps.
func New(data []byte) Scanner { return Scanner{data: view(data)} }

// NewLenient is New that also takes \' as an escaped quote.
func NewLenient(data []byte) Scanner { return Scanner{data: view(data), lenient: true} }

// view is data as a string without a copy; see New for the rule it needs.
func view(data []byte) string { return unsafe.String(unsafe.SliceData(data), len(data)) }

// SyntaxErr reports msg at the cursor.
func (s *Scanner) SyntaxErr(msg string) error {
	return fmt.Errorf("invalid JSON at offset %d: %s", s.pos, msg)
}

// SkipSpace advances past JSON whitespace.
func (s *Scanner) SkipSpace() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// AtEnd reports whether only whitespace is left.
func (s *Scanner) AtEnd() bool {
	s.SkipSpace()
	return s.pos == len(s.data)
}

// peekIs reports whether the next byte is c.
func (s *Scanner) peekIs(c byte) bool {
	return s.pos < len(s.data) && s.data[s.pos] == c
}

func (s *Scanner) next() (byte, error) {
	if s.pos >= len(s.data) {
		return 0, s.SyntaxErr("unexpected end of input")
	}
	c := s.data[s.pos]
	s.pos++
	return c, nil
}

// expect consumes c or fails.
func (s *Scanner) expect(c byte) error {
	if !s.peekIs(c) {
		return s.SyntaxErr("expected " + strconv.QuoteRune(rune(c)))
	}
	s.pos++
	return nil
}

func (s *Scanner) expectLit(lit string) error {
	if !strings.HasPrefix(s.data[s.pos:], lit) {
		return s.SyntaxErr("invalid literal")
	}
	s.pos += len(lit)
	return nil
}

// TryNull consumes a null literal if present; decoders leave the target
// zero, as json.Unmarshal does.
func (s *Scanner) TryNull() bool {
	if strings.HasPrefix(s.data[s.pos:], "null") {
		s.pos += 4
		return true
	}
	return false
}

// Bool reads true or false.
func (s *Scanner) Bool() (bool, error) {
	switch {
	case s.peekIs('t'):
		return true, s.expectLit("true")
	case s.peekIs('f'):
		return false, s.expectLit("false")
	default:
		return false, s.SyntaxErr("expected boolean")
	}
}

// Object reads the object at the cursor, calling member with each key and
// the cursor on that key's value, which member must consume.
func (s *Scanner) Object(member func(key string) error) error {
	if err := s.expect('{'); err != nil {
		return err
	}
	s.SkipSpace()
	if s.peekIs('}') {
		s.pos++
		return nil
	}
	for {
		key, err := s.String()
		if err != nil {
			return err
		}
		s.SkipSpace()
		if err := s.expect(':'); err != nil {
			return err
		}
		s.SkipSpace()
		if err := member(key); err != nil {
			return err
		}
		s.SkipSpace()
		c, err := s.next()
		if err != nil {
			return err
		}
		if c == '}' {
			return nil
		}
		if c != ',' {
			return s.SyntaxErr("expected ',' or '}' in object")
		}
		s.SkipSpace()
	}
}

// Array reads the array at the cursor, calling elem with the cursor on each
// element, which elem must consume.
func (s *Scanner) Array(elem func() error) error {
	if err := s.expect('['); err != nil {
		return err
	}
	s.SkipSpace()
	if s.peekIs(']') {
		s.pos++
		return nil
	}
	for {
		s.SkipSpace()
		if err := elem(); err != nil {
			return err
		}
		s.SkipSpace()
		c, err := s.next()
		if err != nil {
			return err
		}
		if c == ']' {
			return nil
		}
		if c != ',' {
			return s.SyntaxErr("expected ',' or ']' in array")
		}
	}
}

// NumberToken consumes a number (or null, returning "") and returns the
// raw token as a substring of the input. It takes any run of the bytes a
// number may hold, leaving the spelling to the strconv call that follows.
func (s *Scanner) NumberToken() (string, error) {
	if s.TryNull() {
		return "", nil
	}
	start := s.pos
	if s.peekIs('-') {
		s.pos++
	}
	for s.pos < len(s.data) && isNumberByte(s.data[s.pos]) {
		s.pos++
	}
	if s.pos == start {
		return "", s.SyntaxErr("expected number")
	}
	return s.data[start:s.pos], nil
}

// isNumberByte reports whether NumberToken takes c into a token.
func isNumberByte(c byte) bool {
	return (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-'
}

// String parses a JSON string. The result aliases the input when no
// unescaping was needed.
func (s *Scanner) String() (string, error) {
	seg, verbatim, err := s.stringToken()
	if err != nil || verbatim {
		return seg, err
	}
	return s.unescape(seg)
}

// StringCopy is String for a value kept past the input: the result never
// aliases it.
func (s *Scanner) StringCopy() (string, error) {
	seg, verbatim, err := s.stringToken()
	switch {
	case err != nil:
		return "", err
	case verbatim:
		return strings.Clone(seg), nil
	default:
		return s.unescape(seg)
	}
}

// plainByte marks the bytes a string body holds as they are: printable
// ASCII but the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// stringToken consumes a string literal and returns its body; verbatim
// reports a body that is its own value (no escapes, all ASCII).
func (s *Scanner) stringToken() (seg string, verbatim bool, err error) {
	if !s.peekIs('"') {
		return "", false, s.SyntaxErr("expected string")
	}
	s.pos++
	start := s.pos
	verbatim = true
	for s.pos < len(s.data) {
		if plainByte[s.data[s.pos]] {
			s.pos++
			continue
		}
		switch c := s.data[s.pos]; {
		case c == '"':
			seg := s.data[start:s.pos]
			s.pos++
			return seg, verbatim, nil
		case c == '\\':
			verbatim = false
			s.pos++
			if s.pos < len(s.data) {
				s.pos++ // the escaped character is never a delimiter
			}
		case c < 0x20:
			return "", false, s.SyntaxErr("control character in string literal")
		default:
			verbatim = false // c ≥ 0x80: re-encode to well-formed UTF-8
			s.pos++
		}
	}
	return "", false, s.SyntaxErr("unterminated string literal")
}

// unescape resolves escapes and coerces the text to well-formed UTF-8,
// exactly as encoding/json's unquote does (lone surrogates and invalid
// bytes become U+FFFD).
func (s *Scanner) unescape(str string) (string, error) {
	b := make([]byte, 0, len(str)+2*utf8.UTFMax)
	for r := 0; r < len(str); {
		switch c := str[r]; {
		case c == '\\':
			r++
			if r >= len(str) {
				return "", errors.New("truncated escape in string")
			}
			switch str[r] {
			case '\'':
				if !s.lenient {
					return "", errors.New("invalid escape character in string")
				}
				fallthrough
			case '"', '\\', '/':
				b = append(b, str[r])
				r++
			case 'b':
				b = append(b, '\b')
				r++
			case 'f':
				b = append(b, '\f')
				r++
			case 'n':
				b = append(b, '\n')
				r++
			case 'r':
				b = append(b, '\r')
				r++
			case 't':
				b = append(b, '\t')
				r++
			case 'u':
				r--
				rr := getu4(str[r:])
				if rr < 0 {
					return "", errors.New(`invalid \u escape in string`)
				}
				r += 6
				if utf16.IsSurrogate(rr) {
					rr1 := getu4(str[r:])
					if dec := utf16.DecodeRune(rr, rr1); dec != unicode.ReplacementChar {
						r += 6
						b = utf8.AppendRune(b, dec)
						break
					}
					rr = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, rr)
			default:
				return "", errors.New("invalid escape character in string")
			}
		case c < utf8.RuneSelf:
			b = append(b, c)
			r++
		default:
			rr, size := utf8.DecodeRuneInString(str[r:])
			r += size
			b = utf8.AppendRune(b, rr)
		}
	}
	return string(b), nil
}

// getu4 decodes the four hex digits of a \uXXXX escape, or -1.
func getu4(s string) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for i := 2; i < 6; i++ {
		c := s[i]
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// SkipValue consumes any JSON value (for unknown fields).
func (s *Scanner) SkipValue() error { return s.skipValue(0) }

func (s *Scanner) skipValue(depth int) error {
	if depth > 1000 {
		return s.SyntaxErr("value nested too deeply")
	}
	s.SkipSpace()
	if s.pos >= len(s.data) {
		return s.SyntaxErr("unexpected end of input")
	}
	switch s.data[s.pos] {
	case '"':
		_, err := s.String()
		return err
	case '{':
		return s.Object(func(string) error { return s.skipValue(depth + 1) })
	case '[':
		return s.Array(func() error { return s.skipValue(depth + 1) })
	case 't':
		return s.expectLit("true")
	case 'f':
		return s.expectLit("false")
	case 'n':
		return s.expectLit("null")
	default:
		_, err := s.NumberToken()
		return err
	}
}
