// Reflection-free decoder for one JSONL stream record. A record is an object
// with four integer fields (t, d, w) and an integer array (alts), so a
// hand-written parser decodes it without encoding/json's reflection and
// without allocating once the caller's Alts buffer is wide enough.
//
// The contract is encoding/json's, byte for byte: the parser accepts exactly
// the lines that json.Unmarshal into a fresh fileRecord accepts and yields the
// same record. That covers key folding (ASCII case plus unicode.SimpleFold),
// escaped keys, duplicate keys, null values, unknown keys with arbitrary valid
// JSON values nested up to encoding/json's depth limit, and the JSON number
// and string grammars. FuzzDecodeStreamRecord checks the two decoders against
// each other.
package trace

import (
	"math"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// maxNestingDepth is encoding/json's limit on nested arrays and objects,
// counting the record object itself.
const maxNestingDepth = 10000

// The fields of fileRecord a key can name.
const (
	fieldUnknown = iota
	fieldT
	fieldD
	fieldW
	fieldAlts
)

// recordParser decodes one line into fileRecord's fields.
type recordParser struct {
	s []byte
	i int
	// buf holds the alts elements written so far on this line. Like
	// encoding/json, a repeated "alts" key decodes into the slice the earlier
	// one left, and a null element keeps what that slice held at its index
	// (zero past its end).
	buf []int
	// msg and at describe the first error.
	msg string
	at  int
}

func (p *recordParser) fail(msg string) bool {
	p.msg, p.at = msg, p.i
	return false
}

func (p *recordParser) skipSpace() {
	if p.i < len(p.s) && p.s[p.i] > ' ' {
		return
	}
	for p.i < len(p.s) {
		switch p.s[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// consume advances past c if it is the next byte.
func (p *recordParser) consume(c byte) bool {
	if p.i < len(p.s) && p.s[p.i] == c {
		p.i++
		return true
	}
	return false
}

func (p *recordParser) peek(c byte) bool { return p.i < len(p.s) && p.s[p.i] == c }

// record parses the whole line. The record's Alts aliases p.buf.
func (p *recordParser) record() (rec fileRecord, ok bool) {
	p.skipSpace()
	if !p.consume('{') {
		return rec, p.fail("want a JSON object")
	}
	p.skipSpace()
	if p.consume('}') {
		return rec, p.end()
	}
	for {
		p.skipSpace()
		field, ok := p.key()
		if !ok {
			return rec, false
		}
		p.skipSpace()
		if !p.consume(':') {
			return rec, p.fail("want ':' after object key")
		}
		p.skipSpace()
		switch field {
		case fieldT:
			ok = p.intField(&rec.T)
		case fieldD:
			ok = p.intField(&rec.D)
		case fieldW:
			ok = p.intField(&rec.W)
		case fieldAlts:
			ok = p.altsField(&rec.Alts)
		default:
			ok = p.skipValue(2)
		}
		if !ok {
			return rec, false
		}
		p.skipSpace()
		if p.consume(',') {
			continue
		}
		if p.consume('}') {
			return rec, p.end()
		}
		return rec, p.fail("want ',' or '}' after object value")
	}
}

// end accepts only whitespace after the record's closing brace.
func (p *recordParser) end() bool {
	p.skipSpace()
	if p.i < len(p.s) {
		return p.fail("data after the record object")
	}
	return true
}

// key parses an object key and names the field it selects.
func (p *recordParser) key() (int, bool) {
	if !p.consume('"') {
		return fieldUnknown, p.fail("want a quoted object key")
	}
	start := p.i
	plain, ok := p.stringBody()
	if !ok {
		return fieldUnknown, false
	}
	raw := p.s[start : p.i-1]
	if plain {
		return plainField(raw), true
	}
	return foldedField(raw), true
}

// plainField matches a key of ASCII bytes without escapes. For ASCII letters
// encoding/json's fold is case: b|0x20 equals a lower-case letter exactly
// when b is that letter in either case.
func plainField(raw []byte) int {
	switch len(raw) {
	case 1:
		switch raw[0] | 0x20 {
		case 't':
			return fieldT
		case 'd':
			return fieldD
		case 'w':
			return fieldW
		}
	case 4:
		if raw[0]|0x20 == 'a' && raw[1]|0x20 == 'l' && raw[2]|0x20 == 't' && raw[3]|0x20 == 's' {
			return fieldAlts
		}
	}
	return fieldUnknown
}

// foldedField matches a key with escapes or non-ASCII bytes: it unquotes the
// key rune by rune and compares encoding/json's folded forms, so "altſ"
// (U+017F folds to 'S') and "\u0074" both match their fields.
func foldedField(raw []byte) int {
	var k [4]rune
	n := 0
	for j := 0; j < len(raw); {
		r, size := unquoteRune(raw[j:])
		j += size
		if n == len(k) {
			return fieldUnknown
		}
		k[n] = foldRune(r)
		n++
	}
	switch {
	case n == 1 && k[0] == 'T':
		return fieldT
	case n == 1 && k[0] == 'D':
		return fieldD
	case n == 1 && k[0] == 'W':
		return fieldW
	case n == 4 && k == [4]rune{'A', 'L', 'T', 'S'}:
		return fieldAlts
	}
	return fieldUnknown
}

// foldRune is encoding/json's key fold: upper case for ASCII, the smallest
// rune of the unicode.SimpleFold orbit otherwise.
func foldRune(r rune) rune {
	if r < utf8.RuneSelf {
		if 'a' <= r && r <= 'z' {
			r -= 'a' - 'A'
		}
		return r
	}
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// unquoteRune decodes the first rune of validated string content as
// encoding/json unquotes it: invalid UTF-8 and unpaired surrogate escapes
// become U+FFFD.
func unquoteRune(s []byte) (rune, int) {
	if s[0] != '\\' {
		if s[0] < utf8.RuneSelf {
			return rune(s[0]), 1
		}
		return utf8.DecodeRune(s)
	}
	switch s[1] {
	case 'u':
		r := hex4(s[2:6])
		if !utf16.IsSurrogate(r) {
			return r, 6
		}
		if len(s) >= 12 && s[6] == '\\' && s[7] == 'u' {
			if dec := utf16.DecodeRune(r, hex4(s[8:12])); dec != unicode.ReplacementChar {
				return dec, 12
			}
		}
		return unicode.ReplacementChar, 6
	case 'b':
		return '\b', 2
	case 'f':
		return '\f', 2
	case 'n':
		return '\n', 2
	case 'r':
		return '\r', 2
	case 't':
		return '\t', 2
	default: // '"', '\\', '/'
		return rune(s[1]), 2
	}
}

// hex4 decodes four validated hex digits.
func hex4(s []byte) rune {
	var r rune
	for _, c := range s[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c <= 'F':
			c -= 'A' - 10
		default:
			c -= 'a' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// stringBody consumes string content through the closing quote, validating
// it as JSON does: no control characters, only the eight escapes. plain
// reports content of ASCII bytes without escapes.
func (p *recordParser) stringBody() (plain, ok bool) {
	plain = true
	for p.i < len(p.s) {
		c := p.s[p.i]
		switch {
		case c == '"':
			p.i++
			return plain, true
		case c < 0x20:
			return false, p.fail("control character in string")
		case c == '\\':
			plain = false
			if p.i+1 >= len(p.s) {
				p.i++
				return false, p.fail("unterminated string")
			}
			switch p.s[p.i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				p.i += 2
			case 'u':
				for k := p.i + 2; k < p.i+6; k++ {
					if k >= len(p.s) || !isHex(p.s[k]) {
						p.i = k
						return false, p.fail("invalid \\u escape in string")
					}
				}
				p.i += 6
			default:
				p.i++
				return false, p.fail("invalid escape in string")
			}
		default:
			if c >= utf8.RuneSelf {
				plain = false
			}
			p.i++
		}
	}
	return false, p.fail("unterminated string")
}

// literal consumes the keyword word.
func (p *recordParser) literal(word string) bool {
	if len(p.s)-p.i < len(word) || string(p.s[p.i:p.i+len(word)]) != word {
		return p.fail("invalid literal")
	}
	p.i += len(word)
	return true
}

// intField decodes t, d or w. null leaves the field as it is, as
// encoding/json does for a non-pointer int.
func (p *recordParser) intField(dst *int) bool {
	if p.peek('n') {
		return p.literal("null")
	}
	v, ok := p.integer()
	if ok {
		*dst = v
	}
	return ok
}

// integer parses a JSON number that must be an integer in int's range: no
// fraction, no exponent, no overflow. "-0" is 0.
func (p *recordParser) integer() (int, bool) {
	neg := p.consume('-')
	if p.i >= len(p.s) || p.s[p.i] < '0' || p.s[p.i] > '9' {
		return 0, p.fail("want an integer")
	}
	var u uint64
	if !p.consume('0') {
		// Nineteen digits cannot wrap a uint64; twenty exceed any int64.
		start := p.i
		for p.i < len(p.s) && '0' <= p.s[p.i] && p.s[p.i] <= '9' {
			if p.i-start == 19 {
				return 0, p.fail("integer out of range")
			}
			u = u*10 + uint64(p.s[p.i]-'0')
			p.i++
		}
	}
	if p.peek('.') || p.peek('e') || p.peek('E') {
		return 0, p.fail("want an integer, not a fraction or exponent")
	}
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	if u > limit {
		return 0, p.fail("integer out of range")
	}
	if neg {
		return int(-u), true // wraps to math.MinInt at u = limit
	}
	return int(u), true
}

// altsField decodes alts: null drops the alternatives, an array of integers
// and nulls sets them.
func (p *recordParser) altsField(alts *[]int) bool {
	if p.peek('n') {
		if !p.literal("null") {
			return false
		}
		p.buf = p.buf[:0]
		*alts = nil
		return true
	}
	if !p.consume('[') {
		return p.fail("want an array of integers for alts")
	}
	p.skipSpace()
	if p.consume(']') {
		// encoding/json installs a fresh empty slice here, forgetting
		// what earlier elements held.
		p.buf = p.buf[:0]
		*alts = p.buf
		return true
	}
	for k := 0; ; k++ {
		p.skipSpace()
		v := 0
		if p.peek('n') {
			if !p.literal("null") {
				return false
			}
			if k < len(p.buf) {
				v = p.buf[k]
			}
		} else {
			var ok bool
			if v, ok = p.integer(); !ok {
				return false
			}
		}
		if k < len(p.buf) {
			p.buf[k] = v
		} else {
			p.buf = append(p.buf, v)
		}
		p.skipSpace()
		if p.consume(',') {
			continue
		}
		if p.consume(']') {
			*alts = p.buf[:k+1]
			return true
		}
		return p.fail("want ',' or ']' in alts")
	}
}

// skipValue validates and skips any JSON value, the value of an unknown key.
// depth is the nesting depth a container starting here would have.
func (p *recordParser) skipValue(depth int) bool {
	if p.i >= len(p.s) {
		return p.fail("unexpected end of line")
	}
	switch c := p.s[p.i]; c {
	case '{', '[':
		if depth > maxNestingDepth {
			return p.fail("exceeded max nesting depth")
		}
		p.i++
		closer := byte(']')
		if c == '{' {
			closer = '}'
		}
		p.skipSpace()
		if p.consume(closer) {
			return true
		}
		for {
			p.skipSpace()
			if c == '{' {
				if !p.consume('"') {
					return p.fail("want a quoted object key")
				}
				if _, ok := p.stringBody(); !ok {
					return false
				}
				p.skipSpace()
				if !p.consume(':') {
					return p.fail("want ':' after object key")
				}
				p.skipSpace()
			}
			if !p.skipValue(depth + 1) {
				return false
			}
			p.skipSpace()
			if p.consume(',') {
				continue
			}
			if p.consume(closer) {
				return true
			}
			return p.fail("want ',' or a closing bracket")
		}
	case '"':
		p.i++
		_, ok := p.stringBody()
		return ok
	case 't':
		return p.literal("true")
	case 'f':
		return p.literal("false")
	case 'n':
		return p.literal("null")
	}
	return p.number()
}

// number validates and skips a JSON number:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (p *recordParser) number() bool {
	p.consume('-')
	if !p.consume('0') && p.digits() == 0 {
		return p.fail("invalid value")
	}
	if p.consume('.') && p.digits() == 0 {
		return p.fail("want a digit after the decimal point")
	}
	if p.consume('e') || p.consume('E') {
		if !p.consume('+') {
			p.consume('-')
		}
		if p.digits() == 0 {
			return p.fail("want a digit in the exponent")
		}
	}
	return true
}

func (p *recordParser) digits() int {
	start := p.i
	for p.i < len(p.s) && '0' <= p.s[p.i] && p.s[p.i] <= '9' {
		p.i++
	}
	return p.i - start
}
