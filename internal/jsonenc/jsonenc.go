// Package jsonenc appends JSON strings and numbers to a byte slice,
// emitting exactly the bytes encoding/json emits for the same Go values.
// The trace, audit and time-series exporters build their records with
// it instead of marshalling structs through reflection. The byte
// contract is what keeps their output identical to the encoding/json
// schema they replaced; each exporter's fuzz test holds it to that
// schema.
package jsonenc

import (
	"errors"
	"math"
	"strconv"
	"unicode/utf8"
)

const hex = "0123456789abcdef"

// String appends s as a JSON string the way encoding/json writes a Go
// string with HTML escaping on (its default): '<', '>' and '&', U+2028
// and U+2029 are written as six-byte \u escapes, and each byte of
// invalid UTF-8 becomes the escaped replacement character, \ufffd.
func String(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == 0x2028 || c == 0x2029 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// Float appends f the way encoding/json writes a float64: the shortest
// 'f' form, or the 'e' form for magnitudes below 1e-6 or at least 1e21
// with a two-digit negative exponent trimmed (1e-07 → 1e-7). NaN and
// ±Inf, which JSON cannot represent, return dst unchanged and the error
// encoding/json reports for them.
func Float(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, errors.New("json: unsupported value: " + strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// Int appends a signed integer.
func Int(dst []byte, v int64) []byte { return strconv.AppendInt(dst, v, 10) }

// Uint appends an unsigned integer.
func Uint(dst []byte, v uint64) []byte { return strconv.AppendUint(dst, v, 10) }
