package jsonenc

import (
	"encoding/json"
	"math"
	"testing"
)

func TestStringMatchesEncodingJSON(t *testing.T) {
	for _, s := range []string{
		"", "plain", `quote " back \ slash`, "<a href='x'>&amp;</a>",
		"\x00\x01\x07\b\t\n\v\f\r\x1b\x1f\x7f",
		"line\xe2\x80\xa8sep\xe2\x80\xa9para",
		"bad \xff utf8 \xc3\x28 \xe2\x82", "caf\xc3\xa9 \xf0\x9f\x98\x80",
	} {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := String(nil, s); string(got) != string(want) {
			t.Errorf("String(%q) = %s, want %s", s, got, want)
		}
	}
}

func TestFloatMatchesEncodingJSON(t *testing.T) {
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1.5, 0.1, 1e-6, 9.99e-7, 1e-7, -1e-7,
		1e20, 1e21, -1e21, 123456789012345678901234.0, 5e-324,
		math.MaxFloat64, math.SmallestNonzeroFloat64, 1.0 / 3,
	} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Float(nil, f)
		if err != nil || string(got) != string(want) {
			t.Errorf("Float(%v) = %s, %v; want %s", f, got, err, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, want := json.Marshal(f)
		got, err := Float([]byte("x"), f)
		if err == nil || string(got) != "x" {
			t.Errorf("Float(%v) = %q, %v; want the input back and an error", f, got, err)
			continue
		}
		if wantMsg := want.Error(); err.Error() != wantMsg {
			t.Errorf("Float(%v) error %q, want %q", f, err, wantMsg)
		}
	}
}

func TestIntUint(t *testing.T) {
	b := Int(nil, -42)
	b = Uint(append(b, ' '), math.MaxUint64)
	if string(b) != "-42 18446744073709551615" {
		t.Fatalf("got %q", b)
	}
}
