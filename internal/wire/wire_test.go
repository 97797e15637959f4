package wire

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var e Enc
	e.Magic("XTST", 3)
	e.U(0)
	e.U(1<<63 + 5)
	e.B(true)
	e.B(false)
	e.Str("héllo")
	e.Strs([]string{"a", "", "bc"})
	e.Strs(nil)
	e.Bytes([]byte{0, 0xFF})

	d := NewDec("test", e)
	if v := d.Magic("XTST", 2, 3); v != 3 {
		t.Fatalf("Magic = %d, want 3", v)
	}
	if a, b := d.U(), d.U(); a != 0 || b != 1<<63+5 {
		t.Fatalf("U = %d, %d", a, b)
	}
	if !d.B() || d.B() {
		t.Fatal("B did not round-trip")
	}
	if s := d.Str(); s != "héllo" {
		t.Fatalf("Str = %q", s)
	}
	if got := d.Strs(); !reflect.DeepEqual(got, []string{"a", "", "bc"}) {
		t.Fatalf("Strs = %q", got)
	}
	if got := d.Strs(); len(got) != 0 {
		t.Fatalf("empty Strs = %q", got)
	}
	if got := d.Bytes(); !bytes.Equal(got, []byte{0, 0xFF}) {
		t.Fatalf("Bytes = %v", got)
	}
	if err := d.Done(); err != nil {
		t.Fatalf("Done = %v", err)
	}
}

// TestLatch: the first failure is the one reported, and every read after it
// returns the zero value without moving the reader.
func TestLatch(t *testing.T) {
	var e Enc
	e.U(7)
	e.U(2) // a bad bool
	e.U(9)
	e.Str("unread")
	d := NewDec("ctx", e)
	if d.U() != 7 || d.Err() != nil {
		t.Fatal("first read failed")
	}
	if d.B() || d.Err() == nil {
		t.Fatal("bool 2 accepted")
	}
	first, off := d.Err(), d.off
	if !strings.HasPrefix(first.Error(), "ctx: ") {
		t.Errorf("error %q does not carry its context", first)
	}
	if d.U() != 0 || d.B() || d.Str() != "" || len(d.Bytes()) != 0 || len(d.Strs()) != 0 ||
		d.Count("x", 1) != 0 || d.Magic("XTST", 1) != 0 {
		t.Error("a read after the failure returned a non-zero value")
	}
	if d.off != off {
		t.Errorf("reads after the failure advanced the reader %d -> %d", off, d.off)
	}
	if got := d.Failf("a later range check"); got != first {
		t.Errorf("Failf replaced the latched failure: %v", got)
	}
	if d.Err() != first || d.Done() != first {
		t.Errorf("Err/Done = %v / %v, want the first failure %v", d.Err(), d.Done(), first)
	}
}

func TestTruncationAndOverlongVarint(t *testing.T) {
	for name, data := range map[string][]byte{
		"empty":     {},
		"cut":       {0x80},
		"overlong":  bytes.Repeat([]byte{0xFF}, 11),
		"str cut":   {5, 'a', 'b'},
		"bytes cut": {0xFF, 0xFF, 0xFF, 0xFF, 0x0F},
	} {
		d := NewDec("test", data)
		if strings.HasPrefix(name, "str") || strings.HasPrefix(name, "bytes") {
			d.Str()
		} else {
			d.U()
		}
		if d.Err() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestMagic(t *testing.T) {
	var e Enc
	e.Magic("XTST", 2)
	for name, tc := range map[string]struct {
		data     []byte
		versions []uint64
		want     uint64
	}{
		"ok":          {e, []uint64{1, 2}, 2},
		"old version": {e, []uint64{3}, 0},
		"wrong magic": {append([]byte("XTSU"), 2), []uint64{2}, 0},
		"short":       {[]byte("XTS"), []uint64{2}, 0},
		"no version":  {[]byte("XTST"), []uint64{2}, 0},
	} {
		d := NewDec("test", tc.data)
		got := d.Magic("XTST", tc.versions...)
		if got != tc.want || (d.Err() == nil) != (tc.want != 0) {
			t.Errorf("%s: Magic = %d, err %v", name, got, d.Err())
		}
	}
}

// TestCountBoundary: a count is accepted exactly when that many records of
// the minimum size fit in what is left after it.
func TestCountBoundary(t *testing.T) {
	blob := func(n uint64, rest int) []byte {
		var e Enc
		e.U(n)
		return append(e, make([]byte, rest)...)
	}
	for _, tc := range []struct {
		n         uint64
		rest, min int
		ok        bool
	}{
		{0, 0, 3, true},
		{4, 12, 3, true},
		{4, 11, 3, false},
		{5, 14, 3, false},
		{1, 0, 1, false},
		{1 << 40, 1 << 10, 1, false},
		{1 << 10, 1 << 10, 1, true},
	} {
		d := NewDec("test", blob(tc.n, tc.rest))
		got := d.Count("record", tc.min)
		if tc.ok && (got != int(tc.n) || d.Err() != nil) {
			t.Errorf("Count(n=%d, rest=%d, min=%d) = %d, %v; want accepted", tc.n, tc.rest, tc.min, got, d.Err())
		}
		if !tc.ok && (got != 0 || d.Err() == nil) {
			t.Errorf("Count(n=%d, rest=%d, min=%d) = %d, %v; want rejected", tc.n, tc.rest, tc.min, got, d.Err())
		}
	}
}

func TestDoneOnTrailingBytes(t *testing.T) {
	var e Enc
	e.U(1)
	e = append(e, 0)
	d := NewDec("test", e)
	d.U()
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	if err := d.Done(); err == nil || !strings.Contains(err.Error(), "1 trailing") {
		t.Fatalf("Done = %v, want a trailing-byte error", err)
	}
}
