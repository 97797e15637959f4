// Package wire is the store's one payload encoding: unsigned varints,
// length-prefixed strings and byte sections, behind a magic and a version.
// Every persisted blob (XSRC, XANL, XSPF in internal/pipeline, XBDD in
// internal/bdd, XDFA in internal/automaton) is written with Enc and read
// with Dec; the fixed-width XSTR frame around them is internal/store's.
//
// A store directory is untrusted input, so Dec is total over arbitrary
// bytes and its reads latch: the first failure is kept, every later read
// returns the zero value without advancing, and Done reports it. A decoder
// is therefore straight-line field reads with one check per section — and
// since a zero count follows a failure, a loop over a declared count is
// bounded by the bytes actually present (Count), never by what a corrupt
// blob claims.
package wire

import (
	"encoding/binary"
	"fmt"
)

// Enc is an append-only payload writer; the encoded payload is the slice
// itself.
type Enc []byte

// Magic opens a payload: the magic's bytes, then the version.
func (e *Enc) Magic(m string, version uint64) {
	*e = append(*e, m...)
	e.U(version)
}

// U appends an unsigned varint.
func (e *Enc) U(v uint64) { *e = binary.AppendUvarint(*e, v) }

// B appends a bool as the varint 0 or 1.
func (e *Enc) B(v bool) {
	if v {
		e.U(1)
	} else {
		e.U(0)
	}
}

// Str appends a length-prefixed string.
func (e *Enc) Str(s string) {
	e.U(uint64(len(s)))
	*e = append(*e, s...)
}

// Bytes appends a length-prefixed byte section.
func (e *Enc) Bytes(b []byte) {
	e.U(uint64(len(b)))
	*e = append(*e, b...)
}

// Strs appends a count and that many strings.
func (e *Enc) Strs(s []string) {
	e.U(uint64(len(s)))
	for _, x := range s {
		e.Str(x)
	}
}

// Dec reads a payload. Its methods never panic on any input.
type Dec struct {
	ctx  string // error prefix, e.g. "bdd: import"
	data []byte
	off  int
	err  error
}

// NewDec returns a reader over data whose errors start with ctx.
func NewDec(ctx string, data []byte) Dec { return Dec{ctx: ctx, data: data} }

// Failf latches a failure unless one is latched already, and returns the
// first: a decoder's own range checks report through it, so a check tripped
// by the zero values that follow a truncation still names the truncation.
func (d *Dec) Failf(format string, args ...any) error {
	if d.err == nil {
		d.err = fmt.Errorf(d.ctx+": "+format, args...)
	}
	return d.err
}

// Err is the latched failure, nil while every read has succeeded.
func (d *Dec) Err() error { return d.err }

// Done is the check that ends a payload: the latched failure, or an error
// when bytes remain unread.
func (d *Dec) Done() error {
	if d.err == nil && d.off != len(d.data) {
		d.Failf("%d trailing bytes", len(d.data)-d.off)
	}
	return d.err
}

// U reads an unsigned varint.
func (d *Dec) U() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.Failf("truncated or overlong varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// B reads a bool; any value but 0 and 1 fails.
func (d *Dec) B() bool {
	v := d.U()
	if v > 1 {
		d.Failf("bad bool %d before offset %d", v, d.off)
		return false
	}
	return v == 1
}

// Bytes reads a length-prefixed section. The result aliases the payload.
func (d *Dec) Bytes() []byte {
	n := d.U()
	if n > uint64(len(d.data)-d.off) {
		d.Failf("section of %d bytes at offset %d runs past the end", n, d.off)
		return nil
	}
	b := d.data[d.off : d.off+int(n) : d.off+int(n)]
	d.off += int(n)
	return b
}

// Str reads a length-prefixed string.
func (d *Dec) Str() string { return string(d.Bytes()) }

// Strs reads a count and that many strings.
func (d *Dec) Strs() []string {
	out := make([]string, d.Count("string", 1))
	for i := range out {
		out[i] = d.Str()
	}
	return out
}

// Magic reads what Enc.Magic wrote and returns the version, which must be
// one of versions.
func (d *Dec) Magic(m string, versions ...uint64) uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.data)-d.off < len(m) || string(d.data[d.off:d.off+len(m)]) != m {
		d.Failf("bad magic (want %s)", m)
		return 0
	}
	d.off += len(m)
	v := d.U()
	for _, ok := range versions {
		if v == ok {
			return v
		}
	}
	d.Failf("unsupported %s version %d", m, v)
	return 0
}

// Count reads the number of records that follow, each at least
// minRecordBytes long once encoded. A count the remaining bytes cannot hold
// fails here, before the caller sizes anything by it: what a decoder
// allocates is bounded by the blob's real length times its largest
// in-memory-to-encoded record ratio, whatever the blob declares.
func (d *Dec) Count(what string, minRecordBytes int) int {
	n := d.U()
	if left := uint64(len(d.data)-d.off) / uint64(minRecordBytes); n > left {
		d.Failf("%s count %d exceeds the %d that fit in the rest of the blob", what, n, left)
		return 0
	}
	return int(n)
}
