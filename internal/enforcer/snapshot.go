package enforcer

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
)

// Snapshotter is the warm-restart capability: enforcers that implement it
// can serialize their complete admission state — phantom-queue occupancy
// (real and magic segments in FIFO order), burst-control window accounting,
// token levels, per-class counters and statistics — into a self-contained
// versioned byte blob, and later restore it into a freshly constructed
// enforcer with the same configuration.
//
// The point of warm restart is Theorem 1 across a process restart: a
// rebuilt enforcer starts empty (phantom queues drained, token buckets
// full), which re-admits up to a full burst budget B per aggregate — a
// restart-synchronized slow-start storm at middlebox scale. Restoring the
// snapshot resumes enforcement exactly where it stopped: replaying the same
// trace against a restored enforcer yields byte-identical verdicts to an
// uninterrupted run.
//
// Encoding contract:
//
//   - The first byte of every blob is the enforcer's own format version.
//     RestoreState must reject versions it does not understand.
//   - Blobs are clock-relative. Both calls take the caller's virtual time
//     now, and every instant the enforcer keeps (a drain clock, a window
//     start, a refill clock) is stored as its age, now − t (Enc.Age), and
//     rebuilt against the receiver's now (Dec.Instant). A restarted process
//     whose clock starts again at zero therefore resumes with the same
//     elapsed times, not with instants from the old process's uptime that
//     would freeze every drain and refill until its new clock caught up. A
//     rebuilt instant may be negative (an age older than the new clock),
//     and an age may be negative (the clock stepped back before the
//     snapshot); both are legal, and only an age whose instant overflows is
//     rejected. An instant that is not set is written as age 0, so an
//     enforcer's blob depends on its state, not on where its clock started.
//     For a clock that does not run back (the Enforcer contract), restoring
//     at now + d and continuing at every later reading shifted by d is
//     byte-for-byte the uninterrupted run.
//   - Blobs are configuration-free: they capture run state only, and
//     RestoreState validates the blob against the receiver's configuration
//     (queue counts, bucket sizes). Restoring into a different
//     configuration is an error, never a silent truncation.
//   - RestoreState must validate untrusted input: decoding is fuzzed, so
//     structural invariants (non-negative counters, occupancy within the
//     simulated buffer, token levels within the bucket) are checked and
//     violations reported as errors with the receiver left usable.
//
// Snapshotting is NOT safe concurrently with SubmitBatch; callers
// serialize it onto the enforcer's execution domain exactly as they do
// reconfiguration.
type Snapshotter interface {
	// SnapshotState serializes the enforcer's admission state at virtual
	// time now.
	SnapshotState(now time.Duration) ([]byte, error)
	// RestoreState loads, at the receiver's virtual time now, a blob
	// produced by SnapshotState on an enforcer with the same configuration.
	// On error the receiver's state is unspecified but structurally intact
	// (safe to discard or reuse).
	RestoreState(now time.Duration, data []byte) error
}

// errSnapshotTooShort reports a truncated snapshot blob.
var errSnapshotTooShort = errors.New("enforcer: snapshot truncated")

// errSnapshotTrailing reports unconsumed bytes after a complete decode —
// almost always a version- or configuration-mismatch symptom.
var errSnapshotTrailing = errors.New("enforcer: trailing bytes after snapshot")

// Enc builds a little-endian binary snapshot blob. The zero value is ready
// to use. Enc never fails; errors surface on the decode side.
type Enc struct {
	buf []byte
}

// Grow makes room for exactly n more bytes, for callers that know the
// blob's size.
func (e *Enc) Grow(n int) {
	if n > cap(e.buf)-len(e.buf) {
		e.buf = append(make([]byte, 0, len(e.buf)+n), e.buf...)
	}
}

// U8 appends one byte.
func (e *Enc) U8(v uint8) { e.buf = append(e.buf, v) }

// Bool appends a bool as one byte (0 or 1).
func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U32 appends a little-endian uint32.
func (e *Enc) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U64 appends a little-endian uint64.
func (e *Enc) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// I64 appends an int64 as its two's-complement uint64.
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// F64 appends a float64 as its IEEE-754 bits.
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// dur appends a time.Duration as nanoseconds.
func (e *Enc) dur(d time.Duration) { e.I64(int64(d)) }

// Age appends instant t as its age at now, now − t: the clock-relative form
// every Snapshotter stores instants in (Dec.Instant reads it back). An
// instant that is not set — a clock not started yet, a closed window, a
// refill clock under a full bucket — means nothing, and is written as age 0
// so that two enforcers in the same state write the same bytes whatever
// their clocks read. An instant older than a Duration spans (now − t
// overflows, as after a restore from a very old blob) is written as the
// longest age.
func (e *Enc) Age(now, t time.Duration, set bool) {
	age := now - t
	if !set {
		age = 0
	} else if t < now && age < 0 {
		age = math.MaxInt64
	}
	e.dur(age)
}

// Bytes appends a u32 length prefix followed by the raw bytes.
func (e *Enc) Bytes(b []byte) {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// Stats appends the four Stats counters.
func (e *Enc) Stats(s Stats) {
	e.I64(s.AcceptedPackets)
	e.I64(s.AcceptedBytes)
	e.I64(s.DroppedPackets)
	e.I64(s.DroppedBytes)
}

// Out returns the encoded blob.
func (e *Enc) Out() []byte { return e.buf }

// Dec decodes a blob produced by Enc. The first decode error sticks: all
// subsequent reads return zero values, so decoders can run straight-line
// and check Err (or Finish) once at the end.
type Dec struct {
	buf []byte
	off int
	err error
}

// NewDec returns a decoder over data.
func NewDec(data []byte) *Dec { return &Dec{buf: data} }

// take reserves n bytes, recording an error on underflow.
func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) {
		d.err = fmt.Errorf("%w: need %d bytes at offset %d of %d",
			errSnapshotTooShort, n, d.off, len(d.buf))
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Dec) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a bool, rejecting encodings other than 0 and 1.
func (d *Dec) Bool() bool {
	switch v := d.U8(); v {
	case 0:
		return false
	case 1:
		return true
	default:
		if d.err == nil {
			d.err = fmt.Errorf("enforcer: invalid bool byte %#x in snapshot", v)
		}
		return false
	}
}

// U32 reads a little-endian uint32.
func (d *Dec) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Dec) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads an int64.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// F64 reads a float64, rejecting NaNs (no enforcer state is legitimately
// NaN, and a NaN token level would poison every subsequent comparison).
func (d *Dec) F64() float64 {
	v := math.Float64frombits(d.U64())
	if math.IsNaN(v) && d.err == nil {
		d.err = fmt.Errorf("enforcer: NaN in snapshot")
	}
	return v
}

// dur reads a time.Duration.
func (d *Dec) dur() time.Duration { return time.Duration(d.I64()) }

// Instant reads an age written by Enc.Age and returns the instant it names
// at the receiver's now, now − age. Either sign of age, and a negative
// instant, are legal; an age whose instant does not fit a Duration is an
// error.
func (d *Dec) Instant(now time.Duration) time.Duration {
	age := d.dur()
	t := now - age
	if (age > 0 && t > now) || (age < 0 && t < now) {
		d.Fail("enforcer: snapshot age %v overflows at %v", age, now)
		return now
	}
	return t
}

// Bytes reads a u32-length-prefixed byte slice. The returned slice aliases
// the input buffer. Lengths beyond the remaining input fail immediately, so
// a hostile length prefix cannot drive a large allocation.
func (d *Dec) Bytes() []byte {
	n := d.U32()
	if d.err == nil && int(n) > len(d.buf)-d.off {
		d.err = fmt.Errorf("%w: length prefix %d exceeds remaining %d",
			errSnapshotTooShort, n, len(d.buf)-d.off)
		return nil
	}
	return d.take(int(n))
}

// Stats reads the four Stats counters, validating non-negativity.
func (d *Dec) Stats() Stats {
	s := Stats{
		AcceptedPackets: d.I64(),
		AcceptedBytes:   d.I64(),
		DroppedPackets:  d.I64(),
		DroppedBytes:    d.I64(),
	}
	if d.err == nil &&
		(s.AcceptedPackets < 0 || s.AcceptedBytes < 0 ||
			s.DroppedPackets < 0 || s.DroppedBytes < 0) {
		d.err = fmt.Errorf("enforcer: negative stats counter in snapshot")
	}
	return s
}

// Err returns the first decode error, if any.
func (d *Dec) Err() error { return d.err }

// Fail records an application-level validation error (first error wins).
func (d *Dec) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// Finish returns the first decode error, or errSnapshotTrailing when the
// blob was not fully consumed.
func (d *Dec) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%w: %d of %d bytes unread", errSnapshotTrailing, len(d.buf)-d.off, len(d.buf))
	}
	return nil
}
