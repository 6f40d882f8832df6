// Package cluster turns repld into a multi-node service: a canonical
// content hash over job specs, a consistent-hash ring with virtual
// nodes routing jobs and placing result replicas, a quorum-replicated
// job/result store (W-of-N writes, R-of-N reads with read-repair), a
// read-through dedup layer that coalesces identical in-flight specs
// and serves repeats from the replicated result cache, and the
// internode HTTP endpoints tying a static membership together.
//
// The whole layer leans on one engine property, pinned by the
// correctness oracle: identical normalized specs produce bit-identical
// results. That makes the spec hash a sound content address —
// a cached result is indistinguishable from a re-execution, so
// deduplication is semantically invisible.
package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strings"

	"repro/internal/netlist"
	"repro/internal/serve"
)

// Hash is the 256-bit content address of a canonical job spec.
type Hash [32]byte

// String returns the lowercase hex form.
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// MarshalText encodes the hash as hex, so Record JSON stays readable.
func (h Hash) MarshalText() ([]byte, error) {
	return []byte(h.String()), nil
}

// UnmarshalText decodes the hex form.
func (h *Hash) UnmarshalText(b []byte) error {
	p, err := ParseHash(string(b))
	if err != nil {
		return err
	}
	*h = p
	return nil
}

// ParseHash decodes the 64-char hex form.
func ParseHash(s string) (Hash, error) {
	var h Hash
	b, err := hex.DecodeString(s)
	if err != nil {
		return h, fmt.Errorf("cluster: bad hash %q: %w", s, err)
	}
	if len(b) != len(h) {
		return h, fmt.Errorf("cluster: bad hash length %d (want %d)", len(b), len(h))
	}
	copy(h[:], b)
	return h, nil
}

// CanonSpec is a job spec reduced to its semantic normal form: every
// default applied, the algorithm in its canonical spelling, and inline
// netlists re-serialized through the parser so whitespace, comments,
// and blank lines cannot perturb the hash. TimeoutMS is deliberately
// absent — it bounds how long a job may run, never what it computes,
// so it must not split the cache.
type CanonSpec struct {
	Circuit  string
	Scale    float64
	Netlist  string
	Algo     string
	Seed     int64
	Effort   float64
	MaxIters int
	Route    bool
	// RaceVariants is the raced variant set, comma-joined in canonical
	// flow.EngineAlgorithms order ("" for non-race jobs) — a string
	// rather than a slice so CanonSpec stays comparable. The serve
	// layer's racing rule makes the winner a pure function of the spec,
	// which is exactly what lets raced results share the content-
	// addressed cache: these fields determine the result, so they hash.
	// QoS does not — it only reorders the queue.
	RaceVariants string
	PeriodBound  float64
}

// Canonicalize validates spec and reduces it to canonical form.
func Canonicalize(spec serve.JobSpec) (CanonSpec, error) {
	if err := spec.Validate(); err != nil {
		return CanonSpec{}, err
	}
	n := spec.Normalized()
	c := CanonSpec{
		Circuit:      n.Circuit,
		Scale:        n.Scale,
		Algo:         n.Algo,
		Seed:         n.Seed,
		Effort:       n.Effort,
		MaxIters:     n.MaxIters,
		Route:        n.Route,
		RaceVariants: strings.Join(n.RaceVariants, ","),
		PeriodBound:  n.PeriodBound,
	}
	if n.Netlist != "" {
		nl, err := netlist.Read(strings.NewReader(n.Netlist))
		if err != nil {
			return CanonSpec{}, fmt.Errorf("cluster: netlist: %w", err)
		}
		var buf bytes.Buffer
		if err := nl.Write(&buf); err != nil {
			return CanonSpec{}, fmt.Errorf("cluster: netlist: %w", err)
		}
		c.Netlist = buf.String()
	}
	return c, nil
}

// canonMagic versions the wire encoding. Any change to the field set,
// order, or value encodings MUST bump the version byte — the golden
// hash vectors under testdata pin the current format, so an
// accidental drift fails the suite instead of silently splitting
// every deployed cache. \x02 added the racing fields (RaceVariants,
// PeriodBound); \x01 was the pre-racing field set.
var canonMagic = []byte("replspec\x02")

// Field tags, in mandatory encode order. Tags make truncation and
// reordering detectable when decoding.
const (
	tagCircuit byte = iota + 1
	tagScale
	tagNetlist
	tagAlgo
	tagSeed
	tagEffort
	tagMaxIters
	tagRoute
	tagRaceVariants
	tagPeriodBound
)

// Encode serializes the canonical spec: magic, then every field in tag
// order. Strings are uvarint-length-prefixed, floats are big-endian
// IEEE-754 bit patterns (bit-exact, no formatting round-trip), ints
// are zigzag varints, bools one byte.
func (c CanonSpec) Encode() []byte {
	var b bytes.Buffer
	b.Write(canonMagic)
	putString(&b, tagCircuit, c.Circuit)
	putFloat(&b, tagScale, c.Scale)
	putString(&b, tagNetlist, c.Netlist)
	putString(&b, tagAlgo, c.Algo)
	putInt(&b, tagSeed, c.Seed)
	putFloat(&b, tagEffort, c.Effort)
	putInt(&b, tagMaxIters, int64(c.MaxIters))
	putBool(&b, tagRoute, c.Route)
	putString(&b, tagRaceVariants, c.RaceVariants)
	putFloat(&b, tagPeriodBound, c.PeriodBound)
	return b.Bytes()
}

// DecodeCanonical parses an Encode()d spec, rejecting bad magic, tag
// order violations, truncation, and trailing bytes. It exists for the
// round-trip property the fuzz harness pins: Decode(Encode(c)) == c.
func DecodeCanonical(data []byte) (CanonSpec, error) {
	var c CanonSpec
	if !bytes.HasPrefix(data, canonMagic) {
		return c, fmt.Errorf("cluster: bad canonical-spec magic")
	}
	d := &decoder{buf: data[len(canonMagic):]}
	c.Circuit = d.getString(tagCircuit)
	c.Scale = d.getFloat(tagScale)
	c.Netlist = d.getString(tagNetlist)
	c.Algo = d.getString(tagAlgo)
	c.Seed = d.getInt(tagSeed)
	c.Effort = d.getFloat(tagEffort)
	c.MaxIters = int(d.getInt(tagMaxIters))
	c.Route = d.getBool(tagRoute)
	c.RaceVariants = d.getString(tagRaceVariants)
	c.PeriodBound = d.getFloat(tagPeriodBound)
	if d.err != nil {
		return CanonSpec{}, d.err
	}
	if len(d.buf) != 0 {
		return CanonSpec{}, fmt.Errorf("cluster: %d trailing bytes after canonical spec", len(d.buf))
	}
	return c, nil
}

// HashSpec computes the content address of a job spec: SHA-256 over
// the canonical encoding. Specs that normalize equal hash equal;
// specs that differ in any semantic field do not (modulo SHA-256).
func HashSpec(spec serve.JobSpec) (Hash, error) {
	c, err := Canonicalize(spec)
	if err != nil {
		return Hash{}, err
	}
	return sha256.Sum256(c.Encode()), nil
}

func putString(b *bytes.Buffer, tag byte, s string) {
	b.WriteByte(tag)
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(s)))
	b.Write(tmp[:n])
	b.WriteString(s)
}

func putFloat(b *bytes.Buffer, tag byte, f float64) {
	b.WriteByte(tag)
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], math.Float64bits(f))
	b.Write(tmp[:])
}

func putInt(b *bytes.Buffer, tag byte, v int64) {
	b.WriteByte(tag)
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], v)
	b.Write(tmp[:n])
}

func putBool(b *bytes.Buffer, tag byte, v bool) {
	b.WriteByte(tag)
	if v {
		b.WriteByte(1)
	} else {
		b.WriteByte(0)
	}
}

// decoder consumes the encoded fields, latching the first error so
// call sites stay linear.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) tag(want byte) bool {
	if d.err != nil {
		return false
	}
	if len(d.buf) == 0 || d.buf[0] != want {
		d.err = fmt.Errorf("cluster: canonical spec missing field tag %d", want)
		return false
	}
	d.buf = d.buf[1:]
	return true
}

func (d *decoder) getString(tag byte) string {
	if !d.tag(tag) {
		return ""
	}
	n, used := binary.Uvarint(d.buf)
	if used <= 0 || n > uint64(len(d.buf)-used) {
		d.err = fmt.Errorf("cluster: bad string length for tag %d", tag)
		return ""
	}
	s := string(d.buf[used : used+int(n)])
	d.buf = d.buf[used+int(n):]
	return s
}

func (d *decoder) getFloat(tag byte) float64 {
	if !d.tag(tag) {
		return 0
	}
	if len(d.buf) < 8 {
		d.err = fmt.Errorf("cluster: truncated float for tag %d", tag)
		return 0
	}
	f := math.Float64frombits(binary.BigEndian.Uint64(d.buf[:8]))
	d.buf = d.buf[8:]
	return f
}

func (d *decoder) getInt(tag byte) int64 {
	if !d.tag(tag) {
		return 0
	}
	v, used := binary.Varint(d.buf)
	if used <= 0 {
		d.err = fmt.Errorf("cluster: bad varint for tag %d", tag)
		return 0
	}
	d.buf = d.buf[used:]
	return v
}

func (d *decoder) getBool(tag byte) bool {
	if !d.tag(tag) {
		return false
	}
	if len(d.buf) < 1 || d.buf[0] > 1 {
		d.err = fmt.Errorf("cluster: bad bool for tag %d", tag)
		return false
	}
	v := d.buf[0] == 1
	d.buf = d.buf[1:]
	return v
}
