package cluster

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/serve"
)

// FuzzCanonicalSpec holds the hashing pipeline to error-never-panic on
// arbitrary spec JSON, and to the round-trip property on everything
// that canonicalizes: Decode(Encode(Canonicalize(spec))) must
// reproduce the canonical form exactly, and re-hashing it must be
// stable.
func FuzzCanonicalSpec(f *testing.F) {
	f.Add(`{"circuit":"ex5p"}`)
	f.Add(`{"circuit":"apex4","scale":0.5,"algo":"lex3","seed":7,"effort":1.5,"max_iters":20,"route":true}`)
	f.Add(`{"netlist":"circuit t\ninput a\noutput o a\n"}`)
	f.Add(`{"netlist":"circuit t\n\n# c\ninput a\nlut n a a\noutput o n\n"}`)
	f.Add(`{"circuit":"ex5p","timeout_ms":1000}`)
	f.Add(`{"circuit":"ex5p","scale":1e308}`)
	f.Add(`{"circuit":"","algo":"\x00"}`)
	f.Add(`{`)
	f.Add(`{"circuit":"ex5p","algo":"race"}`)
	f.Add(`{"circuit":"ex5p","algo":"race","race_variants":["lex5","rt","lex5"],"period_bound":12.5}`)
	f.Add(`{"circuit":"ex5p","algo":"race","race_variants":[""],"period_bound":-1}`)
	f.Add(`{"circuit":"ex5p","algo":"race","race_variants":["fastest"]}`)
	f.Add(`{"circuit":"ex5p","qos":"deadline"}`)
	f.Add(`{"circuit":"ex5p","qos":"DEADLINE","algo":"RACE","period_bound":1e308}`)
	f.Fuzz(func(t *testing.T, body string) {
		spec, err := serve.DecodeSpec(strings.NewReader(body))
		if err != nil {
			return
		}
		c, err := Canonicalize(spec)
		if err != nil {
			return
		}
		enc := c.Encode()
		back, err := DecodeCanonical(enc)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v\nencoded: %q", err, enc)
		}
		if back != c {
			t.Fatalf("round trip drifted:\n  in  %+v\n  out %+v", c, back)
		}
		h1, err := HashSpec(spec)
		if err != nil {
			t.Fatalf("HashSpec failed after Canonicalize succeeded: %v", err)
		}
		h2, err := HashSpec(spec)
		if err != nil || h1 != h2 {
			t.Fatalf("hash not stable: %s vs %s (err %v)", h1, h2, err)
		}
	})
}

// FuzzDecodeCanonical holds the binary decoder to error-never-panic on
// arbitrary bytes, and to encode-stability on everything it accepts.
func FuzzDecodeCanonical(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("replspec\x01"))
	f.Add(CanonSpec{Circuit: "ex5p", Scale: 0.2, Algo: "rt", Seed: 1, Effort: 2}.Encode())
	f.Add(CanonSpec{Netlist: "circuit t\ninput a\noutput o a\n", Algo: "lex5", Seed: -3, MaxIters: 9, Route: true}.Encode())
	f.Add(CanonSpec{Circuit: "ex5p", Algo: "race", RaceVariants: "rt,lex3", PeriodBound: 10.5}.Encode())
	// Regression seed in the spirit of the PR 8 NaN-effort crasher: the
	// decoder must pass NaN bit patterns through without normalizing
	// them (Validate rejects them later, at the spec layer).
	f.Add(CanonSpec{Circuit: "ex5p", Algo: "race", RaceVariants: "lex2", PeriodBound: math.NaN()}.Encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeCanonical(data)
		if err != nil {
			return
		}
		// Anything the decoder accepts must survive a re-encode cycle
		// unchanged. Compare the re-encodings, not the structs: float
		// bit patterns (including NaN payloads) round-trip exactly, but
		// NaN breaks struct equality; and varints may arrive
		// non-minimal, so the original bytes are not the reference.
		enc := c.Encode()
		back, err := DecodeCanonical(enc)
		if err != nil {
			t.Fatalf("re-decode of accepted spec failed: %v", err)
		}
		if enc2 := back.Encode(); !bytes.Equal(enc, enc2) {
			t.Fatalf("re-encode cycle drifted:\n  in  %q\n  out %q", enc, enc2)
		}
	})
}
