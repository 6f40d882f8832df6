package flow

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/circuits"
	"repro/internal/netlist"
)

// TestPipelineInvariants runs the full pipeline for several circuits
// and algorithms and checks the invariants every stage must preserve:
// netlist validity, placement legality, functional-equivalence classes,
// and metric sanity (routed ≥ placement-level, low-stress ≥ infinite).
func TestPipelineInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline")
	}
	cfg := quickCfg()
	for _, name := range []string{"ex5p", "tseng"} {
		spec, _ := circuits.ByName(name)
		b, err := RunBaseline(spec, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if b.Metrics.WInf < b.Metrics.PlacePeriod-1e-9 {
			t.Errorf("%s: routed W-inf %v below placement estimate %v",
				name, b.Metrics.WInf, b.Metrics.PlacePeriod)
		}
		for _, algo := range []Algorithm{LocalRep, RTEmbed, Lex3, LexMC} {
			r, err := RunAlgorithm(b, algo, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, algo, err)
			}
			if r.Metrics.PlacePeriod > b.Metrics.PlacePeriod+1e-9 {
				t.Errorf("%s/%s worsened placement period", name, algo)
			}
			if r.Metrics.WLs < r.Metrics.WInf-1e-9 {
				t.Errorf("%s/%s: W-ls %v < W-inf %v", name, algo, r.Metrics.WLs, r.Metrics.WInf)
			}
			if r.Norm[3] < 1.0-1e-9 {
				t.Errorf("%s/%s: block count shrank below baseline (%v)", name, algo, r.Norm[3])
			}
		}
	}
}

// TestCongestionFeedbackPipeline: the Section VIII variant runs end to
// end and never worsens the placement-level period.
func TestCongestionFeedbackPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline")
	}
	cfg := quickCfg()
	cfg.CongestionFeedback = true
	spec, _ := circuits.ByName("apex4")
	b, err := RunBaseline(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunAlgorithm(b, RTEmbed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics.PlacePeriod > b.Metrics.PlacePeriod+1e-9 {
		t.Error("congestion-aware RT-Embedding worsened the period")
	}
}

// TestOptimizedNetlistRoundTrips: the optimized netlist (with replicas)
// survives serialization with its structure intact.
func TestOptimizedNetlistRoundTrips(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline")
	}
	cfg := quickCfg()
	cfg.SkipRouting = true
	// dsip, because Lex-2 on it keeps replicas at this scale; on some
	// circuits every replica is unified again and the LUT count is flat.
	spec, _ := circuits.ByName("dsip")
	b, err := RunBaseline(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	o, err := Optimize(context.Background(), b.Netlist.Clone(), b.Placement.Clone(), b.FPGA, Lex2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	nl := o.Netlist
	if nl.NumLUTs() <= b.Netlist.NumLUTs() {
		t.Fatalf("Lex-2 left %d LUTs, baseline has %d: no replica to round-trip",
			nl.NumLUTs(), b.Netlist.NumLUTs())
	}

	var sb strings.Builder
	if err := nl.Write(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := netlist.Read(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	if back.NumCells() != nl.NumCells() {
		t.Errorf("round trip changed cell count: %d vs %d", back.NumCells(), nl.NumCells())
	}
	// Note: equivalence-class IDs are not serialized (they are an
	// in-memory optimization artifact); structure must still match.
	if back.NumNets() != nl.NumNets() {
		t.Errorf("round trip changed net count: %d vs %d", back.NumNets(), nl.NumNets())
	}
}

// TestMetricsNormalization is a pure-function check of the Table II
// normalization math.
func TestMetricsNormalization(t *testing.T) {
	base := Metrics{WInf: 100, WLs: 110, Wire: 1000, Blocks: 500}
	m := Metrics{WInf: 80, WLs: 99, Wire: 1100, Blocks: 505}
	n := m.Normalized(base)
	want := [4]float64{0.8, 0.9, 1.1, 1.01}
	for i := range want {
		if math.Abs(n[i]-want[i]) > 1e-12 {
			t.Errorf("component %d = %v, want %v", i, n[i], want[i])
		}
	}
}
