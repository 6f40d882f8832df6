package flow

import (
	"math"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuits"
	"repro/internal/netlist"
	"repro/internal/placement"
)

// quickCfg keeps flow tests fast: tiny circuits, light annealing.
func quickCfg() Config {
	cfg := Defaults()
	cfg.Scale = 0.04
	cfg.PlaceEffort = 1
	cfg.Engine.MaxIters = 60
	cfg.Engine.Patience = 8
	return cfg
}

// TestCheckDesign pins the post-optimization check the optimize stage
// runs for every front end: it accepts a valid, legally placed design
// and rejects an invalid netlist and an over-capacity placement.
func TestCheckDesign(t *testing.T) {
	build := func() (*netlist.Netlist, *placement.Placement) {
		nl := netlist.New("chk")
		a := nl.AddCell("a", netlist.IPad, 0)
		l := nl.AddCell("l", netlist.LUT, 1)
		nl.ConnectByName(l.ID, 0, "a")
		m := nl.AddCell("m", netlist.LUT, 1)
		nl.ConnectByName(m.ID, 0, "l")
		o := nl.AddCell("o", netlist.OPad, 1)
		nl.ConnectByName(o.ID, 0, "m")
		pl := placement.New(arch.New(4), nl)
		pl.Place(a.ID, arch.Loc{X: 0, Y: 1})
		pl.Place(l.ID, arch.Loc{X: 1, Y: 1})
		pl.Place(m.ID, arch.Loc{X: 2, Y: 1})
		pl.Place(o.ID, arch.Loc{X: 5, Y: 1})
		return nl, pl
	}
	nl, pl := build()
	if err := checkDesign(nl, pl); err != nil {
		t.Fatalf("valid design rejected: %v", err)
	}

	nl, pl = build()
	m, _ := nl.CellByName("m")
	pl.Remove(m)
	pl.Place(m, arch.Loc{X: 1, Y: 1}) // on top of l in a one-LUT slot
	if err := checkDesign(nl, pl); err == nil || !strings.Contains(err.Error(), "illegal placement") {
		t.Fatalf("over-capacity placement: got %v, want an illegal-placement error", err)
	}

	nl, pl = build()
	l, _ := nl.CellByName("l")
	nl.Cell(l).Out = netlist.None // a LUT that drives nothing
	if err := checkDesign(nl, pl); err == nil || !strings.Contains(err.Error(), "invalid netlist") {
		t.Fatalf("corrupted netlist: got %v, want an invalid-netlist error", err)
	}
}

func TestRunBaseline(t *testing.T) {
	cfg := quickCfg()
	b, err := RunBaseline(circuits.MCNC20[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := b.Metrics
	if m.WInf <= 0 || math.IsNaN(m.WInf) {
		t.Errorf("WInf = %v", m.WInf)
	}
	if m.WLs < m.WInf {
		t.Errorf("low-stress period %v below infinite-resource %v", m.WLs, m.WInf)
	}
	if m.Wire <= 0 {
		t.Errorf("wire = %v", m.Wire)
	}
	if m.Wmin < 1 {
		t.Errorf("wmin = %d", m.Wmin)
	}
	if m.Blocks != b.Netlist.NumLUTs()+b.Netlist.NumIOs() {
		t.Error("block count mismatch")
	}
}

func TestRunAlgorithmsImprove(t *testing.T) {
	cfg := quickCfg()
	b, err := RunBaseline(circuits.MCNC20[0], cfg) // ex5p stand-in
	if err != nil {
		t.Fatal(err)
	}
	vpr, err := RunAlgorithm(b, VPRBaseline, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 4; k++ {
		if d := vpr.Norm[k] - 1.0; d > 1e-9 || d < -1e-9 {
			t.Errorf("VPR self-normalization component %d = %v", k, vpr.Norm[k])
		}
	}
	rt, err := RunAlgorithm(b, RTEmbed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Placement-level period must not worsen; the paper's headline is
	// that RT-Embedding improves every circuit.
	if rt.Metrics.PlacePeriod > b.Metrics.PlacePeriod+1e-9 {
		t.Errorf("RT-Embedding worsened placement period: %v -> %v",
			b.Metrics.PlacePeriod, rt.Metrics.PlacePeriod)
	}
	if rt.EngineStats == nil {
		t.Error("engine stats missing")
	}
	lr, err := RunAlgorithm(b, LocalRep, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if lr.LocalStats == nil {
		t.Error("localrep stats missing")
	}
	if lr.Metrics.PlacePeriod > b.Metrics.PlacePeriod+1e-9 {
		t.Error("local replication worsened the placement period")
	}
}

func TestAverages(t *testing.T) {
	mk := func(name string, norm [4]float64) *Result {
		return &Result{Name: name, Norm: norm}
	}
	// ex5p is small, clma is large.
	rs := []*Result{
		mk("ex5p", [4]float64{0.8, 0.8, 1.1, 1.0}),
		mk("clma", [4]float64{0.6, 0.6, 1.3, 1.2}),
	}
	all, small, large := Averages(rs)
	if all[0] != 0.7 {
		t.Errorf("all avg = %v, want 0.7", all[0])
	}
	if small[0] != 0.8 || large[0] != 0.6 {
		t.Errorf("small/large = %v/%v", small[0], large[0])
	}
	if all[3] != 1.1 {
		t.Errorf("blocks avg = %v, want 1.1", all[3])
	}
}

func TestFormatters(t *testing.T) {
	cfg := quickCfg()
	cfg.SkipRouting = true
	b, err := RunBaseline(circuits.MCNC20[1], cfg) // tseng stand-in (sequential)
	if err != nil {
		t.Fatal(err)
	}
	t1 := FormatTableI([]*Baseline{b})
	if !strings.Contains(t1, "tseng") || !strings.Contains(t1, "density") {
		t.Errorf("Table I formatting broken:\n%s", t1)
	}
	rt, err := RunAlgorithm(b, RTEmbed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	byAlgo := map[Algorithm][]*Result{RTEmbed: {rt}}
	t2 := FormatTableII(byAlgo, []Algorithm{RTEmbed})
	if !strings.Contains(t2, "RT-Embedding") || !strings.Contains(t2, "average") {
		t.Errorf("Table II formatting broken:\n%s", t2)
	}
	t3 := FormatTableIII(byAlgo, []Algorithm{RTEmbed})
	if !strings.Contains(t3, "large ckts") {
		t.Errorf("Table III formatting broken:\n%s", t3)
	}
	if rt.EngineStats != nil {
		f14 := FormatFig14(rt.EngineStats)
		if !strings.Contains(f14, "replicated") {
			t.Errorf("Fig14 formatting broken:\n%s", f14)
		}
	}
}

func TestSkipRouting(t *testing.T) {
	cfg := quickCfg()
	cfg.SkipRouting = true
	b, err := RunBaseline(circuits.MCNC20[2], cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(b.Metrics.WLs) {
		t.Error("WLs should be NaN when routing is skipped")
	}
	if b.Metrics.WInf != b.Metrics.PlacePeriod {
		t.Error("WInf should equal the placement period when routing is skipped")
	}
	if b.Metrics.Wire <= 0 {
		t.Error("estimated wire should be positive")
	}
}

func TestAlgorithmStrings(t *testing.T) {
	want := map[Algorithm]string{
		VPRBaseline: "VPR", LocalRep: "Local replication", RTEmbed: "RT-Embedding",
		LexMC: "Lex-mc", Lex2: "Lex-2", Lex3: "Lex-3", Lex4: "Lex-4", Lex5: "Lex-5",
	}
	for a, s := range want {
		if a.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(a), a.String(), s)
		}
	}
	if Lex3.Mode().LexDepth != 3 || !LexMC.Mode().MC {
		t.Error("Mode mapping broken")
	}
}
