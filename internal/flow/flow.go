// Package flow runs the paper's end-to-end evaluation pipeline
// (Fig. 10): generate a benchmark circuit, place it with the
// timing-driven VPR-style annealer, optimize the placement with one of
// the replication algorithms, route the result in both the
// infinite-resource and low-stress regimes, and collect the metrics
// reported in Tables I-III (critical path W∞ and W_ls, routed wire
// length, block count) plus the replication statistics of Fig. 14.
//
// The pipeline is three stages, Place, Optimize and Measure, each run
// under a context. RunBaseline and RunAlgorithm compose them for the
// tables; the repld job runner, cmd/rtembed and cmd/replcheck call the
// same stages.
package flow

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/arch"
	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/localrep"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/placement"
	"repro/internal/route"
	"repro/internal/timing"
	"repro/internal/wire"
)

// Algorithm enumerates the optimizers compared in the paper.
type Algorithm int

const (
	// VPRBaseline is the unoptimized timing-driven placement.
	VPRBaseline Algorithm = iota
	// LocalRep is the Beraudo-Lillis local replication baseline
	// (best of three randomized runs).
	LocalRep
	// RTEmbed is replication-tree embedding with the 2-D signature.
	RTEmbed
	// LexMC, Lex2..Lex5 are the reconvergence-aware variants of
	// Section VI.
	LexMC
	Lex2
	Lex3
	Lex4
	Lex5
)

// String names the algorithm as the paper does.
func (a Algorithm) String() string {
	switch a {
	case VPRBaseline:
		return "VPR"
	case LocalRep:
		return "Local replication"
	case RTEmbed:
		return "RT-Embedding"
	case LexMC:
		return "Lex-mc"
	case Lex2:
		return "Lex-2"
	case Lex3:
		return "Lex-3"
	case Lex4:
		return "Lex-4"
	case Lex5:
		return "Lex-5"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Mode returns the embedding signature mode for engine-based
// algorithms.
func (a Algorithm) Mode() embed.Mode {
	switch a {
	case LexMC:
		return embed.Mode{LexDepth: 1, MC: true}
	case Lex2:
		return embed.Mode{LexDepth: 2}
	case Lex3:
		return embed.Mode{LexDepth: 3}
	case Lex4:
		return embed.Mode{LexDepth: 4}
	case Lex5:
		return embed.Mode{LexDepth: 5}
	default:
		return embed.Mode{LexDepth: 1}
	}
}

// EngineAlgorithms lists the Table III variants in paper order. This
// order is load-bearing beyond presentation: the serve layer's
// speculative racing decides winners by position in this slice, so
// reordering it changes which raced variant wins and therefore the
// content hash → result mapping of every raced job.
var EngineAlgorithms = []Algorithm{RTEmbed, LexMC, Lex2, Lex3, Lex4, Lex5}

// EngineOrder returns a's rank within EngineAlgorithms — the canonical
// racing priority — or -1 for algorithms that are not engine variants
// (VPR baseline, local replication).
func EngineOrder(a Algorithm) int {
	for i, e := range EngineAlgorithms {
		if e == a {
			return i
		}
	}
	return -1
}

// EngineAlgorithmNames returns the canonical spellings of the engine
// variants in EngineAlgorithms (racing) order. This is the default
// variant list for raced jobs.
func EngineAlgorithmNames() []string {
	out := make([]string, len(EngineAlgorithms))
	for i, a := range EngineAlgorithms {
		out[i] = CanonicalName(a)
	}
	return out
}

// algoNames maps the user-facing algorithm names (CLI -algo values and
// repld job specs) to algorithms. Every front end must resolve names
// through ParseAlgorithm so the accepted vocabulary cannot drift
// between tools.
var algoNames = []struct {
	name string
	algo Algorithm
}{
	{"vpr", VPRBaseline},
	{"local", LocalRep},
	{"rt", RTEmbed},
	{"lexmc", LexMC},
	{"lex2", Lex2},
	{"lex3", Lex3},
	{"lex4", Lex4},
	{"lex5", Lex5},
}

// ParseAlgorithm resolves a user-facing algorithm name
// (case-insensitive). The empty string selects RTEmbed, the paper's
// base algorithm; unknown names report ok=false.
func ParseAlgorithm(s string) (Algorithm, bool) {
	if s == "" {
		return RTEmbed, true
	}
	ls := strings.ToLower(s)
	for _, e := range algoNames {
		if e.name == ls {
			return e.algo, true
		}
	}
	return 0, false
}

// CanonicalName returns the canonical -algo spelling for a — the one
// ParseAlgorithm maps back to itself. The cluster layer's spec
// canonicalization keys on it, so aliases and case variants of the
// same algorithm hash identically.
func CanonicalName(a Algorithm) string {
	for _, e := range algoNames {
		if e.algo == a {
			return e.name
		}
	}
	return ""
}

// AlgorithmNames returns the accepted algorithm names in canonical
// order, for usage and error messages.
func AlgorithmNames() []string {
	out := make([]string, len(algoNames))
	for i, e := range algoNames {
		out[i] = e.name
	}
	return out
}

// Config tunes a flow run.
type Config struct {
	// Scale shrinks the benchmark circuits (1.0 = published sizes).
	Scale float64
	// PlaceEffort is the annealer effort (VPR default 10; smaller is
	// faster and noisier).
	PlaceEffort float64
	// Seed drives placement and local replication.
	Seed int64
	// Delay is the shared delay model.
	Delay arch.DelayModel
	// SkipRouting computes placement-level metrics only (W∞ becomes
	// the placement STA period; wire falls back to the q·HPWL
	// estimate). Used by quick benchmarks.
	SkipRouting bool
	// Engine overrides the default engine configuration (Mode is set
	// per algorithm).
	Engine core.Config
	// CongestionFeedback routes the baseline once and feeds the
	// channel occupancy into the embedder's wire costs — the
	// Section VIII improvement the paper proposes as future work.
	CongestionFeedback bool
}

// localRepRuns is the best-of count for the local replication
// baseline: the paper reports the best of three randomized runs.
const localRepRuns = 3

// Defaults returns the full-fidelity configuration.
func Defaults() Config {
	return Config{
		Scale:       1.0,
		PlaceEffort: 10,
		Seed:        1,
		Delay:       arch.DefaultDelayModel(),
		Engine:      core.Default(),
	}
}

// Baseline bundles the placed-but-unoptimized design for reuse across
// algorithm runs.
type Baseline struct {
	Spec      circuits.MCNCSpec
	Netlist   *netlist.Netlist
	Placement *placement.Placement
	FPGA      *arch.FPGA
	Metrics   Metrics
}

// Metrics are the per-run measurements of Tables I and II.
type Metrics struct {
	// WInf is the infinite-resource critical path; WLs the low-stress
	// one (NaN when routing is skipped).
	WInf float64
	WLs  float64
	// Wire is the routed wire length (low-stress regime when routed;
	// q·HPWL estimate otherwise).
	Wire float64
	// Blocks is LUTs + I/Os, the paper's "total blk".
	Blocks int
	// Wmin is the W_ls channel width, ceil(1.2 × the minimum routable
	// width), despite its name (0 if not routed).
	Wmin int
	// PlacePeriod is the placement-level STA period.
	PlacePeriod float64
	// Mono summarizes worst-path straightness — the paper's
	// "all FF to FF paths are monotone" end-state indicator.
	Mono timing.MonotonicityStats
}

// Normalized returns m's headline metrics divided by the baseline's,
// the form of Table II.
func (m Metrics) Normalized(base Metrics) [4]float64 {
	return [4]float64{
		m.WInf / base.WInf,
		m.WLs / base.WLs,
		m.Wire / base.Wire,
		float64(m.Blocks) / float64(base.Blocks),
	}
}

// RunBaseline generates, places, and measures one circuit.
func RunBaseline(spec circuits.MCNCSpec, cfg Config) (*Baseline, error) {
	ctx := context.Background()
	nl, err := circuits.Generate(spec.Spec(cfg.Scale))
	if err != nil {
		return nil, err
	}
	pl, f, err := Place(ctx, nl, cfg)
	if err != nil {
		return nil, err
	}
	b := &Baseline{Spec: spec, Netlist: nl, Placement: pl, FPGA: f}
	b.Metrics, _, err = Measure(ctx, nl, pl, f, cfg)
	if err != nil {
		return nil, err
	}
	return b, nil
}

// PlaceOptions returns the annealer options of cfg's place stage.
func (cfg Config) PlaceOptions() place.Options {
	opts := place.Defaults()
	opts.Seed = cfg.Seed
	opts.Effort = cfg.PlaceEffort
	opts.Delay = cfg.Delay
	return opts
}

// Place is the place stage: it sizes the smallest square FPGA that
// holds nl and anneals a timing-driven placement onto it under ctx.
func Place(ctx context.Context, nl *netlist.Netlist, cfg Config) (*placement.Placement, *arch.FPGA, error) {
	f := arch.MinSquare(nl.NumLUTs(), nl.NumIOs())
	pl, err := place.PlaceContext(ctx, nl, f, cfg.PlaceOptions())
	return pl, f, err
}

// Optimized is the optimize stage's outcome: the design the optimizer
// left and its statistics.
type Optimized struct {
	Netlist   *netlist.Netlist
	Placement *placement.Placement
	// EngineStats is set for the engine variants and LocalStats for
	// local replication; the VPR baseline sets neither.
	EngineStats *core.Stats
	LocalStats  *localrep.Stats
}

// Optimize is the optimize stage: it runs algo on the design nl placed
// as pl on f, under ctx, and checks the result with checkDesign. It may
// modify nl and pl; a caller that reuses them passes clones.
func Optimize(ctx context.Context, nl *netlist.Netlist, pl *placement.Placement, f *arch.FPGA, algo Algorithm, cfg Config) (*Optimized, error) {
	o := &Optimized{Netlist: nl, Placement: pl}
	switch algo {
	case VPRBaseline:
		// The unoptimized placement is the result.
	case LocalRep:
		opt := localrep.Defaults()
		opt.Seed = cfg.Seed
		var err error
		o.Netlist, o.Placement, o.LocalStats, err = localrep.BestOf(nl, pl, cfg.Delay, opt, localRepRuns)
		if err != nil {
			return nil, fmt.Errorf("local replication: %w", err)
		}
	default:
		ecfg := cfg.Engine
		ecfg.Mode = algo.Mode()
		if cfg.CongestionFeedback && !cfg.SkipRouting {
			rr, err := route.Infinite(nl, pl, f, cfg.Delay, route.Defaults())
			if err != nil {
				return nil, err
			}
			ecfg.WireCongestion = rr.TileUsage
			if ecfg.WireCongestionWeight == 0 {
				ecfg.WireCongestionWeight = core.Default().WireCongestionWeight
			}
		}
		eng := core.New(nl, pl, cfg.Delay, ecfg)
		st, err := eng.RunContext(ctx)
		if err != nil {
			return nil, err
		}
		o.Netlist, o.Placement, o.EngineStats = eng.Netlist, eng.Placement, st
	}
	if err := checkDesign(o.Netlist, o.Placement); err != nil {
		return nil, fmt.Errorf("%s produced %w", algo, err)
	}
	return o, nil
}

// Measure is the measure stage: placement-level STA and worst-path
// monotonicity of nl placed as pl, then, unless cfg.SkipRouting, the
// W∞ route and the W_min search plus W_ls route on f. It also returns
// the STA the metrics were read from.
func Measure(ctx context.Context, nl *netlist.Netlist, pl *placement.Placement, f *arch.FPGA, cfg Config) (Metrics, *timing.Analysis, error) {
	var m Metrics
	a, err := timing.AnalyzeContext(ctx, nl, pl, cfg.Delay)
	if err != nil {
		return m, nil, err
	}
	m.PlacePeriod = a.Period
	m.Blocks = nl.NumLUTs() + nl.NumIOs()
	m.Mono = timing.Monotonicity(nl, pl, cfg.Delay, a)
	if cfg.SkipRouting {
		m.WInf = a.Period
		m.WLs = math.NaN()
		m.Wire = estimateWire(nl, pl)
		return m, a, nil
	}
	if err := ctx.Err(); err != nil {
		return m, nil, err
	}
	inf, err := route.Infinite(nl, pl, f, cfg.Delay, route.Defaults())
	if err != nil {
		return m, nil, err
	}
	m.WInf = inf.CritPath
	if err := ctx.Err(); err != nil {
		return m, nil, err
	}
	ls, w, err := route.LowStress(nl, pl, f, cfg.Delay, route.Defaults())
	if err != nil {
		return m, nil, err
	}
	m.WLs = ls.CritPath
	m.Wire = float64(ls.WireLength)
	m.Wmin = w
	return m, a, nil
}

// estimateWire is the placement-level stand-in for routed wirelength:
// the q(n)-corrected half-perimeter sum.
func estimateWire(nl *netlist.Netlist, pl *placement.Placement) float64 {
	total := 0.0
	nl.Nets(func(n *netlist.Net) {
		total += wire.NetCost(nl, pl, n.ID, nil)
	})
	return total
}

// Result is one (circuit, algorithm) outcome.
type Result struct {
	Name      string
	Algorithm Algorithm
	Metrics   Metrics
	// Norm holds {W∞, W_ls, wire, blocks} normalized to the VPR
	// baseline.
	Norm [4]float64
	// Engine statistics (zero for VPR and LocalRep).
	EngineStats *core.Stats
	// LocalRep statistics (nil otherwise).
	LocalStats *localrep.Stats
}

// RunAlgorithm optimizes a copy of the baseline design with the given
// algorithm and measures it.
func RunAlgorithm(b *Baseline, algo Algorithm, cfg Config) (*Result, error) {
	ctx := context.Background()
	o, err := Optimize(ctx, b.Netlist.Clone(), b.Placement.Clone(), b.FPGA, algo, cfg)
	if err != nil {
		return nil, fmt.Errorf("flow: %s: %w", b.Spec.Name, err)
	}
	m, _, err := Measure(ctx, o.Netlist, o.Placement, b.FPGA, cfg)
	if err != nil {
		return nil, err
	}
	return &Result{
		Name: b.Spec.Name, Algorithm: algo,
		Metrics: m, Norm: m.Normalized(b.Metrics),
		EngineStats: o.EngineStats, LocalStats: o.LocalStats,
	}, nil
}

// checkDesign verifies that an optimizer left a usable design: the
// netlist passes Validate and the placement is legal. Optimize runs it
// on every result, so no front end measures or returns a broken one.
func checkDesign(nl *netlist.Netlist, pl *placement.Placement) error {
	if err := nl.Validate(); err != nil {
		return fmt.Errorf("invalid netlist: %w", err)
	}
	if !pl.Legal() {
		return errors.New("illegal placement")
	}
	return nil
}

// Averages computes the all/small/large mean normalized metrics over a
// result set, the bottom rows of Table II and the body of Table III.
func Averages(results []*Result) (all, small, large [4]float64) {
	var na, ns, nl int
	for _, r := range results {
		spec, _ := circuits.ByName(r.Name)
		for k := 0; k < 4; k++ {
			all[k] += r.Norm[k]
		}
		na++
		if spec.Large() {
			for k := 0; k < 4; k++ {
				large[k] += r.Norm[k]
			}
			nl++
		} else {
			for k := 0; k < 4; k++ {
				small[k] += r.Norm[k]
			}
			ns++
		}
	}
	div := func(v *[4]float64, n int) {
		if n == 0 {
			return
		}
		for k := 0; k < 4; k++ {
			v[k] /= float64(n)
		}
	}
	div(&all, na)
	div(&small, ns)
	div(&large, nl)
	return all, small, large
}
