package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/arch"
	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/netlist"
	"repro/internal/oracle"
	"repro/internal/place"
	"repro/internal/placement"
	"repro/internal/route"
	"repro/internal/timing"
)

// flowSuite is the Table I/II bench suite: small and large,
// combinational and sequential.
var flowSuite = []string{"ex5p", "tseng", "dsip", "pdc"}

// Scale, placer effort and placement seeds per circuit of
// flow_routed. A pass runs every suite circuit under flowCopies seeded
// placement seeds: the run time of one placement's flow varies with its
// seed (mostly through the W_min search), and the sum over several
// seeds varies less from one benchmark seed to the next.
const (
	flowScale  = 0.015
	flowEffort = 1.0
	flowCopies = 6
)

// flowInput is one unit of a flow pass: a suite circuit and one seeded
// placement seed for it.
type flowInput struct {
	key  string // circuit name and copy index, e.g. "pdc.1"
	spec circuits.MCNCSpec
	cfg  flow.Config
}

// flowInputs derives the pass's fixed input set from the seed: copies
// placement seeds for each named circuit.
func flowInputs(seed int64, names []string, copies int, scale, effort float64, skipRouting bool) ([]flowInput, error) {
	rng := rand.New(rand.NewSource(seed))
	var out []flowInput
	for _, n := range names {
		spec, ok := circuits.ByName(n)
		if !ok {
			return nil, fmt.Errorf("unknown suite circuit %q", n)
		}
		for k := 0; k < copies; k++ {
			cfg := flow.Defaults()
			cfg.Scale = scale
			cfg.PlaceEffort = effort
			cfg.SkipRouting = skipRouting
			cfg.Seed = 1 + rng.Int63n(1<<30)
			out = append(out, flowInput{key: fmt.Sprintf("%s.%d", n, k), spec: spec, cfg: cfg})
		}
	}
	return out, nil
}

// flowQoR is one circuit's quality of result: the VPR baseline and the
// RT-Embedding result, as flow.Metrics.
type flowQoR struct {
	base, opt flow.Metrics
}

// qorBits flattens the QoR numbers the composition cross-check and the
// pass-to-pass check compare bit for bit.
func (q flowQoR) bits() []uint64 {
	out := []uint64{}
	for _, m := range []flow.Metrics{q.base, q.opt} {
		out = append(out, math.Float64bits(m.WInf), math.Float64bits(m.WLs), math.Float64bits(m.Wire),
			math.Float64bits(m.PlacePeriod), uint64(m.Blocks), uint64(m.Wmin))
	}
	return out
}

func equalBits(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// runFlowUntraced is one untraced flow pass: the product entry points
// flow.RunBaseline and flow.RunAlgorithm(RTEmbed) per circuit.
func runFlowUntraced(in []flowInput, u *units) ([]flowQoR, error) {
	out := make([]flowQoR, len(in))
	for i, fi := range in {
		err := u.time(fi.key, func() error {
			b, err := flow.RunBaseline(fi.spec, fi.cfg)
			if err != nil {
				return fmt.Errorf("%s baseline: %w", fi.key, err)
			}
			r, err := flow.RunAlgorithm(b, flow.RTEmbed, fi.cfg)
			if err != nil {
				return fmt.Errorf("%s rt: %w", fi.key, err)
			}
			out[i] = flowQoR{base: b.Metrics, opt: r.Metrics}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// tracedDesign is what a traced flow step leaves for the oracle checks
// (run after the pass, outside the timed window).
type tracedDesign struct {
	name       string
	input      *netlist.Netlist
	nl         *netlist.Netlist
	pl         *placement.Placement
	basePeriod float64
	stats      *core.Stats
}

// routeOutcome is one traced W_ls route's feasibility.
type routeOutcome struct {
	name     string
	feasible bool
}

// flowTrace carries one traced pass's spans and designs.
type flowTrace struct {
	t       *Tracer
	designs []tracedDesign
	routes  []routeOutcome
	lsIters []int
}

// tracedMeasure recomposes flow's measure step from layer calls:
// timing.Analyze, route.Infinite, route.MinChannelWidth and the W_ls
// route.Route at ceil(1.2 × W_min).
func (ft *flowTrace) measure(parent int, fid string, nl *netlist.Netlist, pl *placement.Placement, f *arch.FPGA, cfg flow.Config) (flow.Metrics, error) {
	var m flow.Metrics
	t := ft.t
	var a *timing.Analysis
	err := t.Time(parent, fid, "timing.analyze", func(int) error {
		var err error
		a, err = timing.Analyze(nl, pl, cfg.Delay)
		return err
	})
	if err != nil {
		return m, err
	}
	m.PlacePeriod = a.Period
	m.Blocks = nl.NumLUTs() + nl.NumIOs()
	if cfg.SkipRouting {
		m.WInf = a.Period
		return m, nil
	}
	var inf *route.Result
	err = t.Time(parent, fid, "route.infinite", func(int) error {
		var err error
		inf, err = route.Infinite(nl, pl, f, cfg.Delay, route.Defaults())
		return err
	})
	if err != nil {
		return m, err
	}
	m.WInf = inf.CritPath
	var wmin int
	err = t.Time(parent, fid, "route.wmin_search", func(int) error {
		var err error
		wmin, err = route.MinChannelWidth(nl, pl, f, cfg.Delay, route.Defaults())
		return err
	})
	if err != nil {
		return m, err
	}
	opt := route.Defaults()
	opt.ChannelWidth = lowStressWidth(wmin)
	var ls *route.Result
	err = t.Time(parent, fid, "route.lowstress", func(int) error {
		var err error
		ls, err = route.Route(nl, pl, f, cfg.Delay, opt)
		return err
	})
	if err != nil {
		return m, err
	}
	m.WLs = ls.CritPath
	m.Wire = float64(ls.WireLength)
	m.Wmin = opt.ChannelWidth
	ft.routes = append(ft.routes, routeOutcome{name: fid, feasible: ls.Feasible})
	ft.lsIters = append(ft.lsIters, ls.Iterations)
	return m, nil
}

// lowStressWidth is the W_ls channel width route.LowStress uses:
// ceil(1.2 × W_min).
func lowStressWidth(wmin int) int { return wmin + (wmin+4)/5 }

// wminOf inverts lowStressWidth: flow.Metrics.Wmin holds the W_ls
// width, and the benchmark reports the minimum width itself. It
// returns -1 when w is not a low-stress width.
func wminOf(w int) int {
	for m := 1; m <= w; m++ {
		if lowStressWidth(m) == w {
			return m
		}
	}
	return -1
}

// tracedBaseline recomposes flow.RunBaseline: circuits.Generate,
// place.Place, then measure.
func (ft *flowTrace) baseline(parent int, fid string, fi flowInput) (*flow.Baseline, error) {
	t := ft.t
	var nl *netlist.Netlist
	err := t.Time(parent, fid, "circuits.generate", func(int) error {
		var err error
		nl, err = circuits.Generate(fi.spec.Spec(fi.cfg.Scale))
		return err
	})
	if err != nil {
		return nil, err
	}
	f := arch.MinSquare(nl.NumLUTs(), nl.NumIOs())
	opts := place.Defaults()
	opts.Seed = fi.cfg.Seed
	opts.Effort = fi.cfg.PlaceEffort
	opts.Delay = fi.cfg.Delay
	var pl *placement.Placement
	err = t.Time(parent, fid, "place.place", func(int) error {
		var err error
		pl, err = place.Place(nl, f, opts)
		return err
	})
	if err != nil {
		return nil, err
	}
	b := &flow.Baseline{Spec: fi.spec, Netlist: nl, Placement: pl, FPGA: f}
	b.Metrics, err = ft.measure(parent, fid, nl, pl, f, fi.cfg)
	return b, err
}

// tracedAlgorithm recomposes flow.RunAlgorithm for an engine variant:
// core.New(...).Run on clones, netlist and placement validation, then
// measure.
func (ft *flowTrace) algorithm(parent int, fid string, b *flow.Baseline, algo flow.Algorithm, cfg flow.Config) (flow.Metrics, error) {
	t := ft.t
	nl := b.Netlist.Clone()
	pl := b.Placement.Clone()
	ecfg := cfg.Engine
	ecfg.Mode = algo.Mode()
	eng := core.New(nl, pl, cfg.Delay, ecfg)
	var st *core.Stats
	err := t.Time(parent, fid, "core.run."+flow.CanonicalName(algo), func(int) error {
		var err error
		st, err = eng.Run()
		return err
	})
	if err != nil {
		return flow.Metrics{}, err
	}
	nl, pl = eng.Netlist, eng.Placement
	err = t.Time(parent, fid, "netlist.validate", func(int) error {
		if err := nl.Validate(); err != nil {
			return fmt.Errorf("invalid netlist: %w", err)
		}
		if !pl.Legal() {
			return fmt.Errorf("illegal placement")
		}
		return nil
	})
	if err != nil {
		return flow.Metrics{}, err
	}
	d := tracedDesign{name: fid, input: b.Netlist, nl: nl, pl: pl,
		basePeriod: b.Metrics.PlacePeriod, stats: st}
	ft.designs = append(ft.designs, d)
	return ft.measure(parent, fid, nl, pl, b.FPGA, cfg)
}

// runFlowTraced is one traced flow pass.
func runFlowTraced(t *Tracer, pass int, in []flowInput) ([]flowQoR, *flowTrace, error) {
	ft := &flowTrace{t: t}
	out := make([]flowQoR, len(in))
	for i, fi := range in {
		fid := fmt.Sprintf("p%d/%s", pass, fi.key)
		err := t.Time(0, fid, "flow", func(root int) error {
			b, err := ft.baseline(root, fid, fi)
			if err != nil {
				return fmt.Errorf("%s baseline: %w", fi.key, err)
			}
			m, err := ft.algorithm(root, fid, b, flow.RTEmbed, fi.cfg)
			if err != nil {
				return fmt.Errorf("%s rt: %w", fi.key, err)
			}
			out[i] = flowQoR{base: b.Metrics, opt: m}
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
	}
	return out, ft, nil
}

// checkDesigns runs the oracle checks on a traced pass's optimized
// designs: functional equivalence with the input netlist, placed-design
// invariants and no period regression.
func checkDesigns(chk *checker, designs []tracedDesign, dm arch.DelayModel) {
	for _, d := range designs {
		chk.checkErr(oracle.Equivalent(d.input, d.nl, oracle.EquivOptions{Seed: 1}), d.name+" equivalence")
		chk.checkErr(oracle.CheckPlaced(d.nl, d.pl), d.name+" placed invariants")
		chk.checkErr(oracle.CheckNoRegression(d.nl, d.pl, dm, d.basePeriod), d.name+" no regression")
	}
}

// flowQoRMetrics computes the Table II readouts of one pass.
func flowQoRMetrics(q []flowQoR) (winf, wls, wire, blocks, period float64, wmin int) {
	var rw, rl, rr, rb, rp []float64
	for _, c := range q {
		rw = append(rw, c.opt.WInf/c.base.WInf)
		rl = append(rl, c.opt.WLs/c.base.WLs)
		rr = append(rr, c.opt.Wire/c.base.Wire)
		rb = append(rb, float64(c.opt.Blocks)/float64(c.base.Blocks))
		rp = append(rp, c.opt.PlacePeriod/c.base.PlacePeriod)
		wmin += wminOf(c.opt.Wmin)
	}
	return geomean(rw), geomean(rl), geomean(rr), geomean(rb), geomean(rp), wmin
}

// checkStable records that every pass of a run produced bit-identical
// QoR to the first pass.
func checkStable(chk *checker, what string, first, got []uint64, pass int) {
	chk.check(equalBits(first, got), "%s: pass %d QoR differs from pass 0", what, pass)
}

func flowBits(q []flowQoR) []uint64 {
	var out []uint64
	for _, c := range q {
		out = append(out, c.bits()...)
	}
	return out
}

// runFlowRouted is the flow_routed workload: the Table I/II flow a
// paper user runs over the bench suite — generate, place, baseline
// STA, W∞, W_min and W_ls, RT-Embedding, validate, re-route.
func runFlowRouted(_ context.Context, o options) (*report, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	chk := &checker{}
	rep := newReport(chk)
	var in []flowInput
	setup, err := timeSetup(func() error {
		var err error
		in, err = flowInputs(o.seed, flowSuite, flowCopies, flowScale, flowEffort, false)
		if err != nil {
			return err
		}
		for _, fi := range in {
			nl, err := circuits.Generate(fi.spec.Spec(fi.cfg.Scale))
			if err != nil {
				return err
			}
			if err := nl.Validate(); err != nil {
				return fmt.Errorf("generated %s: %w", fi.key, err)
			}
		}
		// Warm the heap, the placer and the router on the first input
		// of each circuit.
		for i := 0; i < len(in); i += flowCopies {
			if _, err := flow.RunBaseline(in[i].spec, in[i].cfg); err != nil {
				return fmt.Errorf("warm-up %s: %w", in[i].key, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var first []uint64
	var firstQ []flowQoR
	untracedPass := func(i int, u *units) error {
		q, err := runFlowUntraced(in, u)
		if !chk.checkErr(err, "flow") {
			return nil
		}
		if first == nil {
			first, firstQ = flowBits(q), q
		} else {
			checkStable(chk, "flow_routed", first, flowBits(q), i)
		}
		return nil
	}

	if !o.trace {
		ps, err := measure(time.Duration(o.seconds*float64(time.Second)), 1, untracedPass)
		if err != nil {
			return nil, err
		}
		fillProcessMetrics(rep, setup, ps)
		if firstQ != nil {
			winf, wls, wire, blocks, period, wmin := flowQoRMetrics(firstQ)
			rep.setExtra("winf_ratio", winf, "ratio")
			rep.setExtra("wls_ratio", wls, "ratio")
			rep.setExtra("wire_ratio", wire, "ratio")
			rep.setExtra("blocks_ratio", blocks, "ratio")
			rep.setExtra("period_ratio", period, "ratio")
			rep.setExtra("wmin", float64(wmin), "tracks")
		}
		return rep, nil
	}

	ub, tb := splitBudget(o)
	ups, err := measure(ub, 1, untracedPass)
	if err != nil {
		return nil, err
	}
	t := newTracer()
	var fts []*flowTrace
	tps, err := measure(tb, 1, func(i int, _ *units) error {
		q, ft, err := runFlowTraced(t, i, in)
		if !chk.checkErr(err, "traced flow") {
			return nil
		}
		fts = append(fts, ft)
		// Composition cross-check: the recomposed flow must produce
		// the untraced flow's numbers bit for bit.
		chk.check(first != nil && equalBits(first, flowBits(q)), "traced flow QoR differs from flow.RunBaseline/RunAlgorithm")
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, ft := range fts {
		checkDesigns(chk, ft.designs, arch.DefaultDelayModel())
		for _, r := range ft.routes {
			chk.check(r.feasible, "%s: W_ls route infeasible", r.name)
		}
	}
	if err := writeTrace(o, t); err != nil {
		return nil, err
	}
	fillLayerDefaults(rep)
	spans := t.Spans()
	n := float64(len(tps.wall))
	self := selfByName(spans)
	dur := durByName(spans)
	setLayerPerPass(rep, self, n)
	rep.setLayer("flow.core_share", sumPrefix(dur, "core.run.")/dur["flow"], "ratio")
	rep.setLayer("flow.route_share", sumPrefix(dur, "route.")/dur["flow"], "ratio")
	var iters []float64
	var feas, tot float64
	for _, ft := range fts {
		for _, it := range ft.lsIters {
			iters = append(iters, float64(it))
		}
		for _, r := range ft.routes {
			tot++
			if r.feasible {
				feas++
			}
		}
	}
	rep.setLayer("route.ls_iters", sum(iters)/n, "count")
	if tot > 0 {
		rep.setLayer("route.ls_feasible_ratio", feas/tot, "ratio")
	}
	setEngineLayer(rep, collectStats(fts), n)
	rep.setLayer("trace.overhead_s", median(tps.wall)-median(ups.wall), "s")
	rep.note("traced %d passes, untraced %d passes", len(tps.wall), len(ups.wall))
	return rep, nil
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func sumPrefix(m map[string]float64, prefix string) float64 {
	s := 0.0
	for k, v := range m {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			s += v
		}
	}
	return s
}

// collectStats gathers the engine statistics of traced passes.
func collectStats(fts []*flowTrace) []*core.Stats {
	var out []*core.Stats
	for _, ft := range fts {
		for _, d := range ft.designs {
			out = append(out, d.stats)
		}
	}
	return out
}
