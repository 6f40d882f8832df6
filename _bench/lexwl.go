package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/arch"
	"repro/internal/flow"
)

// lexSuite and its scale: mostly large suite circuits (small and
// large, combinational and sequential), bigger on average than
// flow_routed's, whose engine run times vary least from one placement
// seed to the next, so that a pass asks for about the same work at
// every seed.
var lexSuite = []string{"des", "pdc", "elliptic"}

const (
	lexScale  = 0.01
	lexEffort = 1.0
	lexCopies = 16
)

// lexResult is one (circuit, variant) outcome at placement level.
type lexResult struct {
	base, opt flow.Metrics
}

func lexBits(rs []lexResult) []uint64 {
	var out []uint64
	for _, r := range rs {
		out = append(out, math.Float64bits(r.opt.PlacePeriod), math.Float64bits(r.opt.WInf), uint64(r.opt.Blocks))
	}
	return out
}

// lexQoR computes Table III's placement-level readouts: the geomean
// over circuits × variants of the optimized / VPR period and block
// count.
func lexQoR(rs []lexResult) (period, blocks float64) {
	var rp, rb []float64
	for _, r := range rs {
		rp = append(rp, r.opt.PlacePeriod/r.base.PlacePeriod)
		rb = append(rb, float64(r.opt.Blocks)/float64(r.base.Blocks))
	}
	return geomean(rp), geomean(rb)
}

// runEngineLex is the engine_lex workload: the Table III sweep, all six
// engine variants on each circuit at placement level, no routing.
// Generation and baseline placement are set-up.
func runEngineLex(_ context.Context, o options) (*report, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	chk := &checker{}
	rep := newReport(chk)
	var bases []*flow.Baseline
	var in []flowInput
	setup, err := timeSetup(func() error {
		var err error
		in, err = flowInputs(o.seed, lexSuite, lexCopies, lexScale, lexEffort, true)
		if err != nil {
			return err
		}
		bases = nil
		for _, fi := range in {
			b, err := flow.RunBaseline(fi.spec, fi.cfg)
			if err != nil {
				return fmt.Errorf("%s baseline: %w", fi.key, err)
			}
			bases = append(bases, b)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var first []uint64
	var firstR []lexResult
	untracedPass := func(i int, u *units) error {
		var rs []lexResult
		for bi, b := range bases {
			for _, algo := range flow.EngineAlgorithms {
				key := in[bi].key + "/" + flow.CanonicalName(algo)
				var r *flow.Result
				err := u.time(key, func() error {
					var err error
					r, err = flow.RunAlgorithm(b, algo, in[bi].cfg)
					return err
				})
				if !chk.checkErr(err, key) {
					continue
				}
				rs = append(rs, lexResult{base: b.Metrics, opt: r.Metrics})
			}
		}
		if first == nil {
			first, firstR = lexBits(rs), rs
		} else {
			checkStable(chk, "engine_lex", first, lexBits(rs), i)
		}
		return nil
	}

	if !o.trace {
		ps, err := measure(time.Duration(o.seconds*float64(time.Second)), 1, untracedPass)
		if err != nil {
			return nil, err
		}
		fillProcessMetrics(rep, setup, ps)
		period, blocks := lexQoR(firstR)
		rep.setExtra("period_ratio", period, "ratio")
		rep.setExtra("blocks_ratio", blocks, "ratio")
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
		ft := &flowTrace{t: t}
		var rs []lexResult
		for bi, b := range bases {
			for _, algo := range flow.EngineAlgorithms {
				fid := fmt.Sprintf("p%d/%s/%s", i, in[bi].key, flow.CanonicalName(algo))
				var m flow.Metrics
				err := t.Time(0, fid, "engine_run", func(root int) error {
					var err error
					m, err = ft.algorithm(root, fid, b, algo, in[bi].cfg)
					return err
				})
				if !chk.checkErr(err, "traced "+fid) {
					continue
				}
				rs = append(rs, lexResult{base: b.Metrics, opt: m})
			}
		}
		fts = append(fts, ft)
		chk.check(first != nil && equalBits(first, lexBits(rs)), "traced engine QoR differs from flow.RunAlgorithm")
		return nil
	})
	if err != nil {
		return nil, err
	}
	var stats = collectStats(fts)
	for _, ft := range fts {
		checkDesigns(chk, ft.designs, arch.DefaultDelayModel())
	}
	if err := writeTrace(o, t); err != nil {
		return nil, err
	}
	fillLayerDefaults(rep)
	n := float64(len(tps.wall))
	setLayerPerPass(rep, selfByName(t.Spans()), n)
	setEngineLayer(rep, stats, n)
	rep.setLayer("trace.overhead_s", median(tps.wall)-median(ups.wall), "s")
	rep.note("traced %d passes, untraced %d passes", len(tps.wall), len(ups.wall))
	return rep, nil
}
