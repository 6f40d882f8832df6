package serve

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/circuits"
	"repro/internal/flow"
	"repro/internal/netlist"
	"repro/internal/route"
	"repro/internal/timing"
)

// defaultScale keeps suite circuits service-sized unless the job asks
// for more; 1.0 is the paper's published sizes.
const defaultScale = 0.2

// defaultEffort trades placement quality for latency relative to the
// VPR default of 10.
const defaultEffort = 2.0

// ExecuteJob runs one replication job start to finish: resolve the
// design, then flow's place and optimize stages under ctx, and
// optionally the W_ls route. It is the Manager's default Runner. The
// result is deterministic for identical specs, because the placer is
// seed-driven and the engine is serial and deterministic. Like every
// flow front end, it never returns an optimized design that fails
// flow.Optimize's validity and legality check.
func ExecuteJob(ctx context.Context, spec JobSpec) (*Result, error) {
	// Normalized() applies every semantic default exactly once; the
	// cluster layer hashes the same normal form, so two specs with
	// equal hashes run identical flows here.
	spec = spec.Normalized()
	algo, ok := flow.ParseAlgorithm(spec.Algo)
	if !ok {
		return nil, fmt.Errorf("unknown algorithm %q", spec.Algo)
	}
	nl, err := resolveNetlist(spec)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	cfg := flow.Defaults()
	cfg.Seed = spec.Seed
	cfg.PlaceEffort = spec.Effort
	if spec.MaxIters > 0 {
		cfg.Engine.MaxIters = spec.MaxIters
	}
	res := &Result{
		Circuit: nl.Name,
		Algo:    algo.String(),
		LUTs:    nl.NumLUTs(),
		IOs:     nl.NumIOs(),
	}

	t0 := time.Now()
	pl, f, err := flow.Place(ctx, nl, cfg)
	res.PlaceSeconds = time.Since(t0).Seconds()
	if err != nil {
		return nil, fmt.Errorf("place: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	a, err := timing.AnalyzeContext(ctx, nl, pl, cfg.Delay)
	if err != nil {
		return nil, err
	}
	res.PlacedPeriod = a.Period

	t0 = time.Now()
	o, err := flow.Optimize(ctx, nl, pl, f, algo, cfg)
	res.EngineSeconds = time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}
	if st := o.LocalStats; st != nil {
		res.Iterations = st.Iterations
		res.Replicated = st.Replicated
	}
	if st := o.EngineStats; st != nil {
		res.Iterations = st.Iterations
		res.Replicated = st.Replicated
		res.Unified = st.Unified
		res.FFRelocations = st.FFRelocations
		res.StoppedEarly = st.StoppedEarly
		res.Phases = st.Phases
		res.Incremental = st.Incremental
	}

	a, err = timing.AnalyzeContext(ctx, o.Netlist, o.Placement, cfg.Delay)
	if err != nil {
		return nil, err
	}
	res.OptimizedPeriod = a.Period

	if spec.Route {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t0 = time.Now()
		ls, w, err := route.LowStress(o.Netlist, o.Placement, f, cfg.Delay, route.Defaults())
		res.RouteSeconds = time.Since(t0).Seconds()
		if err != nil {
			return nil, fmt.Errorf("route: %w", err)
		}
		res.RoutedCritPath = ls.CritPath
		res.ChannelWidth = w
		res.WireLength = ls.WireLength
	}
	return res, nil
}

// resolveNetlist materializes the job's design: parse the inline text
// or generate the named suite circuit at the requested scale.
func resolveNetlist(spec JobSpec) (*netlist.Netlist, error) {
	if spec.Netlist != "" {
		nl, err := netlist.Read(strings.NewReader(spec.Netlist))
		if err != nil {
			return nil, fmt.Errorf("netlist: %w", err)
		}
		return nl, nil
	}
	mc, ok := circuits.ByName(spec.Circuit)
	if !ok {
		return nil, fmt.Errorf("unknown circuit %q", spec.Circuit)
	}
	// Normalized() applied the default scale; the guard keeps direct
	// callers with a raw spec safe.
	scale := spec.Scale
	if scale == 0 {
		scale = defaultScale
	}
	return circuits.Generate(mc.Spec(scale))
}
