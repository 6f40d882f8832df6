package main

import (
	"strings"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/flow"
)

// layerMetric is one per-layer metric of the traced run. Every traced
// workload reports every one; a layer the workload does not exercise
// reads 0 (idle), which is itself the prediction for that workload.
type layerMetric struct{ name, unit string }

// staticLayerMetrics are the per-layer metrics, in BENCHMARK.json
// order, before the one-per-rule analysis metrics appended by
// layerMetrics.
var staticLayerMetrics = []layerMetric{
	{"route.wmin_search_s", "s"},
	{"route.infinite_s", "s"},
	{"route.lowstress_s", "s"},
	{"route.ls_iters", "count"},
	{"route.ls_feasible_ratio", "ratio"},
	{"place.place_s", "s"},
	{"circuits.generate_s", "s"},
	{"timing.analyze_s", "s"},
	{"netlist.validate_s", "s"},
	{"core.run_s", "s"},
	{"core.analyze_s", "s"},
	{"core.extract_s", "s"},
	{"core.embed_s", "s"},
	{"core.apply_s", "s"},
	{"core.legalize_s", "s"},
	{"core.iterations", "count"},
	{"core.replicated", "count"},
	{"core.unified", "count"},
	{"core.sta_full_runs", "count"},
	{"core.sta_updates", "count"},
	{"core.spt_patches", "count"},
	{"core.spt_rebuilds", "count"},
	{"core.frontier_hit_ratio", "ratio"},
	{"flow.core_share", "ratio"},
	{"flow.route_share", "ratio"},
	{"serve.queue_s", "s"},
	{"serve.run_s", "s"},
	{"serve.place_s", "s"},
	{"serve.engine_s", "s"},
	{"serve.route_s", "s"},
	{"localrep.run_s", "s"},
	{"serve.races", "count"},
	{"serve.race_losers_cancelled", "count"},
	{"serve.rejected", "count"},
	{"cluster.dedup_ratio", "ratio"},
	{"netlist.read_s", "s"},
	{"analysis.load_s", "s"},
	{"analysis.build_module_s", "s"},
	{"analysis.findings", "count"},
	{"trace.overhead_s", "s"},
}

// layerMetrics is the full per-layer list: the static metrics, one
// core.run_s.<variant> per engine variant, and one analysis.rule.<name>_s
// per rule of analysis.All(), taken at run time so a renamed or deleted
// rule needs no benchmark edit.
var layerMetrics = func() []layerMetric {
	out := append([]layerMetric(nil), staticLayerMetrics...)
	for _, name := range flow.EngineAlgorithmNames() {
		out = append(out, layerMetric{"core.run_s." + name, "s"})
	}
	for _, a := range analysis.All() {
		out = append(out, layerMetric{"analysis.rule." + a.Name + "_s", "s"})
	}
	return out
}()

// fillLayerDefaults sets every per-layer metric to 0 so a layer the
// workload leaves idle reads as such.
func fillLayerDefaults(r *report) {
	for _, m := range layerMetrics {
		r.setLayer(m.name, 0, m.unit)
	}
}

// spanMetric maps a span name to its per-layer metric name:
// "place.place" → "place.place_s", "core.run.lex3" → "core.run_s.lex3".
func spanMetric(span string) string {
	if v, ok := strings.CutPrefix(span, "core.run."); ok {
		return "core.run_s." + v
	}
	return span + "_s"
}

// setLayerPerPass reports per-pass self seconds for every span name
// that maps to a known per-layer metric, plus core.run_s as the sum of
// the engine variants.
func setLayerPerPass(r *report, self map[string]float64, passes float64) {
	known := map[string]string{}
	for _, m := range layerMetrics {
		known[m.name] = m.unit
	}
	coreRun := 0.0
	for span, v := range self {
		name := spanMetric(span)
		if _, ok := known[name]; !ok {
			continue
		}
		r.setLayer(name, v/passes, "s")
		if strings.HasPrefix(span, "core.run.") {
			coreRun += v
		}
	}
	r.setLayer("core.run_s", coreRun/passes, "s")
}

// setEngineLayer reports the engine's own phase times and counters
// (core.Stats), summed over the traced passes and divided per pass.
func setEngineLayer(r *report, stats []*core.Stats, passes float64) {
	var ph core.PhaseTimes
	var iters, repl, unif, full, upd, patch, rebuild, hits, misses float64
	for _, st := range stats {
		if st == nil {
			continue
		}
		ph.Analyze += st.Phases.Analyze
		ph.Extract += st.Phases.Extract
		ph.Embed += st.Phases.Embed
		ph.Apply += st.Phases.Apply
		ph.Legalize += st.Phases.Legalize
		iters += float64(st.Iterations)
		repl += float64(st.Replicated)
		unif += float64(st.Unified)
		inc := st.Incremental
		full += float64(inc.STAFullRuns)
		upd += float64(inc.STAUpdates)
		patch += float64(inc.SPTPatches)
		rebuild += float64(inc.SPTRebuilds)
		hits += float64(inc.FrontierHits)
		misses += float64(inc.FrontierMisses)
	}
	r.setLayer("core.analyze_s", ph.Analyze/passes, "s")
	r.setLayer("core.extract_s", ph.Extract/passes, "s")
	r.setLayer("core.embed_s", ph.Embed/passes, "s")
	r.setLayer("core.apply_s", ph.Apply/passes, "s")
	r.setLayer("core.legalize_s", ph.Legalize/passes, "s")
	r.setLayer("core.iterations", iters/passes, "count")
	r.setLayer("core.replicated", repl/passes, "count")
	r.setLayer("core.unified", unif/passes, "count")
	r.setLayer("core.sta_full_runs", full/passes, "count")
	r.setLayer("core.sta_updates", upd/passes, "count")
	r.setLayer("core.spt_patches", patch/passes, "count")
	r.setLayer("core.spt_rebuilds", rebuild/passes, "count")
	if hits+misses > 0 {
		r.setLayer("core.frontier_hit_ratio", hits/(hits+misses), "ratio")
	}
}
