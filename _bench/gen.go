package main

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/circuits"
	"repro/internal/serve"
)

// Job kinds of the serve_mixed traffic.
const (
	kindEngine = "engine" // rt/lexmc on a suite circuit
	kindInline = "inline" // rt/lexmc on an inline netlist (netlist.Read path)
	kindLocal  = "local"  // local replication baseline
	kindRace   = "race"   // speculative variant racing
	kindRoute  = "route"  // optimize, then W_min search + W_ls route
	kindRepeat = "repeat" // exact repeat of an earlier spec (dedup, store)
	kindProbe  = "probe"  // route job whose deadline expires while routing
)

// benchJob is one submission of the serve_mixed job list.
type benchJob struct {
	kind     string
	spec     serve.JobSpec
	repeatOf int // index of the repeated job, -1 otherwise
}

// Sizes of the serve_mixed traffic. The composition is fixed; the seed
// drives placement seeds, inline netlist structure and submission
// order, so every seed asks for about the same work.
const (
	serveScale      = 0.03
	serveRouteScale = 0.03
	inlineLUTs      = 60
	numInline       = 8
	numRepeats      = 10
	// probeTimeoutMS is the deadline of a probe: past placement and
	// optimization of its circuit, inside its routing (the routing
	// stage takes no context on the seed commit, so the job overruns
	// it). The machine's speed drifts by up to 3× between its fast and
	// slow periods, and the deadline falls in that window at both ends.
	probeTimeoutMS = 700
	// Probes place with little effort and cap the engine's iterations
	// so routing dominates their run time.
	probeScale    = 0.03
	probeEffort   = 0.2
	probeMaxIters = 3
)

// Fixed per-slot circuits, so that the seed changes inputs but not the
// amount of work. Every slot kind holds its circuits twice over: one
// job's run time varies with its placement seed, and a pass over more
// jobs varies less from one benchmark seed to the next.
var (
	engineSlots = []string{"ex5p", "tseng", "dsip", "pdc", "ex5p", "tseng", "dsip", "pdc",
		"ex5p", "tseng", "dsip", "pdc", "ex5p", "tseng", "dsip", "pdc"}
	localSlots = []string{"ex5p", "dsip", "ex5p", "dsip"}
	raceSlots  = []string{"tseng", "dsip", "tseng", "dsip"}
	routeSlots = []string{"ex5p", "tseng", "ex5p", "tseng"}
	probeSlots = []string{"pdc", "pdc", "pdc", "pdc"}
	raceSet    = []string{"rt", "lex3"}
	// raceBounds: 0 runs the full board (best period wins); a bound
	// every period meets lets the first canonical variant win and
	// cancels the other as soon as it finishes.
	raceBounds = []float64{0, 1e6}
	slotAlgos  = []string{"rt", "lexmc"}
)

// genJobs builds the serve_mixed job list for a seed: 40 distinct
// specs in seeded order with numRepeats exact repeats inserted after
// their originals (about a fifth of the submissions).
func genJobs(seed int64) ([]benchJob, error) {
	rng := rand.New(rand.NewSource(seed))
	nextSeed := func() int64 { return 1 + rng.Int63n(1<<30) }
	var jobs []benchJob
	add := func(kind string, spec serve.JobSpec) {
		jobs = append(jobs, benchJob{kind: kind, spec: spec, repeatOf: -1})
	}
	for i, c := range engineSlots {
		add(kindEngine, serve.JobSpec{Circuit: c, Scale: serveScale, Algo: slotAlgos[i%2], Seed: nextSeed()})
	}
	for i := 0; i < numInline; i++ {
		text, err := inlineNetlist(fmt.Sprintf("inline%d", i), nextSeed())
		if err != nil {
			return nil, err
		}
		add(kindInline, serve.JobSpec{Netlist: text, Algo: slotAlgos[i%2], Seed: nextSeed()})
	}
	for _, c := range localSlots {
		add(kindLocal, serve.JobSpec{Circuit: c, Scale: serveScale, Algo: "local", Seed: nextSeed()})
	}
	for i, c := range raceSlots {
		add(kindRace, serve.JobSpec{Circuit: c, Scale: serveScale, Algo: serve.AlgoRace,
			RaceVariants: append([]string(nil), raceSet...), PeriodBound: raceBounds[i%2], Seed: nextSeed()})
	}
	for _, c := range routeSlots {
		add(kindRoute, serve.JobSpec{Circuit: c, Scale: serveRouteScale, Algo: "rt", Route: true, Seed: nextSeed()})
	}
	for _, c := range probeSlots {
		add(kindProbe, serve.JobSpec{Circuit: c, Scale: probeScale, Algo: "rt", Route: true,
			Effort: probeEffort, MaxIters: probeMaxIters, TimeoutMS: probeTimeoutMS, Seed: nextSeed()})
	}
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	for r := 0; r < numRepeats; r++ {
		var cands []int
		for i, j := range jobs {
			if j.kind != kindProbe && j.kind != kindRepeat {
				cands = append(cands, i)
			}
		}
		orig := cands[rng.Intn(len(cands))]
		at := orig + 1 + rng.Intn(len(jobs)-orig)
		rep := benchJob{kind: kindRepeat, spec: jobs[orig].spec, repeatOf: orig}
		jobs = append(jobs[:at], append([]benchJob{rep}, jobs[at:]...)...)
		// Indices at or past the insertion point moved by one.
		for i := range jobs {
			if jobs[i].repeatOf >= at {
				jobs[i].repeatOf++
			}
		}
	}
	return jobs, nil
}

// inlineNetlist generates a seeded synthetic netlist and serializes it
// to the text format repld accepts inline.
func inlineNetlist(name string, seed int64) (string, error) {
	nl, err := circuits.Generate(circuits.Spec{Name: name, LUTs: inlineLUTs, Inputs: 8, Outputs: 8,
		RegisteredFrac: 0.1, Seed: seed})
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	if err := nl.Write(&sb); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// lintEditTargets returns the edit candidates of lint_edit: the
// module's non-test .go files of the default build, outside testdata
// and outside the linter's own build closure (internal/analysis,
// cmd/replint), whose edits would time the Go compiler rebuilding
// replint rather than replint itself. Files with a //go:build
// constraint are left out: the default build, and so the lint, never
// reads them. files must be sorted module-relative slash paths;
// source returns a file's contents.
func lintEditTargets(files []string, source func(string) ([]byte, error)) ([]string, error) {
	var out []string
	for _, f := range files {
		switch {
		case !strings.HasSuffix(f, ".go"), strings.HasSuffix(f, "_test.go"),
			strings.Contains("/"+f, "/testdata/"),
			strings.HasPrefix(f, "internal/analysis/"), strings.HasPrefix(f, "cmd/replint/"):
			continue
		}
		src, err := source(f)
		if err != nil {
			return nil, err
		}
		if hasBuildConstraint(src) {
			continue
		}
		out = append(out, f)
	}
	return out, nil
}

// hasBuildConstraint reports whether a Go file carries a //go:build
// line before its package clause.
func hasBuildConstraint(src []byte) bool {
	for _, line := range strings.Split(string(src), "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "//go:build") {
			return true
		}
		if strings.HasPrefix(line, "package ") {
			return false
		}
	}
	return false
}

// lintEdits picks the seeded sequence of files lint_edit appends a
// comment line to, one per pass.
func lintEdits(seed int64, targets []string, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, n)
	for i := range out {
		out[i] = targets[rng.Intn(len(targets))]
	}
	return out
}
