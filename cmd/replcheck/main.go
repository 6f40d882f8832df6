// Command replcheck runs the correctness oracle suite from the command
// line: brute-force frontier agreement for the embedding DP, the
// differential/metamorphic engine checks (repeated-run bit-identity,
// functional equivalence, structural invariants, rename and translation
// invariance) on randomized circuits, and the router-result checks on
// W∞ and W_ls routings of randomized placed circuits.
//
//	replcheck                 # default budget of every check family
//	replcheck -frontier 2000  # hammer the embedder only
//	replcheck -engine 50 -seed 7
//
// Exit status 0 means every instance agreed; 1 reports the first
// counterexample, with its seed, for replay.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/arch"
	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/oracle"
	"repro/internal/place"
	"repro/internal/route"
)

// routedRuns is how many randomized placed circuits the router-result
// checks route, each in the W∞ and W_ls regimes (about a second in all).
const routedRuns = 4

func main() {
	var (
		frontier  = flag.Int("frontier", 400, "frontier-agreement instances per embedding mode")
		engine    = flag.Int("engine", 8, "differential engine runs")
		rename    = flag.Int("rename", 2, "rename-invariance runs")
		translate = flag.Int("translate", 2, "translation-invariance runs")
		seed      = flag.Int64("seed", 1, "base random seed")
	)
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "replcheck: "+format+"\n", args...)
		os.Exit(1)
	}

	modes := []struct {
		name string
		mode embed.Mode
	}{
		{"plain", embed.Mode{LexDepth: 1}},
		{"lex3", embed.Mode{LexDepth: 3}},
		{"lex-mc", embed.Mode{LexDepth: 2, MC: true}},
		{"quadratic", embed.Mode{LexDepth: 1, Delay: embed.QuadraticDelay}},
		{"elmore", embed.Mode{LexDepth: 1, Delay: embed.ElmoreDelay, GateR: 0.5}},
		{"overlap", embed.Mode{LexDepth: 1, OverlapControl: true}},
	}
	for _, m := range modes {
		rng := rand.New(rand.NewSource(*seed))
		for i := 0; i < *frontier; i++ {
			p := oracle.GenProblem(rng, m.mode)
			want, err := oracle.Frontier(p)
			if err != nil {
				fail("mode %s instance %d (seed %d): oracle refused: %v", m.name, i, *seed, err)
			}
			r, err := p.Solve()
			if err != nil {
				if len(want) != 0 {
					fail("mode %s instance %d (seed %d): Solve infeasible but oracle found %d solutions",
						m.name, i, *seed, len(want))
				}
				continue
			}
			if derr := oracle.Diff(r.Frontier, want); derr != nil {
				fail("mode %s instance %d (seed %d): %v", m.name, i, *seed, derr)
			}
		}
		fmt.Printf("frontier %-10s %d instances OK\n", m.name, *frontier)
	}

	cfg := core.Default()
	cfg.MaxIters = 8
	cfg.Patience = 4
	rng := rand.New(rand.NewSource(*seed + 100))
	for i := 0; i < *engine; i++ {
		spec := circuits.Spec{
			Name:    "replcheck",
			LUTs:    10 + rng.Intn(14),
			Inputs:  3 + rng.Intn(3),
			Outputs: 2 + rng.Intn(2),
			Seed:    rng.Int63n(1 << 30),
		}
		if i%2 == 1 {
			spec.RegisteredFrac = 0.3
		}
		rep, err := oracle.CheckEngine(engineOpts(spec, cfg))
		if err != nil {
			fail("engine run %d: %v", i, err)
		}
		fmt.Printf("engine run %-2d  %s: period %.3g -> %.3g OK\n", i, spec.Name, rep.Baseline, rep.Final)
	}

	for i := 0; i < *rename; i++ {
		spec := circuits.Spec{
			Name: "replcheck", LUTs: 12, Inputs: 4, Outputs: 2,
			Seed: *seed + int64(i),
		}
		if err := oracle.CheckRenameInvariance(engineOpts(spec, cfg), "zz_"); err != nil {
			fail("rename run %d: %v", i, err)
		}
	}
	if *rename > 0 {
		fmt.Printf("rename invariance %d runs OK\n", *rename)
	}

	tcfg := cfg
	tcfg.FFRelocation = false
	for i := 0; i < *translate; i++ {
		dx, dy := int16(1+i%2), int16(2-i%2)
		if err := oracle.CheckTranslationInvariance(*seed+int64(i), 48, tcfg, place.Defaults().Delay, dx, dy); err != nil {
			fail("translation run %d: %v", i, err)
		}
	}
	if *translate > 0 {
		fmt.Printf("translation invariance %d runs OK\n", *translate)
	}

	rrng := rand.New(rand.NewSource(*seed + 200))
	for i := 0; i < routedRuns; i++ {
		spec := circuits.Spec{
			Name:    "replcheck",
			LUTs:    20 + rrng.Intn(40),
			Inputs:  3 + rrng.Intn(4),
			Outputs: 2 + rrng.Intn(3),
			Seed:    rrng.Int63n(1 << 30),
		}
		if i%2 == 1 {
			spec.RegisteredFrac = 0.3
		}
		w, err := checkRouting(spec)
		if err != nil {
			fail("routed run %d (seed %d): %v", i, spec.Seed, err)
		}
		fmt.Printf("routed run %-2d  %d LUTs: W_ls width %d OK\n", i, spec.LUTs, w)
	}
	fmt.Println("replcheck: all checks passed")
}

// checkRouting places spec and routes it in the W∞ and W_ls regimes,
// running oracle.CheckRouted on both results. It returns the W_ls
// width.
func checkRouting(spec circuits.Spec) (int, error) {
	nl, err := circuits.Generate(spec)
	if err != nil {
		return 0, err
	}
	f := arch.MinSquare(nl.NumLUTs(), nl.NumIOs())
	po := place.Defaults()
	po.Effort = 1
	po.Seed = spec.Seed
	pl, err := place.Place(nl, f, po)
	if err != nil {
		return 0, err
	}
	inf, err := route.Infinite(nl, pl, f, po.Delay, route.Defaults())
	if err != nil {
		return 0, err
	}
	if err := oracle.CheckRouted(nl, pl, po.Delay, 0, inf); err != nil {
		return 0, fmt.Errorf("W∞: %w", err)
	}
	ls, w, err := route.LowStress(nl, pl, f, po.Delay, route.Defaults())
	if err != nil {
		return 0, err
	}
	if err := oracle.CheckRouted(nl, pl, po.Delay, w, ls); err != nil {
		return 0, fmt.Errorf("W_ls width %d: %w", w, err)
	}
	return w, nil
}

func engineOpts(spec circuits.Spec, cfg core.Config) oracle.EngineCheckOptions {
	po := place.Defaults()
	po.Effort = 1
	po.Seed = spec.Seed
	return oracle.EngineCheckOptions{
		Spec:      spec,
		GridN:     8,
		PlaceOpts: po,
		Config:    cfg,
		Delay:     po.Delay,
		Equiv:     oracle.EquivOptions{Seed: spec.Seed},
	}
}
