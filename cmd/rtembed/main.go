// Command rtembed runs one circuit through the full
// place → replicate → route flow with a chosen algorithm:
//
//	rtembed -circuit ex5p -algo lex3 -scale 0.2
//	rtembed -netlist design.ckt -algo rt
//
// With -netlist it reads the package netlist text format instead of a
// synthetic suite circuit; -out writes the optimized netlist back.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/arch"
	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/localrep"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/route"
	"repro/internal/timing"
)

func main() {
	var (
		circuit     = flag.String("circuit", "", "suite circuit name (e.g. ex5p)")
		netlistPath = flag.String("netlist", "", "path to a netlist file (text format)")
		algo        = flag.String("algo", "rt", "algorithm: "+strings.Join(flow.AlgorithmNames(), " | "))
		scale       = flag.Float64("scale", 0.2, "suite circuit size multiplier")
		effort      = flag.Float64("effort", 2, "placer effort")
		seed        = flag.Int64("seed", 1, "random seed")
		skipRouting = flag.Bool("skip-routing", false, "skip routing")
		outPath     = flag.String("out", "", "write the optimized netlist here")
		report      = flag.Int("report", 0, "print the K worst timing paths after optimization")
		plot        = flag.Bool("plot", false, "print ASCII floorplans before and after")
	)
	flag.Parse()

	// Reject an unknown algorithm before any placement work starts:
	// the name set is shared with repld via flow.ParseAlgorithm.
	algorithm, ok := flow.ParseAlgorithm(*algo)
	if !ok {
		fmt.Fprintf(os.Stderr, "rtembed: unknown algorithm %q (valid: %s)\n",
			*algo, strings.Join(flow.AlgorithmNames(), ", "))
		flag.Usage()
		os.Exit(2)
	}

	cfg := flow.Defaults()
	cfg.Scale = *scale
	cfg.PlaceEffort = *effort
	cfg.Seed = *seed
	cfg.SkipRouting = *skipRouting

	var nl *netlist.Netlist
	switch {
	case *netlistPath != "":
		f, err := os.Open(*netlistPath)
		if err != nil {
			fatalf("%v", err)
		}
		nl, err = netlist.Read(f)
		f.Close()
		if err != nil {
			fatalf("parse %s: %v", *netlistPath, err)
		}
	case *circuit != "":
		spec, ok := circuits.ByName(*circuit)
		if !ok {
			fatalf("unknown circuit %q (see cmd/mcncgen for the suite)", *circuit)
		}
		var err error
		nl, err = circuits.Generate(spec.Spec(cfg.Scale))
		if err != nil {
			fatalf("%v", err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}

	f := arch.MinSquare(nl.NumLUTs(), nl.NumIOs())
	fmt.Printf("circuit %s: %d LUTs, %d I/Os, FPGA %v (density %.3f)\n",
		nl.Name, nl.NumLUTs(), nl.NumIOs(), f, f.Density(nl.NumLUTs()))

	popt := place.Defaults()
	popt.Seed = cfg.Seed
	popt.Effort = cfg.PlaceEffort
	pl, err := place.Place(nl, f, popt)
	if err != nil {
		fatalf("place: %v", err)
	}
	a, err := timing.Analyze(nl, pl, cfg.Delay)
	if err != nil {
		fatalf("sta: %v", err)
	}
	fmt.Printf("placed: period %.2f\n", a.Period)
	if *plot {
		crit := map[netlist.CellID]bool{}
		for _, id := range a.CriticalPath(nl, pl, cfg.Delay) {
			crit[id] = true
		}
		fmt.Print(pl.Plot(nl, crit))
	}

	switch algorithm {
	case flow.VPRBaseline:
		// nothing
	case flow.LocalRep:
		opt := localrep.Defaults()
		opt.Seed = cfg.Seed
		var st *localrep.Stats
		nl, pl, st, err = localrep.BestOf(nl, pl, cfg.Delay, opt, 3)
		if err != nil {
			fatalf("local replication: %v", err)
		}
		fmt.Printf("local replication: %d iterations, %d replicated, %d relocated\n",
			st.Iterations, st.Replicated, st.Relocated)
	default:
		ecfg := core.Default()
		ecfg.Mode = algorithm.Mode()
		eng := core.New(nl, pl, cfg.Delay, ecfg)
		st, err := eng.Run()
		if err != nil {
			fatalf("engine: %v", err)
		}
		nl, pl = eng.Netlist, eng.Placement
		fmt.Printf("%s: %d iterations, %d replicated, %d unified, %d FF relocations\n",
			algorithm, st.Iterations, st.Replicated, st.Unified, st.FFRelocations)
	}
	if err := flow.CheckDesign(nl, pl); err != nil {
		fatalf("%s produced %v", algorithm, err)
	}

	a, err = timing.Analyze(nl, pl, cfg.Delay)
	if err != nil {
		fatalf("sta: %v", err)
	}
	fmt.Printf("optimized: period %.2f, blocks %d\n", a.Period, nl.NumLUTs()+nl.NumIOs())
	mono := timing.Monotonicity(nl, pl, cfg.Delay, a)
	fmt.Printf("monotone worst paths: %d/%d (critical path monotone: %v)\n",
		mono.Monotone, mono.Paths, mono.CriticalMonotone)
	if *plot {
		crit := map[netlist.CellID]bool{}
		for _, id := range a.CriticalPath(nl, pl, cfg.Delay) {
			crit[id] = true
		}
		fmt.Print(pl.Plot(nl, crit))
	}
	if *report > 0 {
		fmt.Print(timing.FormatReport(nl, pl, timing.TopPaths(nl, pl, cfg.Delay, a, *report)))
	}

	if !cfg.SkipRouting {
		inf, err := route.Infinite(nl, pl, f, cfg.Delay, route.Defaults())
		if err != nil {
			fatalf("route: %v", err)
		}
		ls, w, err := route.LowStress(nl, pl, f, cfg.Delay, route.Defaults())
		if err != nil {
			fatalf("route: %v", err)
		}
		fmt.Printf("routed: W-inf %.2f, W-ls %.2f (width %d), wire %d\n",
			inf.CritPath, ls.CritPath, w, ls.WireLength)
	}

	if *outPath != "" {
		out, err := os.Create(*outPath)
		if err != nil {
			fatalf("%v", err)
		}
		if err := nl.Write(out); err != nil {
			fatalf("write: %v", err)
		}
		if err := out.Close(); err != nil {
			fatalf("write: %v", err)
		}
		fmt.Printf("wrote optimized netlist to %s\n", *outPath)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rtembed: "+format+"\n", args...)
	os.Exit(1)
}
