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
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/arch"
	"repro/internal/circuits"
	"repro/internal/flow"
	"repro/internal/netlist"
	"repro/internal/placement"
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

	if (*circuit == "") == (*netlistPath == "") {
		fmt.Fprintln(os.Stderr, "rtembed: need exactly one of -circuit or -netlist")
		flag.Usage()
		os.Exit(2)
	}

	cfg := flow.Defaults()
	cfg.Scale = *scale
	cfg.PlaceEffort = *effort
	cfg.Seed = *seed
	cfg.SkipRouting = *skipRouting

	var nl *netlist.Netlist
	if *netlistPath != "" {
		f, err := os.Open(*netlistPath)
		if err != nil {
			fatalf("%v", err)
		}
		nl, err = netlist.Read(f)
		f.Close()
		if err != nil {
			fatalf("parse %s: %v", *netlistPath, err)
		}
	} else {
		spec, ok := circuits.ByName(*circuit)
		if !ok {
			fatalf("unknown circuit %q (see cmd/mcncgen for the suite)", *circuit)
		}
		var err error
		nl, err = circuits.Generate(spec.Spec(cfg.Scale))
		if err != nil {
			fatalf("%v", err)
		}
	}

	ctx := context.Background()
	pl, f, err := flow.Place(ctx, nl, cfg)
	if err != nil {
		fatalf("place: %v", err)
	}
	fmt.Printf("circuit %s: %d LUTs, %d I/Os, FPGA %v (density %.3f)\n",
		nl.Name, nl.NumLUTs(), nl.NumIOs(), f, f.Density(nl.NumLUTs()))
	a, err := timing.Analyze(nl, pl, cfg.Delay)
	if err != nil {
		fatalf("sta: %v", err)
	}
	fmt.Printf("placed: period %.2f\n", a.Period)
	if *plot {
		fmt.Print(plotCritical(nl, pl, a, cfg.Delay))
	}

	o, err := flow.Optimize(ctx, nl, pl, f, algorithm, cfg)
	if err != nil {
		fatalf("optimize: %v", err)
	}
	nl, pl = o.Netlist, o.Placement
	if st := o.LocalStats; st != nil {
		fmt.Printf("local replication: %d iterations, %d replicated, %d relocated\n",
			st.Iterations, st.Replicated, st.Relocated)
	}
	if st := o.EngineStats; st != nil {
		fmt.Printf("%s: %d iterations, %d replicated, %d unified, %d FF relocations\n",
			algorithm, st.Iterations, st.Replicated, st.Unified, st.FFRelocations)
	}

	m, a, err := flow.Measure(ctx, nl, pl, f, cfg)
	if err != nil {
		fatalf("measure: %v", err)
	}
	fmt.Printf("optimized: period %.2f, blocks %d\n", m.PlacePeriod, m.Blocks)
	fmt.Printf("monotone worst paths: %d/%d (critical path monotone: %v)\n",
		m.Mono.Monotone, m.Mono.Paths, m.Mono.CriticalMonotone)
	if *plot {
		fmt.Print(plotCritical(nl, pl, a, cfg.Delay))
	}
	if *report > 0 {
		fmt.Print(timing.FormatReport(nl, pl, timing.TopPaths(nl, pl, cfg.Delay, a, *report)))
	}
	if !cfg.SkipRouting {
		fmt.Printf("routed: W-inf %.2f, W-ls %.2f (width %d), wire %d\n",
			m.WInf, m.WLs, m.Wmin, int(m.Wire))
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

// plotCritical draws pl's floorplan with a's critical path marked.
func plotCritical(nl *netlist.Netlist, pl *placement.Placement, a *timing.Analysis, dm arch.DelayModel) string {
	crit := map[netlist.CellID]bool{}
	for _, id := range a.CriticalPath(nl, pl, dm) {
		crit[id] = true
	}
	return pl.Plot(nl, crit)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rtembed: "+format+"\n", args...)
	os.Exit(1)
}
