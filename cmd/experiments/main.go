// Command experiments regenerates the paper's tables and figures on
// the synthetic MCNC-20 suite:
//
//	experiments -table 1                 # Table I: baseline VPR data
//	experiments -table 2                 # Table II: LocalRep / RT-Embedding / Lex-3
//	experiments -table 3                 # Table III: all Lex variants (averages)
//	experiments -fig 14                  # Fig. 14: replication stats on ex1010
//	experiments -table 2 -circuits ex5p,pdc
//
// Common flags: -scale (circuit size multiplier), -effort (placer
// effort), -seed, -skip-routing (placement-level metrics only),
// -paper (print the paper's reference numbers next to measured ones).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/circuits"
	"repro/internal/flow"
)

func main() {
	var (
		table       = flag.Int("table", 0, "table to regenerate (1, 2, or 3)")
		fig         = flag.Int("fig", 0, "figure to regenerate (14)")
		scale       = flag.Float64("scale", 0.15, "circuit size multiplier (1.0 = published sizes)")
		effort      = flag.Float64("effort", 2, "placer effort (VPR uses 10)")
		seed        = flag.Int64("seed", 1, "random seed for placement and local replication")
		skipRouting = flag.Bool("skip-routing", false, "skip routing; report placement-level metrics")
		circuitsArg = flag.String("circuits", "", "comma-separated circuit subset (default: all 20)")
		paper       = flag.Bool("paper", false, "also print the paper's reference averages")
	)
	flag.Parse()

	cfg := flow.Defaults()
	cfg.Scale = *scale
	cfg.PlaceEffort = *effort
	cfg.Seed = *seed
	cfg.SkipRouting = *skipRouting

	suite := selectCircuits(*circuitsArg)
	if len(suite) == 0 {
		fatalf("no circuits selected")
	}

	switch {
	case *table == 1:
		runTable1(suite, cfg)
	case *table == 2:
		runTable2(suite, cfg, *paper)
	case *table == 3:
		runTable3(suite, cfg, *paper)
	case *fig == 14:
		runFig14(cfg)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...)
	os.Exit(1)
}

func selectCircuits(arg string) []circuits.MCNCSpec {
	if arg == "" {
		return circuits.MCNC20
	}
	var out []circuits.MCNCSpec
	for _, name := range strings.Split(arg, ",") {
		spec, ok := circuits.ByName(strings.TrimSpace(name))
		if !ok {
			fatalf("unknown circuit %q", name)
		}
		out = append(out, spec)
	}
	return out
}

func baselines(suite []circuits.MCNCSpec, cfg flow.Config) []*flow.Baseline {
	var out []*flow.Baseline
	for _, spec := range suite {
		t0 := time.Now()
		b, err := flow.RunBaseline(spec, cfg)
		if err != nil {
			fatalf("%s baseline: %v", spec.Name, err)
		}
		fmt.Fprintf(os.Stderr, "baseline %-10s %6d cells  %6.1fs\n",
			spec.Name, b.Netlist.NumCells(), time.Since(t0).Seconds())
		out = append(out, b)
	}
	return out
}

func runTable1(suite []circuits.MCNCSpec, cfg flow.Config) {
	bs := baselines(suite, cfg)
	fmt.Printf("Table I — timing-driven VPR baseline (scale %.2f, synthetic stand-ins)\n\n", cfg.Scale)
	fmt.Print(flow.FormatTableI(bs))
}

func runAlgos(suite []circuits.MCNCSpec, cfg flow.Config, algos []flow.Algorithm) map[flow.Algorithm][]*flow.Result {
	bs := baselines(suite, cfg)
	byAlgo := map[flow.Algorithm][]*flow.Result{}
	for _, b := range bs {
		for _, a := range algos {
			t0 := time.Now()
			r, err := flow.RunAlgorithm(b, a, cfg)
			if err != nil {
				fatalf("%s/%s: %v", b.Spec.Name, a, err)
			}
			fmt.Fprintf(os.Stderr, "%-10s %-17s W-inf %.3f  %6.1fs\n",
				b.Spec.Name, a.String(), r.Norm[0], time.Since(t0).Seconds())
			byAlgo[a] = append(byAlgo[a], r)
		}
	}
	return byAlgo
}

func runTable2(suite []circuits.MCNCSpec, cfg flow.Config, paper bool) {
	algos := []flow.Algorithm{flow.LocalRep, flow.RTEmbed, flow.Lex3}
	byAlgo := runAlgos(suite, cfg, algos)
	fmt.Printf("Table II — normalized to VPR (scale %.2f)\n\n", cfg.Scale)
	fmt.Print(flow.FormatTableII(byAlgo, algos))
	if paper {
		printPaperTableII()
	}
}

func runTable3(suite []circuits.MCNCSpec, cfg flow.Config, paper bool) {
	byAlgo := runAlgos(suite, cfg, flow.EngineAlgorithms)
	fmt.Printf("Table III — average improvements (scale %.2f)\n\n", cfg.Scale)
	fmt.Print(flow.FormatTableIII(byAlgo, flow.EngineAlgorithms))
	if paper {
		fmt.Println("\nPaper reference (Table III):")
		for _, r := range circuits.PaperTableIII {
			fmt.Printf("%-14s all %v  small %v  large %v\n", r.Algorithm, r.All, r.Small, r.LargeAv)
		}
	}
}

func runFig14(cfg flow.Config) {
	spec, _ := circuits.ByName("ex1010")
	b, err := flow.RunBaseline(spec, cfg)
	if err != nil {
		fatalf("ex1010 baseline: %v", err)
	}
	r, err := flow.RunAlgorithm(b, flow.RTEmbed, cfg)
	if err != nil {
		fatalf("ex1010 RT-Embedding: %v", err)
	}
	fmt.Printf("Fig. 14 — replication statistics for ex1010 (scale %.2f)\n", cfg.Scale)
	fmt.Printf("(paper: 106 iterations, 38 replicated, 12 unified, 26 net)\n\n")
	fmt.Print(flow.FormatFig14(r.EngineStats))
}

func printPaperTableII() {
	fmt.Println("\nPaper reference averages (Table II bottom rows):")
	avg := func(pick func(circuits.PaperTableIIRow) [4]float64) [4]float64 {
		var s [4]float64
		for _, r := range circuits.PaperTableII {
			v := pick(r)
			for k := 0; k < 4; k++ {
				s[k] += v[k]
			}
		}
		for k := 0; k < 4; k++ {
			s[k] /= float64(len(circuits.PaperTableII))
		}
		return s
	}
	lr := avg(func(r circuits.PaperTableIIRow) [4]float64 { return r.LocalRep })
	rt := avg(func(r circuits.PaperTableIIRow) [4]float64 { return r.RTEmbed })
	l3 := avg(func(r circuits.PaperTableIIRow) [4]float64 { return r.Lex3 })
	fmt.Printf("Local replication: %.3f %.3f %.3f %.3f\n", lr[0], lr[1], lr[2], lr[3])
	fmt.Printf("RT-Embedding:      %.3f %.3f %.3f %.3f\n", rt[0], rt[1], rt[2], rt[3])
	fmt.Printf("Lex-3:             %.3f %.3f %.3f %.3f\n", l3[0], l3[1], l3[2], l3[3])
}
