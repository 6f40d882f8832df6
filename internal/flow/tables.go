package flow

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
)

// FormatTableI renders baseline measurements in the layout of the
// paper's Table I.
func FormatTableI(baselines []*Baseline) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %9s %9s %9s %6s %5s %6s %8s %8s\n",
		"Circuit", "W-inf", "W-ls", "wire", "LUTs", "I/Os", "blk", "FPGA", "density")
	for _, bl := range baselines {
		m := bl.Metrics
		fmt.Fprintf(&b, "%-10s %9.2f %9s %9.0f %6d %5d %6d %8s %8.3f\n",
			bl.Spec.Name, m.WInf, fmtMaybe(m.WLs), m.Wire,
			bl.Netlist.NumLUTs(), bl.Netlist.NumIOs(), m.Blocks,
			bl.FPGA.String(), bl.FPGA.Density(bl.Netlist.NumLUTs()))
	}
	return b.String()
}

func fmtMaybe(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.3f", v)
}

// FormatTableII renders per-circuit normalized comparisons for a set
// of algorithms (columns W∞, W_ls, wire, blk per algorithm), plus the
// all/small/large average rows, mirroring the paper's Table II.
func FormatTableII(byAlgo map[Algorithm][]*Result, algos []Algorithm) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s", "Circuit")
	for _, a := range algos {
		fmt.Fprintf(&b, " | %-31s", a.String())
	}
	fmt.Fprintln(&b)
	fmt.Fprintf(&b, "%-10s", "")
	for range algos {
		fmt.Fprintf(&b, " | %7s %7s %7s %7s", "W-inf", "W-ls", "wire", "blk")
	}
	fmt.Fprintln(&b)
	if len(byAlgo[algos[0]]) == 0 {
		return b.String()
	}
	for i := range byAlgo[algos[0]] {
		fmt.Fprintf(&b, "%-10s", byAlgo[algos[0]][i].Name)
		for _, a := range algos {
			r := byAlgo[a][i]
			fmt.Fprintf(&b, " | %7.3f %7s %7.3f %7.3f",
				r.Norm[0], fmtMaybe(r.Norm[1]), r.Norm[2], r.Norm[3])
		}
		fmt.Fprintln(&b)
	}
	for _, row := range []struct {
		label string
		pick  func(all, small, large [4]float64) [4]float64
	}{
		{"average", func(a, s, l [4]float64) [4]float64 { return a }},
		{"small avg", func(a, s, l [4]float64) [4]float64 { return s }},
		{"large avg", func(a, s, l [4]float64) [4]float64 { return l }},
	} {
		first := row.pick(Averages(byAlgo[algos[0]]))
		//replint:ignore floatcmp -- the average of an empty size class is exactly zero; zero is the no-data sentinel
		if first[0] == 0 {
			continue // no circuits in this size class
		}
		fmt.Fprintf(&b, "%-10s", row.label)
		for _, a := range algos {
			v := row.pick(Averages(byAlgo[a]))
			fmt.Fprintf(&b, " | %7.3f %7s %7.3f %7.3f",
				v[0], fmtMaybe(v[1]), v[2], v[3])
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// FormatTableIII renders the averages-only comparison of all engine
// variants, mirroring the paper's Table III.
func FormatTableIII(byAlgo map[Algorithm][]*Result, algos []Algorithm) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s | %-31s | %-31s | %-31s\n",
		"Algorithm", "average (norm. to VPR)", "small ckts", "large ckts")
	fmt.Fprintf(&b, "%-14s", "")
	for i := 0; i < 3; i++ {
		fmt.Fprintf(&b, " | %7s %7s %7s %7s", "W-inf", "W-ls", "wire", "blk")
	}
	fmt.Fprintln(&b)
	for _, a := range algos {
		all, small, large := Averages(byAlgo[a])
		fmt.Fprintf(&b, "%-14s", a.String())
		for _, v := range [][4]float64{all, small, large} {
			fmt.Fprintf(&b, " | %7.3f %7s %7.3f %7.3f",
				v[0], fmtMaybe(v[1]), v[2], v[3])
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// FormatFig14 renders the per-iteration replication statistics the
// paper plots in Fig. 14 for circuit ex1010: cumulative replicated and
// unified cell counts per iteration.
func FormatFig14(st *core.Stats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6s %12s %12s %12s %10s\n",
		"iter", "replicated", "unified", "net-repl", "period")
	for _, it := range st.PerIter {
		fmt.Fprintf(&b, "%6d %12d %12d %12d %10.2f\n",
			it.Iter, it.Replicated, it.Unified, it.Replicated-it.Unified, it.Period)
	}
	fmt.Fprintf(&b, "total iterations %d, replicated %d, unified %d, net %d\n",
		st.Iterations, st.Replicated, st.Unified, st.Replicated-st.Unified)
	return b.String()
}
