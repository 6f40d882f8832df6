package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/netlist"
	"repro/internal/placement"
)

// These tests pin the engine-level determinism contract that replint's
// rules guard statically: the full optimized design — every cell, its
// location, and its connectivity — must be bit-identical across
// repeated runs on freshly built copies of the same design, under the
// same config. A regression here usually
// means an unordered map iteration or an epsilon-less float compare
// crept back into a decision path.

// snapshot renders the optimized design canonically: cells in ID
// order with kind, location, and fanin driver names.
func snapshot(nl *netlist.Netlist, pl *placement.Placement) string {
	var b strings.Builder
	nl.Cells(func(c *netlist.Cell) {
		loc := pl.Loc(c.ID)
		fmt.Fprintf(&b, "%s/%v@%d,%d:", c.Name, c.Kind, loc.X, loc.Y)
		for _, net := range c.Fanin {
			if net == netlist.None {
				b.WriteString(" -")
				continue
			}
			fmt.Fprintf(&b, " %s", nl.Cell(nl.Net(net).Driver).Name)
		}
		b.WriteByte('\n')
	})
	return b.String()
}

// runEngine builds a fresh design, optimizes it with the default
// config, and returns the canonical result.
func runEngine(t *testing.T, build func(*testing.T) *design) (string, float64) {
	t.Helper()
	d := build(t)
	e := New(d.nl, d.pl, dm(), Default())
	st, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return snapshot(e.Netlist, e.Placement), st.FinalPeriod
}

func TestEngineDeterminism(t *testing.T) {
	designs := []struct {
		name  string
		build func(*testing.T) *design
	}{
		{"uchain", detouredChain},
		{"fork", forkDesign},
	}
	for _, dd := range designs {
		t.Run(dd.name, func(t *testing.T) {
			base, basePeriod := runEngine(t, dd.build)
			for run := 1; run <= 4; run++ {
				snap, period := runEngine(t, dd.build)
				if math.Float64bits(period) != math.Float64bits(basePeriod) {
					t.Fatalf("repeat %d: period %v, first run %v", run, period, basePeriod)
				}
				if snap != base {
					t.Fatalf("repeat %d: optimized design diverges from first run:\n--- first\n%s--- got\n%s",
						run, base, snap)
				}
			}
		})
	}
}
