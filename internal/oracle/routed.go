package oracle

import (
	"fmt"
	"math"

	"repro/internal/arch"
	"repro/internal/netlist"
	routing "repro/internal/route"
	"repro/internal/timing"
)

// CheckRouted verifies a router result against the netlist and
// placement it was routed from, using only what route.Result exposes.
// width is the channel width the result was routed at (0 for the W∞
// regime). It checks that
//
//   - every (net, sink pin) connection has exactly one ConnLen entry,
//     no shorter than the Manhattan distance from driver to sink, and
//     ConnLen holds no other entries;
//   - a feasible result at a finite width uses no tile more than width
//     times;
//   - the tile usage sums to WireLength plus the number of routed nets
//     (a tree with k edges occupies k+1 tiles);
//   - CritPath re-derives bit for bit from ConnLen: W_ls runs STA with
//     each connection's routed length (the shortest pin where a sink
//     reads the net twice), W∞ runs placement-level STA.
func CheckRouted(nl *netlist.Netlist, pl timing.Locator, dm arch.DelayModel, width int, res *routing.Result) error {
	conns, routed := 0, 0
	var err error
	nl.Nets(func(n *netlist.Net) {
		if err != nil || len(n.Sinks) == 0 {
			return
		}
		routed++
		seen := map[netlist.Pin]bool{}
		dl := pl.Loc(n.Driver)
		for _, p := range n.Sinks {
			if !seen[p] {
				seen[p] = true
				conns++
			}
			l, ok := res.ConnLen[routing.Conn{Net: n.ID, Sink: p}]
			if !ok {
				err = fmt.Errorf("oracle: net %s sink %v has no routed length", n.Name, p)
				return
			}
			if d := arch.Dist(dl, pl.Loc(p.Cell)); l < d {
				err = fmt.Errorf("oracle: net %s sink %v routed in %d tiles, below its Manhattan distance %d", n.Name, p, l, d)
				return
			}
		}
	})
	if err != nil {
		return err
	}
	if len(res.ConnLen) != conns {
		return fmt.Errorf("oracle: %d routed lengths for %d connections", len(res.ConnLen), conns)
	}

	total := 0
	for l, u := range res.TileUsage {
		if res.Feasible && width > 0 && u > width {
			return fmt.Errorf("oracle: feasible routing uses tile %v %d times at width %d", l, u, width)
		}
		total += u
	}
	if want := res.WireLength + routed; total != want {
		return fmt.Errorf("oracle: tile usage sums to %d, want wire length %d + %d nets = %d",
			total, res.WireLength, routed, want)
	}

	var a *timing.Analysis
	if width <= 0 {
		a, err = timing.Analyze(nl, pl, dm)
	} else {
		a, err = timing.AnalyzeCustom(nl, func(u, v netlist.CellID) float64 {
			out := nl.Cell(u).Out
			best := math.Inf(1)
			for _, p := range nl.Net(out).Sinks {
				if l := float64(res.ConnLen[routing.Conn{Net: out, Sink: p}]); p.Cell == v && l < best {
					best = l
				}
			}
			return dm.WireDelay(int(best))
		}, dm)
	}
	if err != nil {
		return fmt.Errorf("oracle: timing invariant: %w", err)
	}
	if math.Float64bits(a.Period) != math.Float64bits(res.CritPath) {
		return fmt.Errorf("oracle: routed critical path %v does not re-derive from the routed lengths (STA gives %v)",
			res.CritPath, a.Period)
	}
	return nil
}
