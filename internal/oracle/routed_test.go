package oracle

import (
	"math"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuits"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/placement"
	routing "repro/internal/route"
)

// routedDesign places one small circuit for the router-result checks.
func routedDesign(t *testing.T) (*netlist.Netlist, *placement.Placement, *arch.FPGA) {
	t.Helper()
	nl, err := circuits.Generate(circuits.Spec{Name: "routed", LUTs: 30, Inputs: 5, Outputs: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	f := arch.MinSquare(nl.NumLUTs(), nl.NumIOs())
	po := place.Defaults()
	po.Effort = 1
	po.Seed = 7
	pl, err := place.Place(nl, f, po)
	if err != nil {
		t.Fatal(err)
	}
	return nl, pl, f
}

// cloneResult deep-copies a result so each corruption starts clean.
func cloneResult(r *routing.Result) *routing.Result {
	c := *r
	c.ConnLen = make(map[routing.Conn]int, len(r.ConnLen))
	for k, v := range r.ConnLen {
		c.ConnLen[k] = v
	}
	c.TileUsage = make(map[arch.Loc]int, len(r.TileUsage))
	for k, v := range r.TileUsage {
		c.TileUsage[k] = v
	}
	return &c
}

// firstTile is the lowest-(Y, X) used tile, for reproducible
// corruptions.
func firstTile(use map[arch.Loc]int) arch.Loc {
	var best arch.Loc
	found := false
	for l := range use {
		if !found || l.Y < best.Y || (l.Y == best.Y && l.X < best.X) {
			best, found = l, true
		}
	}
	return best
}

// firstConn is the lowest-(net, cell, input) connection whose sink is
// at least minDist tiles from its driver.
func firstConn(nl *netlist.Netlist, pl *placement.Placement, conn map[routing.Conn]int, minDist int) routing.Conn {
	var best routing.Conn
	found := false
	for c := range conn {
		if arch.Dist(pl.Loc(nl.Net(c.Net).Driver), pl.Loc(c.Sink.Cell)) < minDist {
			continue
		}
		less := c.Net < best.Net ||
			(c.Net == best.Net && (c.Sink.Cell < best.Sink.Cell ||
				(c.Sink.Cell == best.Sink.Cell && c.Sink.Input < best.Sink.Input)))
		if !found || less {
			best, found = c, true
		}
	}
	return best
}

func TestCheckRoutedAcceptsRouterResults(t *testing.T) {
	nl, pl, f := routedDesign(t)
	dm := harnessDelay()
	inf, err := routing.Infinite(nl, pl, f, dm, routing.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckRouted(nl, pl, dm, 0, inf); err != nil {
		t.Errorf("W∞: %v", err)
	}
	ls, w, err := routing.LowStress(nl, pl, f, dm, routing.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckRouted(nl, pl, dm, w, ls); err != nil {
		t.Errorf("W_ls (width %d): %v", w, err)
	}
	opt := routing.Defaults()
	opt.ChannelWidth = 1
	jam, err := routing.Route(nl, pl, f, dm, opt)
	if err != nil {
		t.Fatal(err)
	}
	if jam.Feasible {
		t.Fatal("width 1 unexpectedly feasible; the corruption below needs overuse")
	}
	if err := CheckRouted(nl, pl, dm, 1, jam); err != nil {
		t.Errorf("infeasible width 1: %v", err)
	}
}

// TestCheckRoutedMustFail corrupts one field of a real result per case
// and requires the checker to name the broken invariant.
func TestCheckRoutedMustFail(t *testing.T) {
	nl, pl, f := routedDesign(t)
	dm := harnessDelay()
	ls, w, err := routing.LowStress(nl, pl, f, dm, routing.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	inf, err := routing.Infinite(nl, pl, f, dm, routing.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	opt := routing.Defaults()
	opt.ChannelWidth = 1
	jam, err := routing.Route(nl, pl, f, dm, opt)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		base    *routing.Result
		width   int
		corrupt func(r *routing.Result)
		want    string
	}{
		{"missing connection", ls, w, func(r *routing.Result) {
			delete(r.ConnLen, firstConn(nl, pl, r.ConnLen, 0))
		}, "no routed length"},
		{"extra connection", ls, w, func(r *routing.Result) {
			c := firstConn(nl, pl, r.ConnLen, 0)
			c.Sink.Input = 99
			r.ConnLen[c] = 3
		}, "routed lengths for"},
		{"connection below Manhattan", ls, w, func(r *routing.Result) {
			c := firstConn(nl, pl, r.ConnLen, 1)
			r.ConnLen[c] = arch.Dist(pl.Loc(nl.Net(c.Net).Driver), pl.Loc(c.Sink.Cell)) - 1
		}, "below its Manhattan distance"},
		{"tile over width", ls, w, func(r *routing.Result) {
			r.TileUsage[firstTile(r.TileUsage)] = w + 1
		}, "times at width"},
		{"infeasible marked feasible", jam, 1, func(r *routing.Result) {
			r.Feasible = true
		}, "times at width"},
		{"wire length", ls, w, func(r *routing.Result) {
			r.WireLength++
		}, "tile usage sums to"},
		{"W_ls critical path", ls, w, func(r *routing.Result) {
			r.CritPath = math.Nextafter(r.CritPath, math.Inf(1))
		}, "does not re-derive"},
		{"W∞ critical path", inf, 0, func(r *routing.Result) {
			r.CritPath = math.Nextafter(r.CritPath, 0)
		}, "does not re-derive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := cloneResult(tc.base)
			tc.corrupt(r)
			err := CheckRouted(nl, pl, dm, tc.width, r)
			if err == nil {
				t.Fatal("corrupted result passed the checker")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q, want it to mention %q", err, tc.want)
			}
		})
	}
}
