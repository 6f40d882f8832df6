package route

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/timing"
)

func dm() arch.DelayModel { return arch.DelayModel{SegDelay: 1, LUTDelay: 2, IODelay: 0.5} }

type mapLoc map[netlist.CellID]arch.Loc

func (m mapLoc) Loc(id netlist.CellID) arch.Loc { return m[id] }

// straightChain: i -> l1 -> o on a line; trivially routable.
func straightChain(t *testing.T) (*netlist.Netlist, mapLoc, *arch.FPGA) {
	t.Helper()
	n := netlist.New("chain")
	i := n.AddCell("i", netlist.IPad, 0)
	l1 := n.AddCell("l1", netlist.LUT, 1)
	n.ConnectByName(l1.ID, 0, "i")
	o := n.AddCell("o", netlist.OPad, 1)
	n.ConnectByName(o.ID, 0, "l1")
	f := arch.New(6)
	loc := mapLoc{i.ID: {X: 0, Y: 3}, l1.ID: {X: 3, Y: 3}, o.ID: {X: 7, Y: 3}}
	return n, loc, f
}

func TestRouteStraightChain(t *testing.T) {
	n, loc, f := straightChain(t)
	res, err := Infinite(n, loc, f, dm(), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("infinite-resource routing must be feasible")
	}
	// Two nets: i->l1 (3 tiles of wire) and l1->o (4).
	if res.WireLength != 7 {
		t.Errorf("wire length = %d, want 7", res.WireLength)
	}
	// Post-route critical path equals the placement estimate on
	// detour-free routes: 3 + 2 + 4 + 0.5.
	if res.CritPath != 9.5 {
		t.Errorf("post-route period = %v, want 9.5", res.CritPath)
	}
	// Per-connection lengths.
	l1, _ := n.CellByName("l1")
	iID, _ := n.CellByName("i")
	c := Conn{n.Cell(iID).Out, netlist.Pin{Cell: l1, Input: 0}}
	if res.ConnLen[c] != 3 {
		t.Errorf("conn length i->l1 = %d, want 3", res.ConnLen[c])
	}
}

func TestRouteFanout(t *testing.T) {
	// One driver, two sinks sharing a trunk: Steiner sharing should
	// keep wirelength below the sum of point-to-point distances.
	n := netlist.New("fan")
	i := n.AddCell("i", netlist.IPad, 0)
	a := n.AddCell("a", netlist.LUT, 1)
	n.ConnectByName(a.ID, 0, "i")
	b := n.AddCell("b", netlist.LUT, 1)
	n.ConnectByName(b.ID, 0, "i")
	oa := n.AddCell("oa", netlist.OPad, 1)
	n.ConnectByName(oa.ID, 0, "a")
	ob := n.AddCell("ob", netlist.OPad, 1)
	n.ConnectByName(ob.ID, 0, "b")
	f := arch.New(8)
	loc := mapLoc{
		i.ID: {X: 0, Y: 4},
		a.ID: {X: 6, Y: 3}, b.ID: {X: 6, Y: 5},
		oa.ID: {X: 9, Y: 3}, ob.ID: {X: 9, Y: 5},
	}
	res, err := Infinite(n, loc, f, dm(), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	iNet := n.Cell(i.ID).Out
	// Point-to-point: 7 + 7 = 14; a shared trunk does better.
	treeWire := 0
	for _, c := range []Conn{
		{iNet, netlist.Pin{Cell: a.ID, Input: 0}},
		{iNet, netlist.Pin{Cell: b.ID, Input: 0}},
	} {
		if res.ConnLen[c] < 7 {
			t.Errorf("connection %v shorter than Manhattan distance: %d", c, res.ConnLen[c])
		}
		treeWire = res.ConnLen[c]
	}
	_ = treeWire
	if res.WireLength >= 14+6 {
		t.Errorf("total wire %d suggests no trunk sharing", res.WireLength)
	}
}

func TestCongestionForcesDetour(t *testing.T) {
	// Two parallel nets cross the same corridor; with width 1 one must
	// detour, with width 2 both go straight.
	n := netlist.New("cong")
	i1 := n.AddCell("i1", netlist.IPad, 0)
	i2 := n.AddCell("i2", netlist.IPad, 0)
	l1 := n.AddCell("l1", netlist.LUT, 1)
	n.ConnectByName(l1.ID, 0, "i1")
	l2 := n.AddCell("l2", netlist.LUT, 1)
	n.ConnectByName(l2.ID, 0, "i2")
	o1 := n.AddCell("o1", netlist.OPad, 1)
	n.ConnectByName(o1.ID, 0, "l1")
	o2 := n.AddCell("o2", netlist.OPad, 1)
	n.ConnectByName(o2.ID, 0, "l2")
	f := arch.New(6)
	// Both nets want row 3: i1/i2 on the west ring (same column),
	// LUTs stacked at x=3 rows 3/4, pads crossing.
	loc := mapLoc{
		i1.ID: {X: 0, Y: 3}, i2.ID: {X: 0, Y: 4},
		l1.ID: {X: 3, Y: 4}, l2.ID: {X: 3, Y: 3},
		o1.ID: {X: 7, Y: 4}, o2.ID: {X: 7, Y: 3},
	}
	opt := Defaults()
	opt.ChannelWidth = 2
	res2, err := Route(n, loc, f, dm(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Feasible {
		t.Fatal("width 2 should be feasible")
	}
	opt.ChannelWidth = 1
	res1, err := Route(n, loc, f, dm(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Feasible && res1.WireLength < res2.WireLength {
		t.Errorf("width-1 routing used less wire (%d) than width-2 (%d)",
			res1.WireLength, res2.WireLength)
	}
}

// placedRandom builds and places a random circuit for end-to-end
// router tests.
func placedRandom(t *testing.T, seed int64, luts int) (*netlist.Netlist, timing.Locator, *arch.FPGA) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := netlist.New("r")
	var signals []string
	for i := 0; i < 6; i++ {
		name := "i" + string(rune('0'+i))
		n.AddCell(name, netlist.IPad, 0)
		signals = append(signals, name)
	}
	for i := 0; i < luts; i++ {
		name := "l" + itoa(i)
		k := 1 + rng.Intn(3)
		c := n.AddCell(name, netlist.LUT, k)
		for p := 0; p < k; p++ {
			c2 := signals[len(signals)-1-rng.Intn(minInt(len(signals), 10))]
			n.ConnectByName(c.ID, p, c2)
		}
		signals = append(signals, name)
	}
	for i := 0; i < 6; i++ {
		c := n.AddCell("o"+string(rune('0'+i)), netlist.OPad, 1)
		n.ConnectByName(c.ID, 0, signals[len(signals)-1-rng.Intn(luts)])
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	f := arch.MinSquare(n.NumLUTs(), n.NumIOs())
	opts := place.Defaults()
	opts.Seed = seed
	opts.Effort = 1
	pl, err := place.Place(n, f, opts)
	if err != nil {
		t.Fatal(err)
	}
	return n, pl, f
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestMinChannelWidthAndLowStress(t *testing.T) {
	n, pl, f := placedRandom(t, 21, 60)
	wmin, err := MinChannelWidth(n, pl, f, dm(), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if wmin < 1 {
		t.Fatalf("wmin = %d", wmin)
	}
	// Feasible at wmin, infeasible at wmin-1.
	opt := Defaults()
	opt.ChannelWidth = wmin
	res, err := Route(n, pl, f, dm(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Error("routing at wmin must be feasible")
	}
	if wmin > 1 {
		opt.ChannelWidth = wmin - 1
		res, err = Route(n, pl, f, dm(), opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Feasible {
			t.Error("routing below wmin should be infeasible")
		}
	}
	// Low-stress: W∞ period <= W_ls period (more freedom can only help),
	// and both feasible.
	ls, w, err := LowStress(n, pl, f, dm(), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if w < wmin {
		t.Errorf("low-stress width %d below wmin %d", w, wmin)
	}
	if !ls.Feasible {
		t.Error("low-stress routing must be feasible")
	}
	inf, err := Infinite(n, pl, f, dm(), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if inf.CritPath > ls.CritPath+1e-9 {
		t.Errorf("W∞ period %v worse than W_ls %v", inf.CritPath, ls.CritPath)
	}
	// Routed lengths are never shorter than Manhattan distances, so
	// the routed period is at least the placement-level period.
	a, err := timing.Analyze(n, pl, dm())
	if err != nil {
		t.Fatal(err)
	}
	if inf.CritPath < a.Period-1e-9 {
		t.Errorf("post-route period %v beats placement estimate %v", inf.CritPath, a.Period)
	}
}

func TestRouteDeterministic(t *testing.T) {
	n, pl, f := placedRandom(t, 33, 40)
	r1, err := Infinite(n, pl, f, dm(), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Infinite(n, pl, f, dm(), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if r1.WireLength != r2.WireLength || r1.CritPath != r2.CritPath {
		t.Error("router is not deterministic")
	}
}

func TestTileUsage(t *testing.T) {
	n, loc, f := straightChain(t)
	res, err := Infinite(n, loc, f, dm(), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TileUsage) == 0 {
		t.Fatal("TileUsage empty")
	}
	// The chain is routed along row 3: every tile on it is used.
	for x := int16(0); x <= 7; x++ {
		if res.TileUsage[arch.Loc{X: x, Y: 3}] == 0 {
			t.Errorf("tile (%d,3) unused on a straight-line route", x)
		}
	}
	// Total usage is consistent with wirelength: a tree with k edges
	// touches k+1 tiles.
	total := 0
	for _, u := range res.TileUsage {
		total += u
	}
	if total != res.WireLength+n.NumNets() {
		t.Errorf("usage total %d, want wire %d + nets %d", total, res.WireLength, n.NumNets())
	}
}

func TestMinChannelWidthReportsWidestTried(t *testing.T) {
	// One more net than the widest probe starts and ends on a single
	// tile, so that tile is overused at every width the search tries.
	n := netlist.New("jam")
	loc := mapLoc{}
	at := arch.Loc{X: 2, Y: 2}
	for i := 0; i <= maxProbeWidth; i++ {
		in := n.AddCell("i"+itoa(i), netlist.IPad, 0)
		inID, net := in.ID, in.Out
		out := n.AddCell("o"+itoa(i), netlist.OPad, 1)
		n.Connect(out.ID, 0, net)
		loc[inID], loc[out.ID] = at, at
	}
	opt := Defaults()
	opt.MaxIters = 1
	_, err := MinChannelWidth(n, loc, arch.New(3), dm(), opt)
	if err == nil {
		t.Fatal("MinChannelWidth succeeded on an unroutable design")
	}
	if want := "no feasible width up to 4096"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q, want it to contain %q", err, want)
	}
}

func TestConnLenDuplicatePin(t *testing.T) {
	// A net that lists a sink pin twice routes it once and reports it
	// under one key, with the same length as the single listing.
	n, loc, f := straightChain(t)
	want, err := Infinite(n, loc, f, dm(), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	iID, _ := n.CellByName("i")
	net := n.Net(n.Cell(iID).Out)
	net.Sinks = append(net.Sinks, net.Sinks[0])
	got, err := Infinite(n, loc, f, dm(), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.ConnLen) != len(want.ConnLen) {
		t.Fatalf("ConnLen has %d entries, want %d", len(got.ConnLen), len(want.ConnLen))
	}
	for c, l := range want.ConnLen {
		if got.ConnLen[c] != l {
			t.Errorf("ConnLen[%v] = %d, want %d", c, got.ConnLen[c], l)
		}
	}
	if got.WireLength != want.WireLength || got.CritPath != want.CritPath {
		t.Errorf("duplicate pin changed the routing: wire %d/%d, period %v/%v",
			got.WireLength, want.WireLength, got.CritPath, want.CritPath)
	}
}
