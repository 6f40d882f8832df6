// Package route is a negotiated-congestion (PathFinder-style) detailed
// router over a tile grid — the stand-in for VPR's router used to
// assess results post-placement, exactly as the paper's flow does
// ("we then pass it to the VPR detailed router to accurately assess
// the results"). It supports the two evaluation regimes of Table I:
//
//   - infinite-resource routing (W∞): unbounded channel capacity, the
//     placement-evaluation metric of Marquardt et al.;
//   - low-stress routing (W_ls): capacity fixed at 1.2 × Wmin, where
//     Wmin is found by binary search — "how an FPGA will be routed in
//     practice".
//
// The routing fabric is modeled as one routing node per grid tile with
// a per-tile track capacity; a net is a Steiner tree over tiles grown
// by repeated Dijkstra expansions. Congestion is negotiated with
// PathFinder's present-sharing and history costs, rip-up and reroute.
package route

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/arch"
	"repro/internal/netlist"
	"repro/internal/timing"
)

// Options tunes a routing run.
type Options struct {
	// ChannelWidth is the per-tile track capacity; 0 means infinite
	// resources (the W∞ regime).
	ChannelWidth int
	// MaxIters bounds the rip-up/reroute iterations.
	MaxIters int
	// PresFacInit/PresFacMult grow the present-congestion penalty each
	// iteration; HistFac accumulates history cost.
	PresFacInit float64
	PresFacMult float64
	HistFac     float64
	// BBoxMargin pads each net's routing region (VPR routes within the
	// net bounding box plus a margin).
	BBoxMargin int
}

// Defaults returns the router defaults.
func Defaults() Options {
	return Options{
		MaxIters:    30,
		PresFacInit: 0.5,
		PresFacMult: 1.8,
		HistFac:     1.0,
		BBoxMargin:  3,
	}
}

// Result summarizes one routing run.
type Result struct {
	// Feasible reports whether the final routing has no overused tile.
	Feasible bool
	// Iterations actually used.
	Iterations int
	// WireLength is the total tree wire length over all nets, in tile
	// steps.
	WireLength int
	// CritPath is the post-route clock period under the linear delay
	// model with routed (not Manhattan) wire lengths.
	CritPath float64
	// ConnLen maps each connection to its routed length in tiles.
	ConnLen map[Conn]int
	// TileUsage maps each tile to the number of nets routed through
	// it — the "actual channel occupancy" the paper's Section VIII
	// proposes feeding back into the embedder's wire costs.
	TileUsage map[arch.Loc]int
}

// Conn identifies a routed connection (net driver to one sink pin).
type Conn struct {
	Net  netlist.NetID
	Sink netlist.Pin
}

// router carries one run's state.
type router struct {
	nl  *netlist.Netlist
	pl  timing.Locator
	f   *arch.FPGA
	dm  arch.DelayModel
	opt Options

	w, h     int // tile grid dims: (N+2) x (N+2)
	capacity int // per-tile track capacity (1<<20 when infinite)
	occ      []int16
	hist     []float64
	presFac  float64

	// nets lists every net with sinks in routing order, with the
	// placement-derived data every PathFinder iteration reuses.
	nets []netJob
	// connLen[nets[i].conn+k] is the routed length of nets[i]'s k-th
	// sorted sink in the latest iteration.
	connLen []int32

	// Dense routing tree of the net being routed: tile t is on the
	// tree iff treeMark[t] == treeEpoch, at distance treeDist[t] from
	// the driver. members lists the tree's tiles in ascending order,
	// the Dijkstra seed order.
	treeDist  []int32
	treeMark  []int32
	treeEpoch int32
	members   []int32

	// Dijkstra scratch, sized once.
	dist    []float64
	prev    []int32
	visited []int32 // epoch marks
	epoch   int32
	heap    []pqItem
	path    []int32
}

// netJob is one net's routing input, derived from the placement once
// per Route call.
type netJob struct {
	id     netlist.NetID
	span   int // farthest sink's Manhattan distance from the driver
	driver int32
	// Routing region: net bounding box plus margin.
	x0, y0, x1, y1 int
	// sinks in routing order (nearest first) and their tiles.
	sinks []netlist.Pin
	tiles []int32
	// conn is the offset of the net's sinks in router.connLen.
	conn int
	// treeSize is the node count of the net's latest tree.
	treeSize int
}

// pqItem is a Dijkstra frontier entry.
type pqItem struct {
	cost float64
	tile int32
}

// Route routes all nets of the placed netlist.
func Route(nl *netlist.Netlist, pl timing.Locator, f *arch.FPGA, dm arch.DelayModel, opt Options) (*Result, error) {
	if opt.MaxIters <= 0 {
		opt.MaxIters = Defaults().MaxIters
	}
	if opt.PresFacInit == 0 {
		opt.PresFacInit = Defaults().PresFacInit
	}
	if opt.PresFacMult == 0 {
		opt.PresFacMult = Defaults().PresFacMult
	}
	if opt.HistFac == 0 {
		opt.HistFac = Defaults().HistFac
	}
	r := &router{
		nl: nl, pl: pl, f: f, dm: dm, opt: opt,
		w: f.N + 2, h: f.N + 2,
		capacity: opt.ChannelWidth,
	}
	if r.infinite() {
		r.capacity = 1 << 20
	}
	n := r.w * r.h
	r.occ = make([]int16, n)
	r.hist = make([]float64, n)
	r.treeDist = make([]int32, n)
	r.treeMark = make([]int32, n)
	r.dist = make([]float64, n)
	r.prev = make([]int32, n)
	r.visited = make([]int32, n)
	r.prepare()

	r.presFac = opt.PresFacInit
	res := &Result{}
	for iter := 0; iter < opt.MaxIters; iter++ {
		res.Iterations = iter + 1
		// Rip up everything and reroute under current penalties (the
		// original PathFinder formulation).
		clear(r.occ)
		for i := range r.nets {
			if err := r.routeNet(&r.nets[i]); err != nil {
				return nil, err
			}
		}
		over := r.updateCongestion()
		if over == 0 {
			res.Feasible = true
			break
		}
		if r.infinite() {
			// Without capacity there is never overuse; defensive.
			res.Feasible = true
			break
		}
		r.presFac *= opt.PresFacMult
	}
	if r.infinite() {
		res.Feasible = true
	}
	res.ConnLen = r.connLenMap()
	res.TileUsage = r.tileUsage()
	res.WireLength = r.totalWire()
	cp, err := r.critPath(res.ConnLen)
	if err != nil {
		return nil, err
	}
	res.CritPath = cp
	return res, nil
}

func (r *router) infinite() bool { return r.opt.ChannelWidth <= 0 }

func (r *router) tile(l arch.Loc) int32 { return int32(int(l.Y)*r.w + int(l.X)) }

func (r *router) loc(t int32) arch.Loc {
	return arch.Loc{X: int16(int(t) % r.w), Y: int16(int(t) / r.w)}
}

// prepare builds r.nets: each net's driver tile, routing region and
// sinks sorted nearest first (ties by pin), ordered long nets first
// (their flexibility is lowest), a common PathFinder ordering; it is
// deterministic.
func (r *router) prepare() {
	total := 0
	r.nl.Nets(func(n *netlist.Net) { total += len(n.Sinks) })
	// Exact capacity: the per-net subslices below never move.
	pins := make([]netlist.Pin, 0, total)
	tiles := make([]int32, 0, total)
	r.connLen = make([]int32, total)

	type sinkKey struct {
		pin  netlist.Pin
		dist int
		tile int32
	}
	var keys []sinkKey
	m := r.opt.BBoxMargin
	r.nl.Nets(func(n *netlist.Net) {
		if len(n.Sinks) == 0 {
			return
		}
		dl := r.pl.Loc(n.Driver)
		j := netJob{id: n.ID, driver: r.tile(dl), conn: len(pins)}
		x0, x1, y0, y1 := int(dl.X), int(dl.X), int(dl.Y), int(dl.Y)
		keys = keys[:0]
		for _, p := range n.Sinks {
			sl := r.pl.Loc(p.Cell)
			d := arch.Dist(dl, sl)
			j.span = max(j.span, d)
			x0, x1 = min(x0, int(sl.X)), max(x1, int(sl.X))
			y0, y1 = min(y0, int(sl.Y)), max(y1, int(sl.Y))
			keys = append(keys, sinkKey{p, d, r.tile(sl)})
		}
		j.x0, j.y0, j.x1, j.y1 = max(0, x0-m), max(0, y0-m), min(r.w-1, x1+m), min(r.h-1, y1+m)
		slices.SortFunc(keys, func(a, b sinkKey) int {
			if a.dist != b.dist {
				return cmp.Compare(a.dist, b.dist)
			}
			if a.pin.Cell != b.pin.Cell {
				return cmp.Compare(a.pin.Cell, b.pin.Cell)
			}
			return cmp.Compare(a.pin.Input, b.pin.Input)
		})
		for _, k := range keys {
			pins = append(pins, k.pin)
			tiles = append(tiles, k.tile)
		}
		j.sinks = pins[j.conn:len(pins):len(pins)]
		j.tiles = tiles[j.conn:len(tiles):len(tiles)]
		r.nets = append(r.nets, j)
	})
	slices.SortFunc(r.nets, func(a, b netJob) int {
		if a.span != b.span {
			return cmp.Compare(b.span, a.span)
		}
		return cmp.Compare(a.id, b.id)
	})
}

// nodeCost is the PathFinder cost of using a tile: (base + history) ×
// present-sharing penalty.
func (r *router) nodeCost(t int32) float64 {
	base := 1.0 + r.hist[t]
	over := int(r.occ[t]) + 1 - r.capacity
	if over <= 0 {
		return base
	}
	return base * (1 + float64(over)*r.presFac)
}

// routeNet grows the net's Steiner tree sink by sink (nearest first).
func (r *router) routeNet(j *netJob) error {
	r.treeEpoch++
	r.treeMark[j.driver] = r.treeEpoch
	r.treeDist[j.driver] = 0
	r.members = append(r.members[:0], j.driver)
	r.occ[j.driver]++

	lens := r.connLen[j.conn : j.conn+len(j.sinks)]
	for k, target := range j.tiles {
		if r.treeMark[target] != r.treeEpoch {
			if err := r.connect(j, target); err != nil {
				return fmt.Errorf("route: net %s sink %v: %w", r.nl.Net(j.id).Name, j.sinks[k], err)
			}
		}
		lens[k] = r.treeDist[target]
	}
	j.treeSize = len(r.members)
	return nil
}

// push adds an entry to the Dijkstra frontier. It sifts up exactly as
// container/heap does (strictly cheaper than the parent moves up), so
// equal-cost entries order, and ties break, the same way.
func (r *router) push(it pqItem) {
	q := append(r.heap, it)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !(it.cost < q[parent].cost) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = it
	r.heap = q
}

// pop removes the cheapest frontier entry. Like container/heap.Pop it
// moves the last entry to the root and sifts it down, descending to
// the right child only when that is strictly cheaper than the left.
func (r *router) pop() pqItem {
	q := r.heap
	n := len(q) - 1
	top, last := q[0], q[n]
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c2 := c + 1; c2 < n && q[c2].cost < q[c].cost {
				c = c2
			}
			if !(q[c].cost < last.cost) {
				break
			}
			q[i] = q[c]
			i = c
		}
		q[i] = last
	}
	r.heap = q
	return top
}

// connect runs a multi-source Dijkstra from the current tree to the
// target tile and commits the found path to the tree.
func (r *router) connect(j *netJob, target int32) error {
	r.epoch++
	r.heap = r.heap[:0]
	// Seed in ascending tile order: the order fixes zero-cost
	// tie-breaking, and hence the chosen routes.
	for _, t := range r.members {
		r.dist[t] = 0
		r.prev[t] = -1
		r.visited[t] = r.epoch
		r.push(pqItem{0, t})
	}
	found := false
	for len(r.heap) > 0 {
		it := r.pop()
		t := it.tile
		if it.cost > r.dist[t] {
			continue
		}
		if t == target {
			found = true
			break
		}
		// Expand east, west, north, south; every popped tile lies in
		// the region, so only the step's own side can leave it.
		x, y, w := int(t)%r.w, int(t)/r.w, int32(r.w)
		if x < j.x1 {
			r.relax(it.cost, t, t+1)
		}
		if x > j.x0 {
			r.relax(it.cost, t, t-1)
		}
		if y < j.y1 {
			r.relax(it.cost, t, t+w)
		}
		if y > j.y0 {
			r.relax(it.cost, t, t-w)
		}
	}
	if !found {
		return fmt.Errorf("target unreachable in region (%d,%d)-(%d,%d)", j.x0, j.y0, j.x1, j.y1)
	}
	// Commit the path; distances from the driver accumulate along it.
	// The walk runs target .. just before the join point on the tree.
	path := r.path[:0]
	t := target
	for r.treeMark[t] != r.treeEpoch {
		path = append(path, t)
		t = r.prev[t]
	}
	base := r.treeDist[t]
	for i := len(path) - 1; i >= 0; i-- {
		t := path[i]
		base++
		r.treeMark[t] = r.treeEpoch
		r.treeDist[t] = base
		r.occ[t]++
	}
	r.path = path
	for _, t := range path {
		k, _ := slices.BinarySearch(r.members, t)
		r.members = slices.Insert(r.members, k, t)
	}
	return nil
}

// relax offers tile nt, reached from t at the given cost so far, to
// the frontier.
func (r *router) relax(cost float64, t, nt int32) {
	c := cost + r.nodeCost(nt)
	if r.visited[nt] != r.epoch || c < r.dist[nt] {
		r.visited[nt] = r.epoch
		r.dist[nt] = c
		r.prev[nt] = t
		r.push(pqItem{c, nt})
	}
}

// updateCongestion accumulates history cost and returns the number of
// overused tiles.
func (r *router) updateCongestion() int {
	over := 0
	for t := range r.occ {
		if int(r.occ[t]) > r.capacity {
			over++
			r.hist[t] += r.opt.HistFac * float64(int(r.occ[t])-r.capacity)
		}
	}
	return over
}

// tileUsage exports the per-tile net counts.
func (r *router) tileUsage() map[arch.Loc]int {
	use := make(map[arch.Loc]int)
	for t := range r.occ {
		if r.occ[t] > 0 {
			use[r.loc(int32(t))] = int(r.occ[t])
		}
	}
	return use
}

// totalWire sums tree sizes (edges = nodes - 1).
func (r *router) totalWire() int {
	total := 0
	for i := range r.nets {
		if s := r.nets[i].treeSize; s > 1 {
			total += s - 1
		}
	}
	return total
}

// connLenMap exports the latest iteration's connection lengths. A pin
// a net lists twice maps to one key, with the length both copies share.
func (r *router) connLenMap() map[Conn]int {
	out := make(map[Conn]int, len(r.connLen))
	for i := range r.nets {
		j := &r.nets[i]
		for k, p := range j.sinks {
			out[Conn{j.id, p}] = int(r.connLen[j.conn+k])
		}
	}
	return out
}

// critPath runs STA with routed wire lengths substituted for Manhattan
// distances. In the infinite-resource regime every connection can take
// a dedicated shortest route, so its delay is the Manhattan distance —
// this is exactly why Marquardt et al. call W∞ "a good placement
// evaluation metric" (wirelength still reports the shared Steiner
// trees, which is what unlimited routing would fan out from one pin).
func (r *router) critPath(connLen map[Conn]int) (float64, error) {
	if r.infinite() {
		a, err := timing.Analyze(r.nl, r.pl, r.dm)
		if err != nil {
			return 0, err
		}
		return a.Period, nil
	}
	wireOf := func(u, v netlist.CellID) float64 {
		// Locate the connection: u drives some net read by v. Routed
		// lengths are recorded per (net, sink pin); take the shortest
		// pin if v reads the net on several pins.
		uc := r.nl.Cell(u)
		best := math.Inf(1)
		if uc.Out != netlist.None {
			for _, p := range r.nl.Net(uc.Out).Sinks {
				if p.Cell != v {
					continue
				}
				if l, ok := connLen[Conn{uc.Out, p}]; ok && float64(l) < best {
					best = float64(l)
				}
			}
		}
		if math.IsInf(best, 1) {
			// Unrouted (shouldn't happen); fall back to Manhattan.
			best = float64(arch.Dist(r.pl.Loc(u), r.pl.Loc(v)))
		}
		return r.dm.WireDelay(int(best))
	}
	a, err := timing.AnalyzeCustom(r.nl, wireOf, r.dm)
	if err != nil {
		return 0, err
	}
	return a.Period, nil
}

// maxProbeWidth is the widest channel MinChannelWidth tries.
const maxProbeWidth = 4096

// MinChannelWidth binary-searches the smallest channel width that
// routes feasibly.
func MinChannelWidth(nl *netlist.Netlist, pl timing.Locator, f *arch.FPGA, dm arch.DelayModel, opt Options) (int, error) {
	lo, hi := 1, 2
	// Exponential probe for an upper bound.
	for {
		opt.ChannelWidth = hi
		res, err := Route(nl, pl, f, dm, opt)
		if err != nil {
			return 0, err
		}
		if res.Feasible {
			break
		}
		if hi >= maxProbeWidth {
			return 0, fmt.Errorf("route: no feasible width up to %d", hi)
		}
		lo = hi + 1
		hi *= 2
	}
	for lo < hi {
		mid := (lo + hi) / 2
		opt.ChannelWidth = mid
		res, err := Route(nl, pl, f, dm, opt)
		if err != nil {
			return 0, err
		}
		if res.Feasible {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}

// LowStress routes with 20% more tracks than the minimum, the paper's
// W_ls regime. It returns the result and the width used.
func LowStress(nl *netlist.Netlist, pl timing.Locator, f *arch.FPGA, dm arch.DelayModel, opt Options) (*Result, int, error) {
	wmin, err := MinChannelWidth(nl, pl, f, dm, opt)
	if err != nil {
		return nil, 0, err
	}
	w := wmin + (wmin+4)/5 // ceil(1.2 × wmin)
	opt.ChannelWidth = w
	res, err := Route(nl, pl, f, dm, opt)
	if err != nil {
		return nil, 0, err
	}
	return res, w, nil
}

// Infinite routes with unbounded resources, the W∞ regime.
func Infinite(nl *netlist.Netlist, pl timing.Locator, f *arch.FPGA, dm arch.DelayModel, opt Options) (*Result, error) {
	opt.ChannelWidth = 0
	opt.MaxIters = 1
	return Route(nl, pl, f, dm, opt)
}
