package timing_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuits"
	"repro/internal/netlist"
	"repro/internal/timing"
)

type gridLoc struct {
	locs []arch.Loc
}

func (g *gridLoc) Loc(id netlist.CellID) arch.Loc { return g.locs[id] }

// randomPlaced builds a seeded synthetic circuit with registered LUTs
// and a random (not necessarily legal — STA does not care) placement.
func randomPlaced(t *testing.T, seed int64, luts int) (*netlist.Netlist, *gridLoc) {
	t.Helper()
	spec := circuits.Spec{
		Name: "par", LUTs: luts, Inputs: 12, Outputs: 12,
		Depth: 6, RegisteredFrac: 0.25, Seed: seed,
	}
	nl, err := circuits.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	g := &gridLoc{locs: make([]arch.Loc, nl.Cap())}
	for i := range g.locs {
		g.locs[i] = arch.Loc{X: int16(rng.Intn(40)), Y: int16(rng.Intn(40))}
	}
	return nl, g
}

func analysesEqual(t *testing.T, name string, a, b *timing.Analysis) {
	t.Helper()
	if a.Period != b.Period || a.CritSink != b.CritSink {
		t.Fatalf("%s: period/critsink differ: (%v, %v) vs (%v, %v)",
			name, a.Period, a.CritSink, b.Period, b.CritSink)
	}
	cmp := func(field string, x, y []float64) {
		if len(x) != len(y) {
			t.Fatalf("%s: %s length %d vs %d", name, field, len(x), len(y))
		}
		for i := range x {
			if x[i] != y[i] && !(math.IsInf(x[i], -1) && math.IsInf(y[i], -1)) {
				t.Fatalf("%s: %s[%d] = %v vs %v", name, field, i, x[i], y[i])
			}
		}
	}
	cmp("Arr", a.Arr, b.Arr)
	cmp("SinkArr", a.SinkArr, b.SinkArr)
	cmp("Through", a.Through, b.Through)
	cmp("Down", a.Down, b.Down)
}

// placedGrid is a mutable PlacedLocator for driving the incremental
// analyzer directly, without a full placement.
type placedGrid struct {
	locs   []arch.Loc
	placed []bool
}

func (p *placedGrid) Loc(id netlist.CellID) arch.Loc { return p.locs[id] }
func (p *placedGrid) Placed(id netlist.CellID) bool {
	return int(id) < len(p.placed) && p.placed[id]
}

func (p *placedGrid) grow(n int) {
	for len(p.locs) < n {
		p.locs = append(p.locs, arch.Loc{})
		p.placed = append(p.placed, false)
	}
}

func (p *placedGrid) place(id netlist.CellID, l arch.Loc) {
	p.grow(int(id) + 1)
	p.locs[id] = l
	p.placed[id] = true
}

// newPlacedGrid places every live cell of nl at a seeded random spot.
func newPlacedGrid(nl *netlist.Netlist, rng *rand.Rand) *placedGrid {
	p := &placedGrid{}
	p.grow(nl.Cap())
	nl.Cells(func(c *netlist.Cell) {
		p.place(c.ID, arch.Loc{X: int16(rng.Intn(40)), Y: int16(rng.Intn(40))})
	})
	return p
}

// bitsEqual demands two analyses agree bit for bit over the full
// analysis's range (the incremental arrays may be longer: they keep
// capacity across netlist restores).
func bitsEqual(t *testing.T, round int, inc, full *timing.Analysis) {
	t.Helper()
	if math.Float64bits(inc.Period) != math.Float64bits(full.Period) || inc.CritSink != full.CritSink {
		t.Fatalf("round %d: period %v@%d, full %v@%d", round, inc.Period, inc.CritSink, full.Period, full.CritSink)
	}
	if math.Float64bits(inc.SecondArr) != math.Float64bits(full.SecondArr) || inc.SecondSink != full.SecondSink {
		t.Fatalf("round %d: second %v@%d, full %v@%d", round, inc.SecondArr, inc.SecondSink, full.SecondArr, full.SecondSink)
	}
	if len(inc.Order) != len(full.Order) {
		t.Fatalf("round %d: order length %d vs %d", round, len(inc.Order), len(full.Order))
	}
	for i := range full.Order {
		if inc.Order[i] != full.Order[i] {
			t.Fatalf("round %d: order[%d] = %d, full %d", round, i, inc.Order[i], full.Order[i])
		}
	}
	if len(inc.Arr) < len(full.Arr) {
		t.Fatalf("round %d: incremental arrays shorter than full: %d < %d", round, len(inc.Arr), len(full.Arr))
	}
	for i := range full.Arr {
		if math.Float64bits(inc.Arr[i]) != math.Float64bits(full.Arr[i]) {
			t.Fatalf("round %d: Arr[%d] = %v, full %v", round, i, inc.Arr[i], full.Arr[i])
		}
		if math.Float64bits(inc.SinkArr[i]) != math.Float64bits(full.SinkArr[i]) {
			t.Fatalf("round %d: SinkArr[%d] = %v, full %v", round, i, inc.SinkArr[i], full.SinkArr[i])
		}
		if math.Float64bits(inc.Down[i]) != math.Float64bits(full.Down[i]) {
			t.Fatalf("round %d: Down[%d] = %v, full %v", round, i, inc.Down[i], full.Down[i])
		}
		if math.Float64bits(inc.Through[i]) != math.Float64bits(full.Through[i]) {
			t.Fatalf("round %d: Through[%d] = %v, full %v", round, i, inc.Through[i], full.Through[i])
		}
	}
}

// liveLUTs returns the live multi-fanout LUT IDs, for mutation picks.
func liveLUTs(nl *netlist.Netlist) []netlist.CellID {
	var out []netlist.CellID
	nl.Cells(func(c *netlist.Cell) {
		if c.Kind == netlist.LUT {
			out = append(out, c.ID)
		}
	})
	return out
}

// perturb applies one random mutation mix: cell moves every round,
// plus a replication (birth + rewire) or an unification (death +
// rewire) on alternating rounds. Replicas made earlier are the
// unification victims, so deaths exercise the snapshot-driven seeding.
func perturb(nl *netlist.Netlist, pl *placedGrid, rng *rand.Rand, round int, replicas *[]netlist.CellID) {
	luts := liveLUTs(nl)
	for k := 0; k < 1+rng.Intn(3); k++ {
		id := luts[rng.Intn(len(luts))]
		pl.place(id, arch.Loc{X: int16(rng.Intn(40)), Y: int16(rng.Intn(40))})
	}
	switch {
	case round%3 == 1:
		// Replicate a multi-fanout LUT and steal one of its sinks.
		for try := 0; try < 10; try++ {
			v := luts[rng.Intn(len(luts))]
			sinks := nl.Net(nl.Cell(v).Out).Sinks
			if len(sinks) < 2 {
				continue
			}
			rep := nl.Replicate(v)
			pl.place(rep.ID, arch.Loc{X: int16(rng.Intn(40)), Y: int16(rng.Intn(40))})
			nl.MoveSink(sinks[rng.Intn(len(sinks))], rep.ID)
			*replicas = append(*replicas, rep.ID)
			return
		}
	case round%3 == 2 && len(*replicas) > 0:
		// Unify the oldest replica back into an equivalence sibling,
		// deleting it (and possibly a redundant subtree).
		dup := (*replicas)[0]
		*replicas = (*replicas)[1:]
		if !nl.Alive(dup) {
			return
		}
		for _, keep := range nl.EquivClass(dup) {
			if keep != dup {
				nl.Unify(keep, dup)
				return
			}
		}
	}
}

// TestIncrementalMatchesFull drives random move / replicate / unify
// mutations through the incremental analyzer and demands bitwise
// agreement with a from-scratch pass after every round.
func TestIncrementalMatchesFull(t *testing.T) {
	rounds := 40
	if testing.Short() {
		rounds = 12
	}
	dm := arch.DefaultDelayModel()
	for seed := int64(1); seed <= 3; seed++ {
		nl, gl := randomPlaced(t, seed, 300)
		rng := rand.New(rand.NewSource(seed * 1000))
		pl := &placedGrid{}
		pl.grow(nl.Cap())
		nl.Cells(func(c *netlist.Cell) { pl.place(c.ID, gl.locs[c.ID]) })

		inc := timing.NewIncremental(dm)
		ctx := context.Background()
		var replicas []netlist.CellID
		for round := 0; round < rounds; round++ {
			if round > 0 {
				perturb(nl, pl, rng, round, &replicas)
			}
			a, err := inc.Analyze(ctx, nl, pl)
			if err != nil {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
			full, err := timing.Analyze(nl, pl, dm)
			if err != nil {
				t.Fatalf("seed %d round %d (full): %v", seed, round, err)
			}
			bitsEqual(t, round, a, full)
		}
		if inc.Stats.Updates == 0 {
			t.Fatalf("seed %d: no incremental updates recorded: %+v", seed, inc.Stats)
		}
	}
}

// TestIncrementalNoChangeIsHit pins the steady-state fast path: a
// second Analyze over untouched state re-propagates nothing.
func TestIncrementalNoChangeIsHit(t *testing.T) {
	nl, gl := randomPlaced(t, 7, 200)
	rng := rand.New(rand.NewSource(7))
	_ = rng
	pl := &placedGrid{}
	pl.grow(nl.Cap())
	nl.Cells(func(c *netlist.Cell) { pl.place(c.ID, gl.locs[c.ID]) })
	inc := timing.NewIncremental(arch.DefaultDelayModel())
	ctx := context.Background()
	if _, err := inc.Analyze(ctx, nl, pl); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Analyze(ctx, nl, pl); err != nil {
		t.Fatal(err)
	}
	if inc.Stats.Updates != 1 || inc.Stats.CellsForward != 0 || inc.Stats.CellsBackward != 0 {
		t.Fatalf("no-op analyze re-propagated cells: %+v", inc.Stats)
	}
	if inc.LastFull() {
		t.Fatal("no-op analyze took the full path")
	}
}

// TestIncrementalOverflowFallsBack forces the dirty-frontier budget to
// zero and checks every post-change analysis falls back to the full
// pass — bit-identically — and that the analyzer keeps working after.
func TestIncrementalOverflowFallsBack(t *testing.T) {
	nl, gl := randomPlaced(t, 9, 200)
	rng := rand.New(rand.NewSource(9))
	pl := &placedGrid{}
	pl.grow(nl.Cap())
	nl.Cells(func(c *netlist.Cell) { pl.place(c.ID, gl.locs[c.ID]) })
	dm := arch.DefaultDelayModel()
	inc := timing.NewIncremental(dm)
	inc.MaxDirtyFrac = 1e-12 // budget rounds to zero cells
	ctx := context.Background()
	if _, err := inc.Analyze(ctx, nl, pl); err != nil {
		t.Fatal(err)
	}
	luts := liveLUTs(nl)
	for round := 0; round < 5; round++ {
		id := luts[rng.Intn(len(luts))]
		pl.place(id, arch.Loc{X: int16(rng.Intn(40)), Y: int16(rng.Intn(40))})
		a, err := inc.Analyze(ctx, nl, pl)
		if err != nil {
			t.Fatal(err)
		}
		if !inc.LastFull() {
			t.Fatalf("round %d: zero budget did not fall back to the full pass", round)
		}
		full, err := timing.Analyze(nl, pl, dm)
		if err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, round, a, full)
	}
	if inc.Stats.Fallbacks != 5 {
		t.Fatalf("Fallbacks = %d, want 5: %+v", inc.Stats.Fallbacks, inc.Stats)
	}
}

// TestSPTCacheMatchesBuild checks patched slowest-paths trees against
// from-scratch builds across random perturbations.
func TestSPTCacheMatchesBuild(t *testing.T) {
	// No -short reduction: the tail rounds are where the fixed-seed
	// perturbation sequence first revisits a sink without a structural
	// change, i.e. where patching (and its stats assertion below)
	// actually happens — and 25 rounds on 300 LUTs is sub-second.
	const rounds = 25
	dm := arch.DefaultDelayModel()
	nl, gl := randomPlaced(t, 21, 300)
	rng := rand.New(rand.NewSource(21))
	pl := &placedGrid{}
	pl.grow(nl.Cap())
	nl.Cells(func(c *netlist.Cell) { pl.place(c.ID, gl.locs[c.ID]) })

	inc := timing.NewIncremental(dm)
	cache := timing.NewSPTCache(inc, 0)
	ctx := context.Background()
	var replicas []netlist.CellID
	for round := 0; round < rounds; round++ {
		if round > 0 {
			perturb(nl, pl, rng, round, &replicas)
		}
		a, err := inc.Analyze(ctx, nl, pl)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		got := cache.Get(nl, pl, dm, a, a.CritSink)
		want := timing.BuildSPT(nl, pl, dm, a, a.CritSink)
		if got.Sink != want.Sink || math.Float64bits(got.SinkArr) != math.Float64bits(want.SinkArr) {
			t.Fatalf("round %d: sink/arr (%d, %v) vs (%d, %v)", round, got.Sink, got.SinkArr, want.Sink, want.SinkArr)
		}
		if len(got.Parent) != len(want.Parent) || len(got.PathThrough) != len(want.PathThrough) {
			t.Fatalf("round %d: sizes parent %d/%d pathThrough %d/%d",
				round, len(got.Parent), len(want.Parent), len(got.PathThrough), len(want.PathThrough))
		}
		for u, p := range want.Parent {
			if got.Parent[u] != p {
				t.Fatalf("round %d: parent[%d] = %d, want %d", round, u, got.Parent[u], p)
			}
		}
		for u, pt := range want.PathThrough {
			if math.Float64bits(got.PathThrough[u]) != math.Float64bits(pt) {
				t.Fatalf("round %d: pathThrough[%d] = %v, want %v", round, u, got.PathThrough[u], pt)
			}
		}
	}
	if cache.Stats.Rebuilds == 0 || cache.Stats.Rebuilds == rounds {
		t.Fatalf("cache never patched or never rebuilt: %+v", cache.Stats)
	}
}
