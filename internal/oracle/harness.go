package oracle

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/arch"
	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/placement"
	"repro/internal/timing"
)

// The differential / metamorphic harness: randomized circuits driven
// through the full place → replicate pipeline, checked four ways —
//
//   - two engine runs on fresh clones of the same placed design, with
//     the same config, must be bit-identical;
//   - the optimized design must compute the original's function
//     (Equivalent) and satisfy every structural invariant
//     (CheckPlaced, CheckNoRegression);
//   - renaming every cell must not change the outcome beyond the names
//     (CheckRenameInvariance);
//   - translating a pad-free design across the fabric must translate
//     the outcome and nothing else (CheckTranslationInvariance).
//
// The harness is plain library code so the test suite and the
// replcheck command share one implementation.

// EngineCheckOptions configures one differential engine run.
type EngineCheckOptions struct {
	Spec      circuits.Spec
	GridN     int
	PlaceOpts place.Options
	Config    core.Config
	Delay     arch.DelayModel
	Equiv     EquivOptions
}

// EngineReport summarizes one passing differential engine run.
type EngineReport struct {
	Baseline float64 // placed period before optimization
	Final    float64 // optimized period (identical across repeated runs, bitwise)
	Stats    *core.Stats
	Snapshot string // canonical optimized design
}

// CheckEngine generates the spec's circuit, places it, optimizes it
// twice on fresh clones with the same config, and verifies
// bit-identity, structural invariants, timing monotonicity, and
// functional equivalence. The repeated run catches any dependence of
// the engine on map order, pooled scratch, or other hidden state.
func CheckEngine(opt EngineCheckOptions) (*EngineReport, error) {
	nl, err := circuits.Generate(opt.Spec)
	if err != nil {
		return nil, err
	}
	orig := nl.Clone()
	pl, err := place.Place(nl, arch.New(opt.GridN), opt.PlaceOpts)
	if err != nil {
		return nil, err
	}
	if err := CheckPlaced(nl, pl); err != nil {
		return nil, fmt.Errorf("pre-optimization %s: %w", opt.Spec.Name, err)
	}
	a, err := timing.Analyze(nl, pl, opt.Delay)
	if err != nil {
		return nil, err
	}
	baseline := a.Period

	first, err := runOnce(nl.Clone(), pl.Clone(), opt.Delay, opt.Config)
	if err != nil {
		return nil, fmt.Errorf("first run %s: %w", opt.Spec.Name, err)
	}
	again, err := runOnce(nl.Clone(), pl.Clone(), opt.Delay, opt.Config)
	if err != nil {
		return nil, fmt.Errorf("repeat run %s: %w", opt.Spec.Name, err)
	}
	if err := compareRuns(opt.Spec.Name, "first", "repeat", first, again); err != nil {
		return nil, err
	}

	if err := CheckPlaced(first.nl, first.pl); err != nil {
		return nil, fmt.Errorf("optimized %s: %w", opt.Spec.Name, err)
	}
	if err := CheckNoRegression(first.nl, first.pl, opt.Delay, baseline); err != nil {
		return nil, fmt.Errorf("optimized %s: %w", opt.Spec.Name, err)
	}
	if err := Equivalent(orig, first.nl, opt.Equiv); err != nil {
		return nil, fmt.Errorf("optimized %s not equivalent: %w", opt.Spec.Name, err)
	}
	return &EngineReport{
		Baseline: baseline,
		Final:    first.period,
		Stats:    first.stats,
		Snapshot: first.snap,
	}, nil
}

// CheckIncremental is the incremental engine's differential oracle:
// the same placed design optimized with the incremental machinery
// disabled and enabled must produce bit-identical periods and designs.
// The incremental run additionally enables Config.VerifyIncremental,
// so every dirty-region STA update, patched critical-path tree, and
// memoized embedding frontier inside the run is re-derived from
// scratch and checked bitwise as it happens.
func CheckIncremental(opt EngineCheckOptions) (*core.Stats, error) {
	nl, err := circuits.Generate(opt.Spec)
	if err != nil {
		return nil, err
	}
	pl, err := place.Place(nl, arch.New(opt.GridN), opt.PlaceOpts)
	if err != nil {
		return nil, err
	}

	full := opt.Config
	full.Incremental = false
	fres, err := runOnce(nl.Clone(), pl.Clone(), opt.Delay, full)
	if err != nil {
		return nil, fmt.Errorf("full run %s: %w", opt.Spec.Name, err)
	}

	inc := opt.Config
	inc.Incremental = true
	inc.VerifyIncremental = true
	ires, err := runOnce(nl, pl, opt.Delay, inc)
	if err != nil {
		return nil, fmt.Errorf("incremental run %s: %w", opt.Spec.Name, err)
	}

	if err := compareRuns(opt.Spec.Name, "full", "incremental", fres, ires); err != nil {
		return nil, err
	}
	return ires.stats, nil
}

type runResult struct {
	nl     *netlist.Netlist
	pl     *placement.Placement
	stats  *core.Stats
	period float64
	snap   string
}

func runOnce(nl *netlist.Netlist, pl *placement.Placement, dm arch.DelayModel, cfg core.Config) (*runResult, error) {
	e := core.New(nl, pl, dm, cfg)
	st, err := e.Run()
	if err != nil {
		return nil, err
	}
	return &runResult{
		nl:     e.Netlist,
		pl:     e.Placement,
		stats:  st,
		period: st.FinalPeriod,
		snap:   Snapshot(e.Netlist, e.Placement),
	}, nil
}

// compareRuns checks that run b reproduces run a bit for bit: the same
// period bits and the same design snapshot. The labels name the two
// runs in the error.
func compareRuns(name, aLabel, bLabel string, a, b *runResult) error {
	if math.Float64bits(a.period) != math.Float64bits(b.period) {
		return fmt.Errorf("%s: %s period %v != %s period %v",
			name, bLabel, b.period, aLabel, a.period)
	}
	if a.snap != b.snap {
		return fmt.Errorf("%s: %s design diverges from %s:\n--- %s\n%s--- %s\n%s",
			name, bLabel, aLabel, aLabel, a.snap, bLabel, b.snap)
	}
	return nil
}

// Snapshot renders a placed design canonically: cells in ID order with
// kind, register flag, location, and fanin driver names. Two designs
// are bit-identical iff their snapshots and period bits are equal.
func Snapshot(nl *netlist.Netlist, pl *placement.Placement) string {
	return snapshotMapped(nl, pl, func(s string) string { return s }, 0, 0)
}

// snapshotMapped is Snapshot with a name normalization and a location
// offset subtracted — the metamorphic checks compare a transformed
// run's snapshot against the base run's after undoing the transform.
func snapshotMapped(nl *netlist.Netlist, pl *placement.Placement, name func(string) string, dx, dy int16) string {
	var b strings.Builder
	nl.Cells(func(c *netlist.Cell) {
		l := pl.Loc(c.ID)
		fmt.Fprintf(&b, "%s/%v", name(c.Name), c.Kind)
		if c.Registered {
			b.WriteString("/reg")
		}
		fmt.Fprintf(&b, "@%d,%d:", l.X-dx, l.Y-dy)
		for _, net := range c.Fanin {
			if net == netlist.None {
				b.WriteString(" -")
				continue
			}
			fmt.Fprintf(&b, " %s", name(nl.Cell(nl.Net(net).Driver).Name))
		}
		b.WriteByte('\n')
	})
	return b.String()
}

// CheckRenameInvariance verifies the engine is name-blind: rebuilding
// the circuit with every cell name prefixed (IDs, classes, pin orders
// and placement all preserved) must yield the identical optimized
// design modulo the prefix, with the identical period bits.
func CheckRenameInvariance(opt EngineCheckOptions, prefix string) error {
	nl, err := circuits.Generate(opt.Spec)
	if err != nil {
		return err
	}
	pl, err := place.Place(nl, arch.New(opt.GridN), opt.PlaceOpts)
	if err != nil {
		return err
	}
	rnl := renamePrefix(nl, prefix)
	rpl := pl.Clone() // cell IDs are preserved, so the placement carries over

	base, err := runOnce(nl, pl, opt.Delay, opt.Config)
	if err != nil {
		return fmt.Errorf("base run %s: %w", opt.Spec.Name, err)
	}
	ren, err := runOnce(rnl, rpl, opt.Delay, opt.Config)
	if err != nil {
		return fmt.Errorf("renamed run %s: %w", opt.Spec.Name, err)
	}
	if math.Float64bits(base.period) != math.Float64bits(ren.period) {
		return fmt.Errorf("%s: renaming changed the period: %v vs %v", opt.Spec.Name, base.period, ren.period)
	}
	stripped := snapshotMapped(ren.nl, ren.pl, func(s string) string {
		return strings.TrimPrefix(s, prefix)
	}, 0, 0)
	if stripped != base.snap {
		return fmt.Errorf("%s: renaming changed the optimized design:\n--- base\n%s--- renamed (prefix stripped)\n%s",
			opt.Spec.Name, base.snap, stripped)
	}
	return nil
}

// renamePrefix rebuilds nl with every cell name prefixed, preserving
// cell IDs, net IDs, pin order and equivalence classes (the rebuild
// replays construction in ID order, which reassigns the same IDs).
func renamePrefix(nl *netlist.Netlist, prefix string) *netlist.Netlist {
	out := netlist.New(nl.Name)
	nl.Cells(func(c *netlist.Cell) {
		nc := out.AddCell(prefix+c.Name, c.Kind, len(c.Fanin))
		nc.Registered = c.Registered
	})
	nl.Cells(func(c *netlist.Cell) {
		for pin, net := range c.Fanin {
			if net == netlist.None {
				continue
			}
			out.ConnectByName(c.ID, pin, prefix+nl.Cell(nl.Net(net).Driver).Name)
		}
	})
	return out
}

// CheckTranslationInvariance verifies the engine sees only relative
// geometry: hand-placing a pad-free register-bounded circuit at the
// fabric center and again translated by (dx, dy) must yield optimized
// designs that are exact translates, with identical period bits.
// Pad-free circuits are used because I/O pads are pinned to the ring
// and cannot translate; FF relocation should be disabled by the caller
// for windows near nothing (it is translation-covariant too, but keeps
// failures easier to read when this check trips).
func CheckTranslationInvariance(seed int64, gridN int, cfg core.Config, dm arch.DelayModel, dx, dy int16) error {
	rng := rand.New(rand.NewSource(seed))
	nl := registerBounded(rng, fmt.Sprintf("ring%d", seed))
	rnl := nl.Clone()

	f := arch.New(gridN)
	pl := placement.New(f, nl)
	blockPlace(nl, pl, int16(gridN/2), int16(gridN/2))
	tpl := placement.New(f, rnl)
	blockPlace(rnl, tpl, int16(gridN/2)+dx, int16(gridN/2)+dy)
	if err := CheckPlaced(nl, pl); err != nil {
		return fmt.Errorf("seed %d: %w", seed, err)
	}

	base, err := runOnce(nl, pl, dm, cfg)
	if err != nil {
		return fmt.Errorf("base run seed %d: %w", seed, err)
	}
	moved, err := runOnce(rnl, tpl, dm, cfg)
	if err != nil {
		return fmt.Errorf("translated run seed %d: %w", seed, err)
	}
	if math.Float64bits(base.period) != math.Float64bits(moved.period) {
		return fmt.Errorf("seed %d: translation (%d,%d) changed the period: %v vs %v",
			seed, dx, dy, base.period, moved.period)
	}
	shifted := snapshotMapped(moved.nl, moved.pl, func(s string) string { return s }, dx, dy)
	if shifted != base.snap {
		return fmt.Errorf("seed %d: translation (%d,%d) changed the optimized design:\n--- base\n%s--- translated (shifted back)\n%s",
			seed, dx, dy, base.snap, shifted)
	}
	return nil
}

// registerBounded builds a random pad-free circuit: a layer of source
// registers, combinational LUTs, a layer of sink registers, and the
// sink outputs wired back into the source registers' inputs (legal —
// registers break the timing cycle).
func registerBounded(rng *rand.Rand, name string) *netlist.Netlist {
	n := netlist.New(name)
	nSrc := 3 + rng.Intn(2)
	nMid := 5 + rng.Intn(5)
	nDst := 2 + rng.Intn(2)
	var srcs, pool []string
	for i := 0; i < nSrc; i++ {
		nm := fmt.Sprintf("r%d", i)
		n.AddCell(nm, netlist.LUT, 1).Registered = true
		srcs = append(srcs, nm)
		pool = append(pool, nm)
	}
	for i := 0; i < nMid; i++ {
		nm := fmt.Sprintf("m%d", i)
		k := 2 + rng.Intn(2)
		c := n.AddCell(nm, netlist.LUT, k)
		seen := map[string]bool{}
		for p := 0; p < k; p++ {
			sig := pool[rng.Intn(len(pool))]
			for seen[sig] && len(seen) < len(pool) {
				sig = pool[rng.Intn(len(pool))]
			}
			seen[sig] = true
			n.ConnectByName(c.ID, p, sig)
		}
		pool = append(pool, nm)
	}
	var dsts []string
	for i := 0; i < nDst; i++ {
		nm := fmt.Sprintf("s%d", i)
		c := n.AddCell(nm, netlist.LUT, 2)
		c.Registered = true
		// Feed from the latest combinational signals to get depth.
		n.ConnectByName(c.ID, 0, pool[len(pool)-1-i%2])
		n.ConnectByName(c.ID, 1, pool[rng.Intn(len(pool))])
		dsts = append(dsts, nm)
	}
	for i, s := range srcs {
		id, _ := n.CellByName(s)
		n.ConnectByName(id, 0, dsts[i%len(dsts)])
	}
	return n
}

// blockPlace hand-places every cell in a compact square block whose
// top-left corner is (x0, y0), one cell per slot, in ID order.
func blockPlace(nl *netlist.Netlist, pl *placement.Placement, x0, y0 int16) {
	side := 1
	for side*side < nl.NumCells() {
		side++
	}
	i := 0
	nl.Cells(func(c *netlist.Cell) {
		pl.Place(c.ID, arch.Loc{X: x0 + int16(i%side), Y: y0 + int16(i/side)})
		i++
	})
}
