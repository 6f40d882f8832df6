package route_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuits"
	"repro/internal/oracle"
	"repro/internal/place"
	"repro/internal/route"
)

// Routed golden regression suite: fixed Table I circuits, placed at a
// small scale, through the W∞, W_min and W_ls routing regimes, with the
// routed fingerprint committed under testdata/. The router is
// deterministic, so every run must reproduce the committed periods bit
// for bit and the committed usage/length digests exactly, and both
// results must pass the oracle's router-result checks. Regenerate
// after an intentional behavior change with:
//
//	go test ./internal/route/ -run TestRoutedGolden -update
var update = flag.Bool("update", false, "rewrite golden files")

const goldenPath = "testdata/routed.json"

// routedGolden is the committed fingerprint of one circuit's routing.
type routedGolden struct {
	Cells int `json:"cells"`
	Nets  int `json:"nets"`
	// Grid is the FPGA side N.
	Grid int `json:"grid"`
	// Wmin is the binary-searched minimum channel width; WLs is the
	// low-stress width 1.2 × Wmin (rounded up).
	Wmin int          `json:"wmin"`
	WLs  int          `json:"wls"`
	Inf  routedResult `json:"inf"`
	LS   routedResult `json:"ls"`
}

// routedResult fingerprints one route.Result.
type routedResult struct {
	// CritBits is math.Float64bits of CritPath, in hex.
	CritBits   string `json:"crit_bits"`
	WireLength int    `json:"wire_length"`
	Iterations int    `json:"iterations"`
	Feasible   bool   `json:"feasible"`
	// TileUsageSHA / ConnLenSHA are SHA-256 digests over the sorted
	// "x y count" and "net cell input length" lines.
	TileUsageSHA string `json:"tile_usage_sha256"`
	ConnLenSHA   string `json:"conn_len_sha256"`
}

// goldenRouteCases are the Table I/II bench-suite circuits at the
// routed benchmark's scale, one fixed placement seed each.
var goldenRouteCases = []struct {
	name string
	seed int64
}{
	{"ex5p", 11},
	{"tseng", 12},
	{"dsip", 13},
	{"pdc", 14},
}

func fingerprint(res *route.Result) routedResult {
	var use []string
	for l, n := range res.TileUsage {
		use = append(use, fmt.Sprintf("%d %d %d\n", l.X, l.Y, n))
	}
	var conn []string
	for c, n := range res.ConnLen {
		conn = append(conn, fmt.Sprintf("%d %d %d %d\n", c.Net, c.Sink.Cell, c.Sink.Input, n))
	}
	digest := func(lines []string) string {
		sort.Strings(lines)
		return fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(lines, ""))))
	}
	return routedResult{
		CritBits:     fmt.Sprintf("%#016x", math.Float64bits(res.CritPath)),
		WireLength:   res.WireLength,
		Iterations:   res.Iterations,
		Feasible:     res.Feasible,
		TileUsageSHA: digest(use),
		ConnLenSHA:   digest(conn),
	}
}

func TestRoutedGolden(t *testing.T) {
	got := map[string]routedGolden{}
	for _, gc := range goldenRouteCases {
		spec, ok := circuits.ByName(gc.name)
		if !ok {
			t.Fatalf("unknown circuit %s", gc.name)
		}
		nl, err := circuits.Generate(spec.Spec(0.015))
		if err != nil {
			t.Fatal(err)
		}
		f := arch.MinSquare(nl.NumLUTs(), nl.NumIOs())
		po := place.Defaults()
		po.Effort = 1
		po.Seed = gc.seed
		pl, err := place.Place(nl, f, po)
		if err != nil {
			t.Fatal(err)
		}
		dm := po.Delay
		opt := route.Defaults()

		inf, err := route.Infinite(nl, pl, f, dm, opt)
		if err != nil {
			t.Fatal(err)
		}
		wmin, err := route.MinChannelWidth(nl, pl, f, dm, opt)
		if err != nil {
			t.Fatal(err)
		}
		// LowStress's width, routed directly: calling LowStress would
		// repeat the W_min search.
		wls := wmin + (wmin+4)/5
		lsOpt := opt
		lsOpt.ChannelWidth = wls
		ls, err := route.Route(nl, pl, f, dm, lsOpt)
		if err != nil {
			t.Fatal(err)
		}
		if err := oracle.CheckRouted(nl, pl, dm, 0, inf); err != nil {
			t.Errorf("%s W∞: %v", gc.name, err)
		}
		if err := oracle.CheckRouted(nl, pl, dm, wls, ls); err != nil {
			t.Errorf("%s W_ls: %v", gc.name, err)
		}
		got[gc.name] = routedGolden{
			Cells: nl.NumCells(), Nets: nl.NumNets(), Grid: f.N,
			Wmin: wmin, WLs: wls,
			Inf: fingerprint(inf),
			LS:  fingerprint(ls),
		}
	}
	gotJSON, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	gotJSON = append(gotJSON, '\n')
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, gotJSON, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(gotJSON, want) {
		t.Errorf("routed fingerprint diverges from %s:\n--- want\n%s--- got\n%s", goldenPath, want, gotJSON)
	}
}
