package circuits_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/place"
)

// Engine-level golden regression suite: fixed specs through the full
// place → replicate pipeline, with the optimized netlist text and the
// run's numeric fingerprint committed under testdata/. Periods are
// compared as Float64bits — the pipeline is deterministic and every
// run must reproduce the committed bits exactly. Regenerate after an
// intentional behavior change with:
//
//	go test ./internal/circuits/ -run TestGolden -update
var update = flag.Bool("update", false, "rewrite golden files")

// goldenMeta is the committed numeric fingerprint of one run.
type goldenMeta struct {
	// InitialBits / FinalBits are math.Float64bits of the placed and
	// optimized clock periods, in hex.
	InitialBits string `json:"initial_bits"`
	FinalBits   string `json:"final_bits"`
	Cells       int    `json:"cells"`
	Nets        int    `json:"nets"`
	Replicated  int    `json:"replicated"`
	Unified     int    `json:"unified"`
	// Locs maps each cell to its final slot, in sorted name order on
	// disk (json marshals maps sorted).
	Locs map[string][2]int16 `json:"locs"`
}

func goldenCases() []circuits.Spec {
	return []circuits.Spec{
		{Name: "gold-comb", LUTs: 16, Inputs: 4, Outputs: 3, Seed: 41},
		{Name: "gold-seq", LUTs: 14, Inputs: 4, Outputs: 2, RegisteredFrac: 0.3, Seed: 42},
		{Name: "gold-wide", LUTs: 22, Inputs: 6, Outputs: 4, Depth: 3, Seed: 43},
	}
}

func TestGolden(t *testing.T) {
	for _, spec := range goldenCases() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			nl, err := circuits.Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			po := place.Defaults()
			po.Effort = 1
			po.Seed = spec.Seed
			pl, err := place.Place(nl, arch.New(8), po)
			if err != nil {
				t.Fatal(err)
			}
			cfg := core.Default()
			cfg.MaxIters = 8
			cfg.Patience = 4
			dm := arch.DelayModel{SegDelay: 1, LUTDelay: 2, IODelay: 0.5}
			e := core.New(nl, pl, dm, cfg)
			st, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}

			var ckt bytes.Buffer
			if err := e.Netlist.Write(&ckt); err != nil {
				t.Fatal(err)
			}
			meta := goldenMeta{
				InitialBits: fmt.Sprintf("%#016x", math.Float64bits(st.InitialPeriod)),
				FinalBits:   fmt.Sprintf("%#016x", math.Float64bits(st.FinalPeriod)),
				Cells:       e.Netlist.NumCells(),
				Nets:        e.Netlist.NumNets(),
				Replicated:  st.Replicated,
				Unified:     st.Unified,
				Locs:        map[string][2]int16{},
			}
			e.Netlist.Cells(func(c *netlist.Cell) {
				l := e.Placement.Loc(c.ID)
				meta.Locs[c.Name] = [2]int16{l.X, l.Y}
			})
			metaJSON, err := json.MarshalIndent(&meta, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			metaJSON = append(metaJSON, '\n')

			cktPath := filepath.Join("testdata", spec.Name+".ckt")
			jsonPath := filepath.Join("testdata", spec.Name+".json")
			if *update {
				if err := os.WriteFile(cktPath, ckt.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(jsonPath, metaJSON, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			wantCkt, err := os.ReadFile(cktPath)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if !bytes.Equal(ckt.Bytes(), wantCkt) {
				t.Errorf("optimized netlist text diverges from %s:\n--- want\n%s--- got\n%s",
					cktPath, wantCkt, ckt.Bytes())
			}
			wantJSON, err := os.ReadFile(jsonPath)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if !bytes.Equal(metaJSON, wantJSON) {
				t.Errorf("run fingerprint diverges from %s:\n--- want\n%s--- got\n%s",
					jsonPath, wantJSON, metaJSON)
			}
		})
	}
}
