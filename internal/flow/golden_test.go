package flow

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/circuits"
)

// Pipeline golden regression suite: one combinational and one
// sequential suite circuit through RunBaseline and RunAlgorithm for the
// VPR baseline, local replication, RT-Embedding and Lex-3, placed and
// routed at a small scale, with the metrics and optimizer statistics
// committed under testdata/. Every stage is deterministic, so every run
// must reproduce the committed periods and wire lengths bit for bit.
// Regenerate after an intentional behavior change with:
//
//	go test ./internal/flow/ -run TestPipelineGolden -update
var update = flag.Bool("update", false, "rewrite golden files")

const pipelineGoldenPath = "testdata/pipeline.json"

// pipelineRun is the committed fingerprint of one flow run. The float
// metrics are math.Float64bits, in hex.
type pipelineRun struct {
	WInf        string `json:"winf_bits"`
	WLs         string `json:"wls_bits"`
	Wire        string `json:"wire_bits"`
	PlacePeriod string `json:"place_period_bits"`
	Blocks      int    `json:"blocks"`
	Wmin        int    `json:"wmin"`
	Iterations  int    `json:"iterations"`
	Replicated  int    `json:"replicated"`
	Unified     int    `json:"unified"`
}

func bits(v float64) string { return fmt.Sprintf("%#016x", math.Float64bits(v)) }

func fingerprintRun(m Metrics) pipelineRun {
	return pipelineRun{
		WInf: bits(m.WInf), WLs: bits(m.WLs), Wire: bits(m.Wire),
		PlacePeriod: bits(m.PlacePeriod),
		Blocks:      m.Blocks, Wmin: m.Wmin,
	}
}

func TestPipelineGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline")
	}
	cfg := Defaults()
	cfg.Scale = 0.04
	cfg.PlaceEffort = 1
	got := map[string]pipelineRun{}
	for _, gc := range []struct {
		name string
		seed int64
	}{
		{"ex5p", 166},  // combinational
		{"tseng", 201}, // sequential
	} {
		spec, ok := circuits.ByName(gc.name)
		if !ok {
			t.Fatalf("unknown circuit %s", gc.name)
		}
		cfg.Seed = gc.seed
		b, err := RunBaseline(spec, cfg)
		if err != nil {
			t.Fatalf("%s baseline: %v", gc.name, err)
		}
		got[gc.name+"/baseline"] = fingerprintRun(b.Metrics)
		for _, algo := range []Algorithm{VPRBaseline, LocalRep, RTEmbed, Lex3} {
			r, err := RunAlgorithm(b, algo, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", gc.name, algo, err)
			}
			fp := fingerprintRun(r.Metrics)
			if st := r.EngineStats; st != nil {
				fp.Iterations, fp.Replicated, fp.Unified = st.Iterations, st.Replicated, st.Unified
			}
			if st := r.LocalStats; st != nil {
				fp.Iterations, fp.Replicated = st.Iterations, st.Replicated
			}
			got[gc.name+"/"+CanonicalName(algo)] = fp
		}
	}
	gotJSON, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	gotJSON = append(gotJSON, '\n')
	if *update {
		if err := os.MkdirAll(filepath.Dir(pipelineGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pipelineGoldenPath, gotJSON, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(pipelineGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(gotJSON, want) {
		t.Errorf("pipeline fingerprint diverges from %s:\n--- want\n%s--- got\n%s", pipelineGoldenPath, want, gotJSON)
	}
}
