package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/circuits"
)

// Job golden regression suite: ExecuteJob on a routed RT-Embedding
// job, a local-replication job and an inline-netlist VPR job, with the
// periods, routing readouts and optimizer statistics committed under
// testdata/. Jobs are deterministic, so every run must reproduce the
// committed periods bit for bit. Regenerate after an intentional
// behavior change with:
//
//	go test ./internal/serve/ -run TestJobGolden -update
var update = flag.Bool("update", false, "rewrite golden files")

const jobGoldenPath = "testdata/jobs.json"

// jobFingerprint is the committed fingerprint of one job result. The
// periods are math.Float64bits, in hex.
type jobFingerprint struct {
	PlacedPeriod    string `json:"placed_period_bits"`
	OptimizedPeriod string `json:"optimized_period_bits"`
	RoutedCritPath  string `json:"routed_crit_path_bits"`
	ChannelWidth    int    `json:"channel_width"`
	WireLength      int    `json:"wire_length"`
	Iterations      int    `json:"iterations"`
	Replicated      int    `json:"replicated"`
	Unified         int    `json:"unified"`
	FFRelocations   int    `json:"ff_relocations"`
}

func TestJobGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full job flow")
	}
	spec, _ := circuits.ByName("misex3")
	nl, err := circuits.Generate(spec.Spec(0.04))
	if err != nil {
		t.Fatal(err)
	}
	var inline strings.Builder
	if err := nl.Write(&inline); err != nil {
		t.Fatal(err)
	}
	jobs := []struct {
		name string
		spec JobSpec
	}{
		{"rt-routed", JobSpec{Circuit: "tseng", Scale: 0.04, Algo: "rt", Seed: 31, Effort: 1, Route: true}},
		{"local", JobSpec{Circuit: "tseng", Scale: 0.04, Algo: "local", Seed: 119, Effort: 1}},
		{"inline-vpr", JobSpec{Netlist: inline.String(), Algo: "vpr", Seed: 33, Effort: 1}},
	}
	bits := func(v float64) string { return fmt.Sprintf("%#016x", math.Float64bits(v)) }
	got := map[string]jobFingerprint{}
	for _, j := range jobs {
		if err := j.spec.Validate(); err != nil {
			t.Fatalf("%s: %v", j.name, err)
		}
		r, err := ExecuteJob(context.Background(), j.spec)
		if err != nil {
			t.Fatalf("%s: %v", j.name, err)
		}
		got[j.name] = jobFingerprint{
			PlacedPeriod:    bits(r.PlacedPeriod),
			OptimizedPeriod: bits(r.OptimizedPeriod),
			RoutedCritPath:  bits(r.RoutedCritPath),
			ChannelWidth:    r.ChannelWidth,
			WireLength:      r.WireLength,
			Iterations:      r.Iterations,
			Replicated:      r.Replicated,
			Unified:         r.Unified,
			FFRelocations:   r.FFRelocations,
		}
	}
	gotJSON, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	gotJSON = append(gotJSON, '\n')
	if *update {
		if err := os.MkdirAll(filepath.Dir(jobGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(jobGoldenPath, gotJSON, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(jobGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(gotJSON, want) {
		t.Errorf("job fingerprint diverges from %s:\n--- want\n%s--- got\n%s", jobGoldenPath, want, gotJSON)
	}
}
