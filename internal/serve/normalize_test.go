package serve

import (
	"reflect"
	"testing"
)

// TestSpecNormalized pins the semantic defaults the cluster layer's
// content hash keys on. ExecuteJob resolves its defaults through
// Normalized too, so a drift here would split the result cache.
func TestSpecNormalized(t *testing.T) {
	cases := []struct {
		name string
		in   JobSpec
		want JobSpec
	}{
		{"circuit defaults",
			JobSpec{Circuit: "ex5p"},
			JobSpec{Circuit: "ex5p", Scale: 0.2, Algo: "rt", Seed: 1, Effort: 2}},
		{"explicit fields survive",
			JobSpec{Circuit: "apex4", Scale: 0.5, Algo: "lex3", Seed: 7, Effort: 1.5, MaxIters: 9, Route: true},
			JobSpec{Circuit: "apex4", Scale: 0.5, Algo: "lex3", Seed: 7, Effort: 1.5, MaxIters: 9, Route: true}},
		{"algo case folds to canonical",
			JobSpec{Circuit: "ex5p", Algo: "LEX3"},
			JobSpec{Circuit: "ex5p", Scale: 0.2, Algo: "lex3", Seed: 1, Effort: 2}},
		{"netlist clears circuit fields",
			JobSpec{Netlist: "circuit t\ninput a\noutput o a\n", Circuit: "ignored", Scale: 0.9},
			JobSpec{Netlist: "circuit t\ninput a\noutput o a\n", Algo: "rt", Seed: 1, Effort: 2}},
		{"non-semantic knobs untouched",
			JobSpec{Circuit: "ex5p", TimeoutMS: 1234},
			JobSpec{Circuit: "ex5p", Scale: 0.2, Algo: "rt", Seed: 1, Effort: 2, TimeoutMS: 1234}},
		{"unknown algo passes through for Validate to reject",
			JobSpec{Circuit: "ex5p", Algo: "fastest"},
			JobSpec{Circuit: "ex5p", Scale: 0.2, Algo: "fastest", Seed: 1, Effort: 2}},
		{"race defaults to every engine variant",
			JobSpec{Circuit: "ex5p", Algo: "RACE"},
			JobSpec{Circuit: "ex5p", Scale: 0.2, Algo: "race", Seed: 1, Effort: 2,
				RaceVariants: []string{"rt", "lexmc", "lex2", "lex3", "lex4", "lex5"}}},
		{"race variants fold to canonical order, case, and set",
			JobSpec{Circuit: "ex5p", Algo: "race", PeriodBound: 9.5,
				RaceVariants: []string{"LEX5", "rt", "lex5", "Lex3"}},
			JobSpec{Circuit: "ex5p", Scale: 0.2, Algo: "race", Seed: 1, Effort: 2, PeriodBound: 9.5,
				RaceVariants: []string{"rt", "lex3", "lex5"}}},
		{"unknown race variant passes through for Validate to reject",
			JobSpec{Circuit: "ex5p", Algo: "race", RaceVariants: []string{"lex3", "fastest"}},
			JobSpec{Circuit: "ex5p", Scale: 0.2, Algo: "race", Seed: 1, Effort: 2,
				RaceVariants: []string{"lex3", "fastest"}}},
		{"qos folds case",
			JobSpec{Circuit: "ex5p", QoS: "Deadline"},
			JobSpec{Circuit: "ex5p", Scale: 0.2, Algo: "rt", Seed: 1, Effort: 2, QoS: "deadline"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.in.Normalized(); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("Normalized:\n  got  %+v\n  want %+v", got, tc.want)
			}
		})
	}
	// Idempotence: normalizing twice is a no-op.
	for _, tc := range cases {
		n := tc.in.Normalized()
		if n2 := n.Normalized(); !reflect.DeepEqual(n2, n) {
			t.Errorf("%s: Normalized not idempotent: %+v vs %+v", tc.name, n2, n)
		}
	}
}
