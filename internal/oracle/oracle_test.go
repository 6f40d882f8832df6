package oracle

import (
	"math/rand"
	"testing"

	"repro/internal/embed"
)

// agreementRuns returns the instance count per mode: the full suite
// sweeps enough randomized instances to satisfy the oracle-agreement
// bar; -short keeps the race/CI loop snappy.
func agreementRuns(t *testing.T, full int) int {
	if testing.Short() {
		if full > 60 {
			return 60
		}
		return full
	}
	return full
}

// testAgreement cross-checks the DP against the brute-force oracle on
// n seeded random instances: the frontier must match bitwise, and an
// infeasible DP run must correspond to an empty oracle frontier.
func testAgreement(t *testing.T, mode embed.Mode, n int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	feasible := 0
	for i := 0; i < n; i++ {
		p := GenProblem(rng, mode)
		want, oerr := Frontier(p)
		if oerr != nil {
			t.Fatalf("instance %d: oracle refused: %v", i, oerr)
		}
		r, err := p.Solve()
		if err != nil {
			if len(want) != 0 {
				t.Errorf("instance %d: Solve says infeasible (%v) but oracle found %d solutions",
					i, err, len(want))
			}
			continue
		}
		feasible++
		if derr := Diff(r.Frontier, want); derr != nil {
			t.Errorf("instance %d (seed %d): %v", i, seed, derr)
		}
	}
	if feasible < n/2 {
		t.Errorf("only %d/%d instances feasible; generator is degenerate", feasible, n)
	}
}

func TestAgreementPlain(t *testing.T) {
	testAgreement(t, embed.Mode{LexDepth: 1}, agreementRuns(t, 220), 1)
}

func TestAgreementLex3(t *testing.T) {
	testAgreement(t, embed.Mode{LexDepth: 3}, agreementRuns(t, 220), 2)
}

func TestAgreementLexMC(t *testing.T) {
	testAgreement(t, embed.Mode{LexDepth: 2, MC: true}, agreementRuns(t, 220), 3)
}

func TestAgreementQuadratic(t *testing.T) {
	testAgreement(t, embed.Mode{LexDepth: 1, Delay: embed.QuadraticDelay}, agreementRuns(t, 120), 4)
}

func TestAgreementElmore(t *testing.T) {
	testAgreement(t, embed.Mode{LexDepth: 1, Delay: embed.ElmoreDelay, GateR: 0.5}, agreementRuns(t, 120), 5)
}

func TestAgreementOverlapControl(t *testing.T) {
	testAgreement(t, embed.Mode{LexDepth: 1, OverlapControl: true}, agreementRuns(t, 120), 6)
}

func TestAgreementLex5Elmore(t *testing.T) {
	testAgreement(t, embed.Mode{LexDepth: 5, Delay: embed.ElmoreDelay, GateR: 0.25}, agreementRuns(t, 80), 7)
}

// TestOracleRejectsInexactMode pins the exact-mode guard: the capped
// solver has no ground truth, so the oracle must refuse it rather than
// report spurious disagreement.
func TestOracleRejectsInexactMode(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	p := GenProblem(rng, embed.Mode{LexDepth: 1})
	p.MaxPerVertex = 4
	if _, err := Frontier(p); err == nil {
		t.Fatal("oracle accepted MaxPerVertex > 0")
	}
}
