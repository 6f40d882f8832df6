//go:build replassert

package embed

import "testing"

// These tests run only under -tags replassert and prove the invariant
// layer actually fires: each one feeds an assertion a state that
// violates its invariant and demands a panic. The inverse direction —
// that clean solver runs never trip the assertions — is covered by the
// regular test suite, which executes the asserting build of the same
// code paths.

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic on an invariant violation", name)
		}
	}()
	fn()
}

func TestAssertEnabledUnderTag(t *testing.T) {
	if !assertEnabled {
		t.Fatal("assertEnabled must be true under -tags replassert")
	}
}

func TestAssertStaircaseFires(t *testing.T) {
	// d0 decreasing between steps: not a staircase.
	mustPanic(t, "assertStaircase", func() {
		assertStaircase([]stairStep{{d0: 2, peak: 5}, {d0: 1, peak: 3}})
	})
	// peak not strictly decreasing.
	mustPanic(t, "assertStaircase", func() {
		assertStaircase([]stairStep{{d0: 1, peak: 3}, {d0: 2, peak: 3}})
	})
	// A well-formed staircase passes.
	assertStaircase([]stairStep{{d0: 1, peak: 5}, {d0: 2, peak: 3}, {d0: 4, peak: 1}})
}

func TestAssertNonDominatedCombosFires(t *testing.T) {
	m := Mode{}
	better := newLeafSig(m, 1, false) // cost 0, arrival 1
	worse := better
	worse.Cost = 3 // dominated: same arrival, higher cost
	mustPanic(t, "assertNonDominatedCombos", func() {
		assertNonDominatedCombos(m, []combo{{sig: better}, {sig: worse}})
	})
	faster := newLeafSig(m, 0.5, false)
	faster.Cost = 3 // incomparable with better: cheaper vs faster
	assertNonDominatedCombos(m, []combo{{sig: better}, {sig: faster}})
}

func TestAssertWaveOrderFires(t *testing.T) {
	m := Mode{}
	cheap := newLeafSig(m, 1, false)
	costly := cheap
	costly.Cost = 2
	mustPanic(t, "assertWaveOrder", func() {
		assertWaveOrder(m, &costly, true, &cheap) // pop order regressed
	})
	assertWaveOrder(m, &cheap, true, &costly)
	assertWaveOrder(m, &costly, false, &cheap) // first pop: no predecessor
}

func TestAssertNoReverseDominationFires(t *testing.T) {
	m := Mode{}
	accepted := newLeafSig(m, 2, false)
	accepted.Cost = 2
	dominating := newLeafSig(m, 1, false) // cheaper and faster
	mustPanic(t, "assertNoReverseDomination", func() {
		assertNoReverseDomination(m, []solution{{sig: accepted}}, &dominating)
	})
	incomparable := newLeafSig(m, 1, false)
	incomparable.Cost = 5
	assertNoReverseDomination(m, []solution{{sig: accepted}}, &incomparable)
}

func TestAssertFrontierFires(t *testing.T) {
	m := Mode{}
	cheap := newLeafSig(m, 1, false)
	costly := cheap
	costly.Cost = 2
	mustPanic(t, "assertFrontier", func() {
		assertFrontier(m, []FrontierSol{{Sig: costly}, {Sig: cheap}}, false) // unsorted
	})
	dominated := costly
	dominated.D[0] = 3
	mustPanic(t, "assertFrontier", func() {
		assertFrontier(m, []FrontierSol{{Sig: cheap}, {Sig: dominated}}, false)
	})
	// Cross-vertex frontiers tolerate domination between vertices but
	// still demand the sort.
	assertFrontier(m, []FrontierSol{{Sig: cheap}, {Sig: dominated}}, true)
}

// TestSolveUnderAssertions runs the solver end to end — alone and
// concurrently — with every invariant armed, on the same randomized
// instances the determinism suite uses.
func TestSolveUnderAssertions(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		p := randomProblem(seed, 4, 4, 3, Mode{}, false)
		solveConcurrent(t, "replassert-random", p, 2, 4)
	}
}
