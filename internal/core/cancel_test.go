package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/circuits"
	"repro/internal/place"
)

// buildLargeDesign generates a circuit big enough that a full engine
// run takes well over the test deadlines, so cancellation has to cut
// it short mid-flight.
func buildLargeDesign(t *testing.T) *design {
	t.Helper()
	mc, ok := circuits.ByName("spla")
	if !ok {
		t.Fatal("suite circuit spla missing")
	}
	nl, err := circuits.Generate(mc.Spec(0.25))
	if err != nil {
		t.Fatal(err)
	}
	f := arch.MinSquare(nl.NumLUTs(), nl.NumIOs())
	popt := place.Defaults()
	popt.Seed = 7
	popt.Effort = 0.5 // cheap placement; the engine is what we time
	popt.Delay = arch.DefaultDelayModel()
	pl, err := place.Place(nl, f, popt)
	if err != nil {
		t.Fatal(err)
	}
	return &design{nl: nl, pl: pl}
}

// waitGoroutines polls until the goroutine count settles back to at
// most base+slack, so slow unwinding does not flake the leak check.
func waitGoroutines(base, slack int, d time.Duration) int {
	deadline := time.Now().Add(d)
	for {
		n := runtime.NumGoroutine()
		if n <= base+slack || time.Now().After(deadline) {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunContextDeadline is the cancellation contract end to end: a
// large design under a deadline far shorter than its run time must
// return context.DeadlineExceeded promptly — the cancellation points
// threaded through the engine loop, the embedder's join and wavefront,
// and the STA passes all get exercised — and must not leak a single
// goroutine.
func TestRunContextDeadline(t *testing.T) {
	d := buildLargeDesign(t)
	dmod := arch.DefaultDelayModel()

	// Baseline: how long does one uncancelled iteration take? Only to
	// sanity-check that the deadline is actually shorter than the work.
	before := runtime.NumGoroutine()

	e := New(d.nl, d.pl, dmod, Default())

	const deadline = 100 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()

	t0 := time.Now()
	st, err := e.RunContext(ctx)
	elapsed := time.Since(t0)

	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunContext = (%+v, %v), want context.DeadlineExceeded", st, err)
	}
	if st != nil {
		t.Fatalf("cancelled run returned partial stats: %+v", st)
	}
	// Prompt: the check strides inside the embedder and STA bound the
	// overshoot to well under a second even on a loaded machine.
	if elapsed > deadline+2*time.Second {
		t.Fatalf("cancellation took %v after a %v deadline", elapsed, deadline)
	}
	if after := waitGoroutines(before, 2, 5*time.Second); after > before+2 {
		t.Fatalf("goroutines leaked: %d before, %d after cancellation", before, after)
	}
}

// TestRunContextPreCancelled: an already-dead context returns
// immediately without touching the design.
func TestRunContextPreCancelled(t *testing.T) {
	d := detouredChain(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := New(d.nl, d.pl, dm(), Default())
	st, err := e.RunContext(ctx)
	if !errors.Is(err, context.Canceled) || st != nil {
		t.Fatalf("RunContext on dead ctx = (%+v, %v), want (nil, Canceled)", st, err)
	}
}

// TestRunContextCancelMidRun: user-style cancellation (Cancel, not a
// deadline) also unwinds cleanly with context.Canceled.
func TestRunContextCancelMidRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a large design")
	}
	d := buildLargeDesign(t)
	before := runtime.NumGoroutine()

	e := New(d.nl, d.pl, arch.DefaultDelayModel(), Default())
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	st, err := e.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = (%+v, %v), want context.Canceled", st, err)
	}
	if after := waitGoroutines(before, 2, 5*time.Second); after > before+2 {
		t.Fatalf("goroutines leaked: %d before, %d after cancel", before, after)
	}
}

// TestRunContextCompletesUnhindered: a generous deadline must not
// change the result — Run and RunContext(ctx) are bit-identical, so
// threading cancellation through the hot paths cost no determinism.
func TestRunContextCompletesUnhindered(t *testing.T) {
	build := func() *design { return detouredChain(t) }

	d1 := build()
	e1 := New(d1.nl, d1.pl, dm(), Default())
	st1, err := e1.Run()
	if err != nil {
		t.Fatal(err)
	}

	d2 := build()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	e2 := New(d2.nl, d2.pl, dm(), Default())
	st2, err := e2.RunContext(ctx)
	if err != nil {
		t.Fatal(err)
	}

	if snapshot(e1.Netlist, e1.Placement) != snapshot(e2.Netlist, e2.Placement) {
		t.Fatal("RunContext with a live deadline diverged from Run")
	}
	if st1.Iterations != st2.Iterations || st1.Replicated != st2.Replicated {
		t.Fatalf("stats diverged: %+v vs %+v", st1, st2)
	}
	// The phase breakdown is recorded for completed runs.
	if st2.Phases.Total() <= 0 {
		t.Fatalf("phase timings missing: %+v", st2.Phases)
	}
}
