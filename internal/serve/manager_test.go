package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// stubSpec is a valid spec for manager tests that never reach the real
// runner.
func stubSpec() JobSpec { return JobSpec{Circuit: "ex5p"} }

// sleepRunner blocks until the context is done or d elapses.
func sleepRunner(d time.Duration) Runner {
	return func(ctx context.Context, _ JobSpec) (*Result, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(d):
			return &Result{Circuit: "stub"}, nil
		}
	}
}

func waitState(t *testing.T, m *Manager, id string, want State) Status {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st, err := m.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s reached %s (err %q), want %s", id, st.State, st.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return Status{}
}

func TestQueueBackpressure(t *testing.T) {
	block := make(chan struct{})
	m := NewManager(Config{
		Workers:    1,
		QueueDepth: 2,
		Runner: func(ctx context.Context, _ JobSpec) (*Result, error) {
			select {
			case <-block:
				return &Result{}, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	})
	defer func() { close(block); m.Shutdown(context.Background()) }()

	// First job occupies the worker; the queue holds two more; the
	// fourth submission must bounce with ErrQueueFull.
	first, err := m.Submit(stubSpec())
	if err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	waitState(t, m, first.ID, StateRunning)
	for i := 0; i < 2; i++ {
		if _, err := m.Submit(stubSpec()); err != nil {
			t.Fatalf("submit %d: %v", i+2, err)
		}
	}
	if _, err := m.Submit(stubSpec()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit over capacity: err = %v, want ErrQueueFull", err)
	}
	c := m.Counters()
	if c.JobsRejectedFull != 1 || c.JobsAccepted != 3 {
		t.Fatalf("counters = %+v, want 3 accepted / 1 rejected", c)
	}
	if c.QueueDepth != 2 {
		t.Fatalf("queue depth = %d, want 2", c.QueueDepth)
	}
}

// TestIncrementalCountersAccumulate checks completed jobs' engine
// reuse telemetry rolls up into the /debug/vars counters.
func TestIncrementalCountersAccumulate(t *testing.T) {
	m := NewManager(Config{
		Workers: 1,
		Runner: func(context.Context, JobSpec) (*Result, error) {
			r := &Result{Circuit: "stub"}
			r.Incremental.STAUpdates = 7
			r.Incremental.STAFullRuns = 2
			r.Incremental.STACellsForward = 30
			r.Incremental.STACellsBackward = 12
			r.Incremental.SPTPatches = 4
			r.Incremental.SPTRebuilds = 1
			r.Incremental.FrontierHits = 5
			r.Incremental.FrontierMisses = 3
			return r, nil
		},
	})
	defer m.Shutdown(context.Background())
	for i := 0; i < 2; i++ {
		st, err := m.Submit(stubSpec())
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, m, st.ID, StateDone)
	}
	c := m.Counters()
	if c.STAUpdates != 14 || c.STAFullRuns != 4 || c.STACellsRepropagated != 84 {
		t.Fatalf("STA counters = %+v, want 14/4/84", c)
	}
	if c.SPTPatches != 8 || c.SPTRebuilds != 2 {
		t.Fatalf("SPT counters = %+v, want 8/2", c)
	}
	if c.FrontierHits != 10 || c.FrontierMisses != 6 {
		t.Fatalf("frontier counters = %+v, want 10/6", c)
	}
}

func TestPanicRecovery(t *testing.T) {
	m := NewManager(Config{
		Workers: 1,
		Runner: func(_ context.Context, spec JobSpec) (*Result, error) {
			if spec.Seed == 666 {
				panic("synthetic job panic")
			}
			return &Result{Circuit: "ok"}, nil
		},
	})
	defer m.Shutdown(context.Background())

	bad := stubSpec()
	bad.Seed = 666
	st, err := m.Submit(bad)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	fin, err := m.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if fin.State != StateFailed {
		t.Fatalf("panicking job state = %s, want failed", fin.State)
	}
	if fin.Error == "" {
		t.Fatal("panicking job lost its error message")
	}

	// The process (and the worker) survived: the next job still runs.
	st, err = m.Submit(stubSpec())
	if err != nil {
		t.Fatalf("submit after panic: %v", err)
	}
	fin, err = m.Wait(context.Background(), st.ID)
	if err != nil || fin.State != StateDone {
		t.Fatalf("job after panic: state %s err %v, want done", fin.State, err)
	}
	if c := m.Counters(); c.JobPanics != 1 {
		t.Fatalf("panic counter = %d, want 1", c.JobPanics)
	}
}

func TestJobTimeout(t *testing.T) {
	m := NewManager(Config{Workers: 1, Runner: sleepRunner(time.Hour)})
	defer m.Shutdown(context.Background())

	spec := stubSpec()
	spec.TimeoutMS = 50
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	t0 := time.Now()
	fin, err := m.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if fin.State != StateCancelled {
		t.Fatalf("timed-out job state = %s (err %q), want cancelled", fin.State, fin.Error)
	}
	if el := time.Since(t0); el > 5*time.Second {
		t.Fatalf("timeout took %v, want prompt", el)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	block := make(chan struct{})
	m := NewManager(Config{
		Workers: 1,
		Runner: func(ctx context.Context, _ JobSpec) (*Result, error) {
			select {
			case <-block:
				return &Result{}, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	})
	defer func() { close(block); m.Shutdown(context.Background()) }()

	running, err := m.Submit(stubSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitState(t, m, running.ID, StateRunning)
	queued, err := m.Submit(stubSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	// Cancelling a queued job finalizes it immediately.
	st, err := m.Cancel(queued.ID)
	if err != nil || st.State != StateCancelled {
		t.Fatalf("cancel queued: state %s err %v", st.State, err)
	}
	// Cancelling the running job unwinds it through its context.
	if _, err := m.Cancel(running.ID); err != nil {
		t.Fatalf("cancel running: %v", err)
	}
	fin, err := m.Wait(context.Background(), running.ID)
	if err != nil || fin.State != StateCancelled {
		t.Fatalf("cancelled running job: state %s err %v", fin.State, err)
	}
	// The cancelled-while-queued job never runs.
	if c := m.Counters(); c.JobsCompleted != 0 || c.JobsCancelled != 2 {
		t.Fatalf("counters = %+v, want 0 completed / 2 cancelled", c)
	}
}

func TestShutdownDrain(t *testing.T) {
	var ran atomic.Int64
	m := NewManager(Config{
		Workers: 2,
		Runner: func(ctx context.Context, _ JobSpec) (*Result, error) {
			ran.Add(1)
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(20 * time.Millisecond):
				return &Result{}, nil
			}
		},
	})
	var ids []string
	for i := 0; i < 6; i++ {
		st, err := m.Submit(stubSpec())
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, st.ID)
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	m.Shutdown(drainCtx)

	// After drain: no job left non-terminal, and new submissions are
	// refused.
	for _, id := range ids {
		st, err := m.Get(id)
		if err != nil {
			t.Fatalf("get %s: %v", id, err)
		}
		if !st.State.Terminal() {
			t.Fatalf("job %s still %s after Shutdown", id, st.State)
		}
	}
	if _, err := m.Submit(stubSpec()); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after shutdown: err = %v, want ErrDraining", err)
	}
	// The generous drain window let everything finish.
	if c := m.Counters(); c.JobsCompleted != 6 {
		t.Fatalf("completed = %d, want 6 (ran %d)", c.JobsCompleted, ran.Load())
	}
}

func TestShutdownCancelsSlowJobs(t *testing.T) {
	m := NewManager(Config{Workers: 2, QueueDepth: 8, Runner: sleepRunner(time.Hour)})
	var ids []string
	for i := 0; i < 4; i++ {
		st, err := m.Submit(stubSpec())
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		ids = append(ids, st.ID)
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	m.Shutdown(drainCtx)
	if el := time.Since(t0); el > 5*time.Second {
		t.Fatalf("shutdown took %v despite hour-long jobs", el)
	}
	for _, id := range ids {
		st, _ := m.Get(id)
		if st.State != StateCancelled {
			t.Fatalf("job %s state = %s after forced drain, want cancelled", id, st.State)
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	m := NewManager(Config{Workers: 1, Runner: sleepRunner(0)})
	defer m.Shutdown(context.Background())
	cases := []JobSpec{
		{},                                  // neither circuit nor netlist
		{Circuit: "nope"},                   // unknown circuit
		{Circuit: "ex5p", Algo: "fastest"},  // unknown algorithm
		{Circuit: "ex5p", Netlist: "input"}, // both sources
		{Circuit: "ex5p", Scale: 7},         // scale out of range
		{Netlist: "lut a b\n"},              // unresolvable signal
		{Circuit: "ex5p", TimeoutMS: -1},    // negative tuning
		{Netlist: "input a\ninput a\n"},     // duplicate cell
		{Netlist: "widget frob\n"},          // unknown directive
		{Circuit: "ex5p", MaxIters: -2},     // negative tuning
	}
	for _, spec := range cases {
		if _, err := m.Submit(spec); err == nil {
			t.Errorf("Submit(%+v) accepted an invalid spec", spec)
		}
	}
	if c := m.Counters(); c.JobsAccepted != 0 {
		t.Fatalf("invalid specs consumed queue slots: %+v", c)
	}
}

// TestNoGoroutineLeakAcrossLifecycle pins the drain contract: after
// Shutdown returns, every worker and job goroutine is gone.
func TestNoGoroutineLeakAcrossLifecycle(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		m := NewManager(Config{Workers: 4, Runner: sleepRunner(time.Millisecond)})
		for i := 0; i < 8; i++ {
			if _, err := m.Submit(stubSpec()); err != nil {
				t.Fatalf("round %d submit %d: %v", round, i, err)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		m.Shutdown(ctx)
		cancel()
	}
	if !goroutinesSettle(before, 5*time.Second) {
		t.Fatalf("goroutines: %d before, %d after shutdowns", before, runtime.NumGoroutine())
	}
}

// goroutinesSettle waits for the goroutine count to return to at most
// base+2 (the runtime keeps a little slack) within the deadline.
func goroutinesSettle(base int, d time.Duration) bool {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+2 {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return runtime.NumGoroutine() <= base+2
}

// TestStatusPositions checks queue positions decrease FIFO.
func TestStatusPositions(t *testing.T) {
	block := make(chan struct{})
	m := NewManager(Config{
		Workers: 1,
		Runner: func(ctx context.Context, _ JobSpec) (*Result, error) {
			select {
			case <-block:
			case <-ctx.Done():
			}
			return &Result{}, nil
		},
	})
	defer func() { close(block); m.Shutdown(context.Background()) }()
	first, _ := m.Submit(stubSpec())
	waitState(t, m, first.ID, StateRunning)
	var queued []Status
	for i := 0; i < 3; i++ {
		st, err := m.Submit(stubSpec())
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		queued = append(queued, st)
	}
	for i, st := range queued {
		got, _ := m.Get(st.ID)
		if got.Position != i {
			t.Errorf("job %s position = %d, want %d", st.ID, got.Position, i)
		}
	}
	if len(m.List()) != 4 {
		t.Fatalf("List() = %d jobs, want 4", len(m.List()))
	}
}

// TestIDsAreSequential pins the externally visible ID format.
func TestIDsAreSequential(t *testing.T) {
	block := make(chan struct{})
	m := NewManager(Config{
		Workers: 1,
		Runner: func(ctx context.Context, _ JobSpec) (*Result, error) {
			select {
			case <-block:
			case <-ctx.Done():
			}
			return &Result{}, nil
		},
	})
	// Unblock the runner before draining, or Shutdown waits forever.
	defer func() { close(block); m.Shutdown(context.Background()) }()
	for i := 1; i <= 3; i++ {
		st, err := m.Submit(stubSpec())
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		if want := fmt.Sprintf("j%06d", i); st.ID != want {
			t.Fatalf("job ID = %s, want %s", st.ID, want)
		}
	}
}
