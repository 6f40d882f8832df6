package serve

// Speculative multi-variant racing. A job with Algo == AlgoRace runs
// every listed engine variant in parallel under one parent context and
// returns one variant's result — chosen by a rule that is a pure
// function of the per-variant results, never of finish order.
//
// The rule: the winner is the earliest variant in canonical
// flow.EngineAlgorithms order among those meeting the period bound. A
// later-ordered variant can be declared the winner only after every
// earlier-ordered variant has finished (missing the bound or failing)
// — an early finish by a later variant merely lets the race cancel
// variants that are provably unable to win, it never changes which
// result is returned. With no bound (PeriodBound == 0) every variant
// runs to completion and the smallest optimized period wins, ties
// resolved toward canonical order.
//
// Why not first-finisher-wins: each variant is individually
// bit-deterministic, but which variant finishes first is scheduling
// noise. The cluster layer content-addresses specs and replays cached
// results for byte-identical submissions (internal/cluster), so a
// raced spec must map to exactly one result forever. The canonical-
// order rule makes the winner — and therefore the cached result — a
// function of the spec alone.

import (
	"context"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
)

// RunRace executes a raced spec by fanning its variants out through
// run and returning the deterministic winner's result, decorated with
// RaceWinner/RaceMetBound. Losing variants are cancelled as soon as
// they are provably unable to win, and every variant goroutine is
// joined before RunRace returns — no work outlives the call. A
// non-race spec falls through to run unchanged.
func RunRace(ctx context.Context, spec JobSpec, run Runner) (*Result, error) {
	return raceRun(ctx, spec, run, nil)
}

// raceOutcome is one variant's terminal state.
type raceOutcome struct {
	res *Result
	err error
}

// raceRun is RunRace with the manager's counter hooks (nil-safe).
func raceRun(ctx context.Context, spec JobSpec, run Runner, c *counters) (*Result, error) {
	norm := spec.Normalized()
	if !norm.IsRace() {
		return run(ctx, spec)
	}
	if err := norm.Validate(); err != nil {
		return nil, err
	}
	variants := norm.RaceVariants
	bound := norm.PeriodBound
	n := len(variants)

	rctx, rcancel := context.WithCancel(ctx)
	cancels := make([]context.CancelFunc, n)
	outs := make([]*raceOutcome, n) // nil until that variant finishes
	cut := make([]bool, n)          // cancelled before the decision
	type completion struct {
		i   int
		out raceOutcome
	}
	compl := make(chan completion, n) // buffered: no send outlives the loop

	var wg sync.WaitGroup
	for i, v := range variants {
		vspec := norm
		vspec.Algo = v
		vspec.RaceVariants = nil
		vspec.PeriodBound = 0
		vctx, vcancel := context.WithCancel(rctx)
		cancels[i] = vcancel
		wg.Add(1)
		go func(i int, vspec JobSpec, vctx context.Context) {
			defer wg.Done()
			compl <- completion{i, runVariant(vctx, vspec, run)}
		}(i, vspec, vctx)
	}
	// Losers' teardown, in LIFO defer order: cancel whatever is still
	// running, then join every variant goroutine before the result
	// escapes.
	defer wg.Wait()
	defer rcancel()

	// met is bound satisfaction; only meaningful when a bound is set.
	met := func(o *raceOutcome) bool {
		return o != nil && o.err == nil && o.res != nil && bound > 0 && o.res.OptimizedPeriod <= bound
	}

	// decide scans variants in canonical order and reports the winner
	// once it is determined. It reads only the outcome board — never
	// arrival order — so any completion interleaving that produces the
	// same board decides the same winner.
	decide := func() (int, bool) {
		for i := 0; i < n; i++ {
			o := outs[i]
			if o == nil {
				// An unfinished earlier-ordered variant may still meet
				// the bound and outrank everything after it.
				return 0, false
			}
			if met(o) {
				return i, true
			}
		}
		// Every variant finished and none met the bound (or none was
		// set): the best period among the successes wins, earliest
		// canonical order on exact ties.
		best := -1
		for i := 0; i < n; i++ {
			o := outs[i]
			if o.err != nil || o.res == nil {
				continue
			}
			if best < 0 || o.res.OptimizedPeriod < outs[best].res.OptimizedPeriod {
				best = i
			}
		}
		return best, true
	}

	finalize := func(w int) (*Result, error) {
		if c != nil {
			for i, o := range outs {
				if o == nil || cut[i] {
					c.raceCancelled.Add(1)
				}
			}
		}
		if w < 0 {
			msgs := make([]string, 0, n)
			for i, o := range outs {
				msgs = append(msgs, fmt.Sprintf("%s: %v", variants[i], o.err))
			}
			return nil, fmt.Errorf("race: every variant failed: %s", strings.Join(msgs, "; "))
		}
		res := *outs[w].res
		res.RaceWinner = variants[w]
		res.RaceMetBound = met(outs[w])
		return &res, nil
	}

	for pending := n; pending > 0; {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case cm := <-compl:
			outs[cm.i] = &cm.out
			pending--
			if w, ok := decide(); ok {
				return finalize(w)
			}
			if met(outs[cm.i]) {
				// cm.i meets the bound, so the eventual winner is at
				// canonical index <= cm.i: cancel everything after it —
				// those variants are provably unable to win, and
				// cutting them early is the whole point of racing.
				for k := cm.i + 1; k < n; k++ {
					if outs[k] == nil && !cut[k] {
						cancels[k]()
						cut[k] = true
					}
				}
			}
		}
	}
	w, _ := decide() // the full board always decides
	return finalize(w)
}

// runVariant runs one variant with per-variant panic isolation: a
// panicking variant loses the race as a failure instead of taking the
// whole job (or daemon) down with it.
func runVariant(ctx context.Context, spec JobSpec, run Runner) (out raceOutcome) {
	defer func() {
		if r := recover(); r != nil {
			out = raceOutcome{err: fmt.Errorf("variant %s panicked: %v\n%s", spec.Algo, r, debug.Stack())}
		}
	}()
	res, err := run(ctx, spec)
	return raceOutcome{res: res, err: err}
}
