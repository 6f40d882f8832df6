package main

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/circuits"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/serve"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting is exercised
	}
	return xs
}

// TestTailPercentile pins the "highest percentile with at least ten
// samples beyond it" rule at each step of the ladder.
func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{n: 19, ok: false},
		{n: 20, p: 50, want: 10, ok: true},
		{n: 39, p: 50, want: 20, ok: true},
		{n: 40, p: 75, want: 30, ok: true},
		{n: 99, p: 75, want: 75, ok: true},
		{n: 100, p: 90, want: 90, ok: true},
		{n: 200, p: 95, want: 190, ok: true},
		{n: 1000, p: 99, want: 990, ok: true},
		{n: 10000, p: 99.9, want: 9990, ok: true},
	}
	for _, c := range cases {
		p, v, ok := tailPercentile(seq(c.n))
		if ok != c.ok || (ok && (p != c.p || v != c.want)) {
			t.Errorf("n=%d: got p%v=%v ok=%v, want p%v=%v ok=%v", c.n, p, v, ok, c.p, c.want, c.ok)
		}
		if ok {
			beyond := 0
			for _, x := range seq(c.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("n=%d: only %d samples beyond p%v", c.n, beyond, p)
			}
		}
	}
}

func TestMedianAndGeomean(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := geomean([]float64{1, 4}); math.Abs(got-2) > 1e-12 {
		t.Errorf("geomean = %v", got)
	}
	if !math.IsNaN(geomean([]float64{1, 0})) {
		t.Error("geomean of a zero must be NaN")
	}
}

// TestSelfTimes checks self-time arithmetic on a hand-built span tree
// with overlapping children, a grandchild, and a child that outlives
// its parent.
func TestSelfTimes(t *testing.T) {
	ms := func(x int) time.Duration { return time.Duration(x) * time.Millisecond }
	spans := []Span{
		{ID: 1, Name: "root", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "a", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(30), End: ms(60)}, // overlaps a
		{ID: 4, Parent: 2, Name: "c", Start: ms(15), End: ms(20)},
		{ID: 5, Parent: 1, Name: "d", Start: ms(90), End: ms(120)}, // clipped at 100
		{ID: 6, Name: "other", Start: ms(0), End: ms(7)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: ms(40), 2: ms(25), 3: ms(30), 4: ms(5), 5: ms(30), 6: ms(7)}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self = %v, want %v", id, self[id], w)
		}
	}
	byName := selfByName(append(spans, Span{ID: 7, Name: "a", Start: ms(200), End: ms(210)}))
	if math.Abs(byName["a"]-0.035) > 1e-9 {
		t.Errorf("self by name a = %v, want 0.035", byName["a"])
	}
}

func TestTracerRecordsParents(t *testing.T) {
	tr := newTracer()
	root := tr.Begin(0, "f", "flow")
	if err := tr.Time(root, "f", "place.place", func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	tr.End(root)
	spans := tr.Spans()
	if len(spans) != 2 || spans[1].Parent != root || spans[0].End < spans[1].End || spans[1].Flow != "f" {
		t.Fatalf("unexpected spans %+v", spans)
	}
}

func jobsJSON(t *testing.T, jobs []benchJob) string {
	t.Helper()
	type j struct {
		Kind     string
		Spec     serve.JobSpec
		RepeatOf int
	}
	var out []j
	for _, b := range jobs {
		out = append(out, j{b.kind, b.spec, b.repeatOf})
	}
	data, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestGenJobsSeeded: the same seed gives the same job list, another
// seed a different one, and every list has the fixed composition with
// repeats that follow and exactly repeat a non-probe original.
func TestGenJobsSeeded(t *testing.T) {
	a, err := genJobs(7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := genJobs(7)
	c, _ := genJobs(8)
	if jobsJSON(t, a) != jobsJSON(t, b) {
		t.Error("same seed produced different job lists")
	}
	if jobsJSON(t, a) == jobsJSON(t, c) {
		t.Error("different seeds produced the same job list")
	}
	for _, jobs := range [][]benchJob{a, c} {
		kinds := map[string]int{}
		for i, j := range jobs {
			kinds[j.kind]++
			if err := j.spec.Validate(); err != nil {
				t.Errorf("job %d (%s) invalid: %v", i, j.kind, err)
			}
			if j.kind != kindRepeat {
				continue
			}
			if j.repeatOf < 0 || j.repeatOf >= i {
				t.Errorf("repeat %d points at %d", i, j.repeatOf)
				continue
			}
			orig := jobs[j.repeatOf]
			if orig.kind == kindProbe || orig.kind == kindRepeat || !reflect.DeepEqual(orig.spec, j.spec) {
				t.Errorf("repeat %d does not repeat a non-probe original exactly", i)
			}
		}
		want := map[string]int{kindEngine: len(engineSlots), kindInline: numInline, kindLocal: len(localSlots),
			kindRace: len(raceSlots), kindRoute: len(routeSlots), kindProbe: len(probeSlots), kindRepeat: numRepeats}
		if !reflect.DeepEqual(kinds, want) {
			t.Errorf("composition %v, want %v", kinds, want)
		}
	}
}

// TestLintEditsSeeded: the same seed gives the same edit files, another
// seed different ones; constrained and test files are never edited.
func TestLintEditsSeeded(t *testing.T) {
	files := []string{"a/x.go", "a/x_test.go", "b/y.go", "c/z.go", "internal/analysis/cfg.go",
		"cmd/replint/main.go", "d/testdata/t.go", "e/tagged.go", "README.md"}
	src := func(f string) ([]byte, error) {
		if f == "e/tagged.go" {
			return []byte("//go:build replassert\n\npackage e\n"), nil
		}
		return []byte("// Package p.\npackage p\n"), nil
	}
	targets, err := lintEditTargets(files, src)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a/x.go", "b/y.go", "c/z.go"}; !reflect.DeepEqual(targets, want) {
		t.Fatalf("targets %v, want %v", targets, want)
	}
	a := lintEdits(3, targets, 20)
	if !reflect.DeepEqual(a, lintEdits(3, targets, 20)) {
		t.Error("same seed produced different edits")
	}
	if reflect.DeepEqual(a, lintEdits(4, targets, 20)) {
		t.Error("different seeds produced the same edits")
	}
}

func TestWminOf(t *testing.T) {
	for w := 1; w < 200; w++ {
		if got := wminOf(lowStressWidth(w)); got != w {
			t.Errorf("wminOf(lowStressWidth(%d)) = %d", w, got)
		}
	}
	if wminOf(7) != -1 { // 6 → 8, so 7 is no low-stress width
		t.Errorf("wminOf(7) = %d, want -1", wminOf(7))
	}
}

// TestCheckDesignsCatchesCorruptNetlist: the oracle checks pass on an
// untouched design and fail on one whose output pad was rewired.
func TestCheckDesignsCatchesCorruptNetlist(t *testing.T) {
	nl, err := circuits.Generate(circuits.Spec{Name: "t", LUTs: 30, Inputs: 4, Outputs: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	f := arch.MinSquare(nl.NumLUTs(), nl.NumIOs())
	opts := place.Defaults()
	opts.Effort = 0.3
	pl, err := place.Place(nl, f, opts)
	if err != nil {
		t.Fatal(err)
	}
	good := &checker{}
	checkDesigns(good, []tracedDesign{{name: "good", input: nl, nl: nl.Clone(), pl: pl, basePeriod: math.Inf(1)}}, arch.DefaultDelayModel())
	if good.failed != 0 {
		t.Fatalf("clean design failed checks: %v", good.msgs)
	}
	bad := nl.Clone()
	var opad, ipad netlist.CellID = -1, -1
	bad.Cells(func(c *netlist.Cell) {
		switch {
		case c.Kind == netlist.OPad && opad < 0:
			opad = c.ID
		case c.Kind == netlist.IPad && ipad < 0:
			ipad = c.ID
		}
	})
	bad.MoveSink(netlist.Pin{Cell: opad, Input: 0}, ipad)
	chk := &checker{}
	checkDesigns(chk, []tracedDesign{{name: "bad", input: nl, nl: bad, pl: pl, basePeriod: math.Inf(1)}}, arch.DefaultDelayModel())
	if chk.failed == 0 || chk.frac() <= 0 {
		t.Fatal("corrupted netlist passed every check")
	}
}

// TestCheckJobsCatchesMismatchedRepeat: a repeat whose result differs
// from its original's raises failed_frac; an identical one does not.
func TestCheckJobsCatchesMismatchedRepeat(t *testing.T) {
	spec := serve.JobSpec{Circuit: "ex5p", Algo: "rt"}
	jobs := []benchJob{{kind: kindEngine, spec: spec, repeatOf: -1}, {kind: kindRepeat, spec: spec, repeatOf: 0}}
	res := func(p float64) *serve.Result {
		return &serve.Result{Circuit: "ex5p", PlacedPeriod: 10, OptimizedPeriod: p, PlaceSeconds: p}
	}
	done := func(r *serve.Result) jobOutcome {
		return jobOutcome{st: serve.Status{State: serve.StateDone, Result: r}}
	}
	ok := &checker{}
	checkJobs(ok, jobs, []jobOutcome{done(res(8)), done(&serve.Result{Circuit: "ex5p", PlacedPeriod: 10, OptimizedPeriod: 8, PlaceSeconds: 99})})
	if ok.failed != 0 {
		t.Fatalf("identical repeat failed (timing telemetry must not count): %v", ok.msgs)
	}
	bad := &checker{}
	checkJobs(bad, jobs, []jobOutcome{done(res(8)), done(res(math.Nextafter(8, 9)))})
	if bad.failed == 0 || bad.frac() <= 0 {
		t.Fatal("mismatched repeat passed")
	}
	failedJob := &checker{}
	checkJobs(failedJob, jobs[:1], []jobOutcome{{st: serve.Status{State: serve.StateFailed}}})
	if failedJob.failed != 1 {
		t.Fatal("failed job passed")
	}
}

// TestCheckLintOutputCatchesChange: a changed lint output or exit
// status raises failed_frac; the cache statistics line is ignored.
func TestCheckLintOutputCatchesChange(t *testing.T) {
	want := lintRun{exit: 0, stdout: "go run ./cmd/replint ./...\n", stderr: stripCacheLine("replint: cache: 0 hit(s)\n")}
	same := lintRun{exit: 0, stdout: want.stdout, stderr: stripCacheLine("replint: cache: 31 hit(s)\n")}
	ok := &checker{}
	checkLintOutput(ok, want, same, "same")
	if ok.failed != 0 {
		t.Fatalf("identical output failed: %v", ok.msgs)
	}
	for name, got := range map[string]lintRun{
		"finding": {exit: 0, stdout: want.stdout + "x.go:1:1: maprange: ...\n"},
		"exit":    {exit: 1, stdout: want.stdout},
	} {
		chk := &checker{}
		checkLintOutput(chk, want, got, name)
		if chk.failed == 0 || chk.frac() <= 0 {
			t.Errorf("%s: changed lint output passed", name)
		}
	}
}

// TestSpeedFactor pins the speed normalization: probes at their nominal
// times leave CPU seconds as they are, probes twice as slow halve them,
// an outlying probe run does not count, and each probe counts by the
// geometric mean.
func TestSpeedFactor(t *testing.T) {
	saveALU, saveMem := aluSamples, memSamples
	defer func() { aluSamples, memSamples = saveALU, saveMem }()
	cases := []struct {
		alu, mem []float64
		want     float64
	}{
		{[]float64{aluNominal}, []float64{memNominal}, 1},
		{[]float64{2 * aluNominal}, []float64{2 * memNominal}, 0.5},
		{[]float64{aluNominal, aluNominal, 9 * aluNominal}, []float64{memNominal}, 1},
		{[]float64{4 * aluNominal}, []float64{memNominal}, 0.5},
	}
	for _, c := range cases {
		aluSamples, memSamples = c.alu, c.mem
		if got := speedFactor(); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("speedFactor(alu %v, mem %v) = %v, want %v", c.alu, c.mem, got, c.want)
		}
	}
}

// TestSampleSpeedRecords checks that a probe sample records one
// positive CPU time per probe.
func TestSampleSpeedRecords(t *testing.T) {
	saveALU, saveMem := aluSamples, memSamples
	defer func() { aluSamples, memSamples = saveALU, saveMem }()
	aluSamples, memSamples = nil, nil
	sampleSpeed(2)
	if len(aluSamples) != 2 || len(memSamples) != 2 {
		t.Fatalf("got %d and %d samples, want 2 and 2", len(aluSamples), len(memSamples))
	}
	for i := range aluSamples {
		if !(aluSamples[i] > 0 && memSamples[i] > 0) {
			t.Errorf("sample %d: alu %v, mem %v; want both positive", i, aluSamples[i], memSamples[i])
		}
	}
}

// TestUnitsSums checks the per-unit aggregation: CPU time sums the
// units' means, wall time their medians.
func TestUnitsSums(t *testing.T) {
	u := newUnits()
	u.keys = []string{"a", "b"}
	u.cpu = map[string][]float64{"a": {1, 2, 6}, "b": {4}}
	u.wall = u.cpu
	if got := u.sumOfMeans(); got != 7 {
		t.Errorf("sumOfMeans = %v, want 7", got)
	}
	if got := u.sumOfMedians(); got != 6 {
		t.Errorf("sumOfMedians = %v, want 6", got)
	}
}

// TestFlowInputsSeeded checks that the flow inputs are a function of
// the seed: copies placement seeds per circuit under distinct keys, the
// same for the same seed and different for another.
func TestFlowInputsSeeded(t *testing.T) {
	a, err := flowInputs(3, []string{"ex5p", "pdc"}, 3, 0.01, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := flowInputs(3, []string{"ex5p", "pdc"}, 3, 0.01, 1, true)
	c, _ := flowInputs(4, []string{"ex5p", "pdc"}, 3, 0.01, 1, true)
	if len(a) != 6 {
		t.Fatalf("got %d inputs, want 6", len(a))
	}
	keys := map[string]bool{}
	same, differ := true, false
	for i := range a {
		keys[a[i].key] = true
		same = same && a[i].key == b[i].key && a[i].cfg.Seed == b[i].cfg.Seed
		differ = differ || a[i].cfg.Seed != c[i].cfg.Seed
	}
	if len(keys) != 6 {
		t.Errorf("keys %v are not distinct", keys)
	}
	if !same {
		t.Error("the same seed gave different inputs")
	}
	if !differ {
		t.Error("another seed gave the same placement seeds")
	}
}
