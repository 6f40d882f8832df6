// Command replbench is the repository's end-to-end benchmark. It runs
// one named workload with a given seed for a fixed measuring time,
// checks every output, and prints one line per metric followed by a
// JSON summary as the last line of standard output.
//
// Usage (from the repository root, which run.sh builds it for):
//
//	replbench --workload flow_routed --seed 1 --seconds 15 --trace 0
//
// Workloads: flow_routed, engine_lex, serve_mixed, lint_edit. With
// --trace 0 the summary holds the end-to-end metrics, measured with no
// tracing; with --trace 1 it holds the per-layer metrics of a traced
// run that recomposes the same steps from the layers' public functions.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// options are the command-line settings shared by every workload.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // repository checkout: the working directory
	work     string // scratch directory inside the checkout
}

func run(args []string) int {
	fs := flag.NewFlagSet("replbench", flag.ContinueOnError)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 15, "measuring time in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 for the traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceFlag != 0
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "replbench:", err)
		return 2
	}
	o.root = root
	o.work = filepath.Join(root, ".bench_build", "work")
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "replbench:", err)
		return 2
	}
	wl, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "replbench: unknown workload %q (valid: %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	rep, err := wl(context.Background(), o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "replbench:", err)
		return 1
	}
	if err := rep.print(os.Stdout, o.trace); err != nil {
		fmt.Fprintln(os.Stderr, "replbench:", err)
		return 1
	}
	return 0
}

// workloadFunc runs one workload start to finish: repeated set-up,
// timed passes, output checks.
type workloadFunc func(ctx context.Context, o options) (*report, error)

var workloads = map[string]workloadFunc{
	"flow_routed": runFlowRouted,
	"engine_lex":  runEngineLex,
	"serve_mixed": runServeMixed,
	"lint_edit":   runLintEdit,
}

func workloadNames() []string {
	var out []string
	for k := range workloads {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// e2eMetrics are the end-to-end metrics every workload reports with
// --trace 0, in BENCHMARK.json order.
var e2eMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"cpu_norm_s", "s"},
}

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics and check outcomes.
type report struct {
	chk   *checker
	e2e   map[string]metric // end-to-end metrics (--trace 0)
	layer map[string]metric // per-layer metrics (--trace 1)
	extra map[string]metric // workload-specific end-to-end readouts, printed only
	notes []string          // printed context lines (sample counts, probe timings)
}

func newReport(chk *checker) *report {
	return &report{chk: chk, e2e: map[string]metric{}, layer: map[string]metric{}, extra: map[string]metric{}}
}

func (r *report) setE2E(name string, v float64, unit string)   { r.e2e[name] = metric{v, unit} }
func (r *report) setLayer(name string, v float64, unit string) { r.layer[name] = metric{v, unit} }
func (r *report) setExtra(name string, v float64, unit string) { r.extra[name] = metric{v, unit} }
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// print writes one "metric <name> <value> <unit>" line per measurement
// and the JSON summary as the last line.
func (r *report) print(w *os.File, traced bool) error {
	for _, n := range r.notes {
		fmt.Fprintln(w, "note", n)
	}
	for _, m := range r.chk.msgs {
		fmt.Fprintln(w, "check-failed", m)
	}
	printSet := func(kind string, set map[string]metric) {
		keys := make([]string, 0, len(set))
		for k := range set {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "%s %s %v %s\n", kind, k, set[k].Value, set[k].Unit)
		}
	}
	printSet("extra", r.extra)
	printSet("e2e", r.e2e)
	printSet("layer", r.layer)
	fmt.Fprintf(w, "extra failed_frac %v ratio\n", r.chk.frac())

	metrics := map[string]metric{}
	if traced {
		for _, m := range layerMetrics {
			v, ok := r.layer[m.name]
			if !ok {
				return fmt.Errorf("per-layer metric %s was not measured", m.name)
			}
			metrics[m.name] = v
		}
	} else {
		for _, m := range e2eMetrics {
			v, ok := r.e2e[m.name]
			if !ok {
				return fmt.Errorf("end-to-end metric %s was not measured", m.name)
			}
			metrics[m.name] = v
		}
	}
	for k, v := range metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v", k, v.Value)
		}
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.chk.failed == 0, r.chk.attempted, r.chk.failed, metrics}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(data))
	return err
}

// checker counts output checks; failed/attempted is failed_frac.
type checker struct {
	attempted int
	failed    int
	msgs      []string
}

// check records one check; ok=false counts a failure with its message.
func (c *checker) check(ok bool, format string, args ...any) bool {
	c.attempted++
	if !ok {
		c.failed++
		if len(c.msgs) < 20 {
			c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// checkErr records one check that passes when err is nil.
func (c *checker) checkErr(err error, what string) bool {
	if err != nil {
		return c.check(false, "%s: %v", what, err)
	}
	return c.check(true, "")
}

func (c *checker) frac() float64 {
	if c.attempted == 0 {
		return 0
	}
	return float64(c.failed) / float64(c.attempted)
}

// cpuSeconds is the CPU time (user + system) used so far by this
// process, all its threads included, and by its children that have
// been waited for. Unlike wall time it leaves out the time the process
// waits for a CPU: other processes on the machine, and a virtual
// machine's host taking the CPU away (steal time), do not count.
func cpuSeconds() float64 {
	var self, kids syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
	return tvSeconds(self.Utime) + tvSeconds(self.Stime) + tvSeconds(kids.Utime) + tvSeconds(kids.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Nano()) / 1e9 }

// setupReps is how many times each workload sets up; setup_s is the
// median.
const setupReps = 3

// setupTimes are the medians over the set-up repetitions.
type setupTimes struct {
	cpu, wall float64
}

// timeSetup runs fn setupReps times and returns the median CPU and wall
// seconds. fn leaves its state in the caller's variables; the last
// repetition's state is the one the passes use.
func timeSetup(fn func() error) (setupTimes, error) {
	var cpu, wall []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		sampleSpeed(2)
		t0, c0 := time.Now(), cpuSeconds()
		if err := fn(); err != nil {
			return setupTimes{}, err
		}
		cpu = append(cpu, cpuSeconds()-c0)
		wall = append(wall, time.Since(t0).Seconds())
	}
	return setupTimes{cpu: median(cpu), wall: median(wall)}, nil
}

// setSetup reports the set-up times: setup_s is the CPU time at the
// nominal speed (see speed.go); the measured CPU and wall times and the
// run's speed are printed. Call it after the run's last measurement,
// so that the speed factor covers the whole run.
func (r *report) setSetup(st setupTimes) {
	f := speedFactor()
	r.setE2E("setup_s", st.cpu*f, "s")
	r.setExtra("setup_cpu_s", st.cpu, "s")
	r.setExtra("setup_wall_s", st.wall, "s")
	r.setExtra("speed_factor", f, "ratio")
	r.note("speed probes: %d samples; arithmetic median %.3f ms (p25 %.3f, p75 %.3f); memory median %.3f ms (p25 %.3f, p75 %.3f)",
		len(aluSamples), 1000*median(aluSamples), 1000*percentile(aluSamples, 25), 1000*percentile(aluSamples, 75),
		1000*median(memSamples), 1000*percentile(memSamples, 25), 1000*percentile(memSamples, 75))
}

// setCPU reports a pass's CPU seconds: cpu_norm_s at the nominal speed,
// cpu_s as measured.
func (r *report) setCPU(cpu float64) {
	r.setE2E("cpu_norm_s", cpu*speedFactor(), "s")
	r.setExtra("cpu_s", cpu, "s")
}

// passStats are the per-pass measurements of the in-process workloads.
type passStats struct {
	wall, cpu, allocMB, rssMB []float64
	units                     *units
}

// units records the wall and CPU time of each unit of work inside the
// passes (one circuit's flow, one engine run), keyed by unit.
type units struct {
	keys      []string
	wall, cpu map[string][]float64
	probed    time.Time // last speed sample
}

func newUnits() *units { return &units{wall: map[string][]float64{}, cpu: map[string][]float64{}} }

// probeEvery is how often the units sample the machine's speed.
const probeEvery = 250 * time.Millisecond

// time runs one unit of work and records its wall and CPU seconds.
// Before it, outside the timing, it samples the machine's speed if
// probeEvery has passed since the last sample.
func (u *units) time(key string, fn func() error) error {
	if time.Since(u.probed) >= probeEvery {
		sampleSpeed(1)
		u.probed = time.Now()
	}
	t0, c0 := time.Now(), cpuSeconds()
	err := fn()
	c1 := cpuSeconds()
	if _, ok := u.wall[key]; !ok {
		u.keys = append(u.keys, key)
	}
	u.wall[key] = append(u.wall[key], time.Since(t0).Seconds())
	u.cpu[key] = append(u.cpu[key], c1-c0)
	return err
}

// sumOfMedians adds up each unit's median over the passes: the wall
// time of one pass, estimated unit by unit, so that a burst of load
// from outside the process that slows some units of some passes moves
// the estimate less than it moves any whole pass.
func (u *units) sumOfMedians() float64 {
	s := 0.0
	for _, k := range u.keys {
		s += median(u.wall[k])
	}
	return s
}

// sumOfMeans adds up each unit's mean CPU time over the passes: the
// CPU time of one pass. CPU time leaves out the bursts sumOfMedians
// guards against; what moves it is the machine's slow speed drift,
// over which the mean, using every sample, averages best (the speed
// factor takes out the rest).
func (u *units) sumOfMeans() float64 {
	s := 0.0
	for _, k := range u.keys {
		s += mean(u.cpu[k])
	}
	return s
}

// measure runs as many passes as fit in the budget (at least
// minPasses) and records per pass its wall and CPU time, bytes
// allocated and peak resident set. A pass is started only while the
// budget has room for one more pass as long as the longest so far.
// Before each pass the heap is collected and returned to the OS, the
// peak-RSS mark is reset and the machine's speed is sampled, so every
// pass starts from the same memory state and its peak is its own.
func measure(budget time.Duration, minPasses int, pass func(i int, u *units) error) (passStats, error) {
	ps := passStats{units: newUnits()}
	start := time.Now()
	var longest time.Duration
	for i := 0; i < minPasses || time.Since(start)+longest <= budget; i++ {
		p0 := time.Now()
		debug.FreeOSMemory()
		resetPeakRSS()
		sampleSpeed(4)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0, c0 := time.Now(), cpuSeconds()
		if err := pass(i, ps.units); err != nil {
			return ps, err
		}
		wall, cpu := time.Since(t0).Seconds(), cpuSeconds()-c0
		runtime.ReadMemStats(&m1)
		ps.wall = append(ps.wall, wall)
		ps.cpu = append(ps.cpu, cpu)
		longest = max(longest, time.Since(p0))
		ps.allocMB = append(ps.allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		ps.rssMB = append(ps.rssMB, peakRSSMB())
	}
	return ps, nil
}

// resetPeakRSS resets the kernel's peak resident set mark (VmHWM) of
// this process to its current resident set.
func resetPeakRSS() {
	// Best effort: without the reset, peakRSSMB reads the process peak.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is this process's peak resident set since the last reset,
// in MiB, or NaN where /proc is unavailable.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// fillProcessMetrics sets the metrics shared by the in-process
// workloads: the pass CPU time is the sum of the units' means, wall_s
// the sum of their medians (serve_mixed, which has no units, overrides
// both).
func fillProcessMetrics(r *report, setup setupTimes, ps passStats) {
	r.setSetup(setup)
	r.setCPU(ps.units.sumOfMeans())
	r.setExtra("wall_s", ps.units.sumOfMedians(), "s")
	for _, k := range ps.units.keys {
		r.note("unit %s cpu median %.4f s, wall median %.4f s", k, median(ps.units.cpu[k]), median(ps.units.wall[k]))
	}
	r.setExtra("peak_rss_mb", median(ps.rssMB), "MB")
	r.setExtra("alloc_mb", median(ps.allocMB), "MB")
	r.note("samples %d passes; pass wall median %.4f p25 %.4f p75 %.4f", len(ps.wall), median(ps.wall),
		percentile(ps.wall, 25), percentile(ps.wall, 75))
}

// splitBudget divides a traced run's measuring time: the first half
// runs untraced passes (the overhead baseline and the composition
// cross-check), the second half traced ones.
func splitBudget(o options) (untraced, traced time.Duration) {
	total := time.Duration(o.seconds * float64(time.Second))
	return total / 2, total - total/2
}

// writeTrace stores a traced run's spans under the scratch directory.
func writeTrace(o options, t *Tracer) error {
	return t.WriteFile(filepath.Join(o.work, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed)))
}
