package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/netlist"
	"repro/internal/serve"
	"repro/internal/serve/client"
)

// serveClients is the closed loop's client count (one per vCPU of the
// reference machine), and serveWorkers the repld worker count.
const (
	serveClients = 2
	serveWorkers = 2
	servePoll    = 10 * time.Millisecond
)

// benchNode is an in-process single-node repld: a serve.Manager behind
// a cluster.Node with an in-memory store, served over loopback HTTP.
type benchNode struct {
	mgr  *serve.Manager
	node *cluster.Node
	srv  *http.Server
	url  string
	done chan error
}

func startNode(ctx context.Context) (*benchNode, error) {
	mgr := serve.NewManager(serve.Config{Workers: serveWorkers})
	node, err := cluster.NewNode(mgr, cluster.Config{NodeID: "bench", Store: cluster.NewMemStore()})
	if err != nil {
		mgr.Shutdown(ctx)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		mgr.Shutdown(ctx)
		node.Close()
		return nil, err
	}
	b := &benchNode{mgr: mgr, node: node, srv: &http.Server{Handler: node.Handler()},
		url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { b.done <- b.srv.Serve(ln) }()
	if _, err := client.New(b.url).Health(ctx); err != nil {
		b.stop()
		return nil, fmt.Errorf("repld health: %w", err)
	}
	return b, nil
}

// stop shuts the HTTP server, drains the manager and closes the node,
// waiting for each to finish.
func (b *benchNode) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_ = b.srv.Shutdown(ctx) // the listener is ours; a late close error changes nothing
	<-b.done
	b.mgr.Shutdown(ctx)
	_ = b.node.Close() // in-memory store: Close cannot lose data
}

// jobOutcome is one submission's client-side view.
type jobOutcome struct {
	st      serve.Status
	err     error
	latency time.Duration
}

// runJobs drives the job list through the node with a closed loop of
// serveClients clients: each sends its next job only after its previous
// one reached a terminal state. With a tracer, each job gets a client
// span and queue/run child spans from the job's own timestamps.
func runJobs(ctx context.Context, url string, jobs []benchJob, t *Tracer, pass int) []jobOutcome {
	out := make([]jobOutcome, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := client.New(url)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				fid := fmt.Sprintf("p%d/job%d", pass, i)
				var root int
				if t != nil {
					root = t.Begin(0, fid, "serve.job")
				}
				t0 := time.Now()
				st, err := cl.Run(ctx, jobs[i].spec, servePoll)
				lat := time.Since(t0)
				if t != nil {
					t.End(root)
					if st.StartedAt != nil && st.FinishedAt != nil && st.Source != "cache" {
						t.Add(root, fid, "serve.queue", st.SubmittedAt, *st.StartedAt)
						t.Add(root, fid, "serve.run", *st.StartedAt, *st.FinishedAt)
					}
				}
				out[i] = jobOutcome{st: st, err: err, latency: lat}
			}
		}()
	}
	wg.Wait()
	return out
}

// resultBits is the deterministic part of a job result: every solver
// output, none of the timing telemetry.
func resultBits(r *serve.Result) string {
	if r == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%s|%s|%d|%d|%x|%x|%d|%d|%d|%d|%x|%d|%d|%s|%t",
		r.Circuit, r.Algo, r.LUTs, r.IOs, math.Float64bits(r.PlacedPeriod), math.Float64bits(r.OptimizedPeriod),
		r.Iterations, r.Replicated, r.Unified, r.FFRelocations, math.Float64bits(r.RoutedCritPath),
		r.ChannelWidth, r.WireLength, r.RaceWinner, r.RaceMetBound)
}

// checkJobs applies serve_mixed's output checks to one pass: every
// non-probe job ends done, a repeat returns its original's result bit
// for bit, and optimization never worsens the period. Probes are never
// failures; their outcome only feeds deadline_overrun_ms.
func checkJobs(chk *checker, jobs []benchJob, outs []jobOutcome) {
	for i, j := range jobs {
		o := outs[i]
		if j.kind == kindProbe {
			continue
		}
		if !chk.check(o.err == nil && o.st.State == serve.StateDone && o.st.Result != nil,
			"job %d (%s): state %q err %v msg %q", i, j.kind, o.st.State, o.err, o.st.Error) {
			continue
		}
		r := o.st.Result
		chk.check(r.OptimizedPeriod <= r.PlacedPeriod, "job %d (%s): optimized period %v > placed %v",
			i, j.kind, r.OptimizedPeriod, r.PlacedPeriod)
		if j.repeatOf >= 0 {
			orig := outs[j.repeatOf].st.Result
			chk.check(resultBits(orig) == resultBits(r), "job %d repeats job %d but its result differs", i, j.repeatOf)
		}
	}
}

// checkPasses applies checkJobs to every pass and requires every pass's
// non-probe results to equal the first pass's bit for bit.
func checkPasses(chk *checker, jobs []benchJob, passes []servePass) {
	for pi, p := range passes {
		checkJobs(chk, jobs, p.outs)
		if pi == 0 {
			continue
		}
		for i, j := range jobs {
			if j.kind != kindProbe {
				chk.check(resultBits(passes[0].outs[i].st.Result) == resultBits(p.outs[i].st.Result),
					"job %d: pass %d result differs from pass 0", i, pi)
			}
		}
	}
}

// probeOverrunMS is how far past its deadline a probe finished, in ms
// (0 when it finished in time).
func probeOverrunMS(spec serve.JobSpec, st serve.Status) (float64, bool) {
	if st.StartedAt == nil || st.FinishedAt == nil {
		return 0, false
	}
	deadline := st.StartedAt.Add(time.Duration(spec.TimeoutMS) * time.Millisecond)
	return math.Max(0, float64(st.FinishedAt.Sub(deadline))/float64(time.Millisecond)), true
}

// varsDoc is the part of repld's /debug/vars the traced run reads.
type varsDoc struct {
	JobsRejectedFull    int64 `json:"jobs_rejected_queue_full"`
	Races               int64 `json:"races"`
	RaceLosersCancelled int64 `json:"race_losers_cancelled"`
	Cluster             struct {
		Dedup cluster.DedupSnapshot `json:"dedup"`
	} `json:"cluster"`
}

func fetchVars(ctx context.Context, url string) (varsDoc, error) {
	var v varsDoc
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/debug/vars", nil)
	if err != nil {
		return v, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return v, fmt.Errorf("/debug/vars: %s", resp.Status)
	}
	return v, json.NewDecoder(resp.Body).Decode(&v)
}

// servePass is one pass's raw outcome.
type servePass struct {
	outs []jobOutcome
	vars varsDoc
}

// runServeMixed is the serve_mixed workload: seeded repld traffic from
// a closed loop of two clients against an in-process single-node repld.
// Each pass starts a fresh node (outside the timed window), so repeats
// hit the dedup layer only within a pass and every pass sees the same
// traffic.
func runServeMixed(ctx context.Context, o options) (*report, error) {
	chk := &checker{}
	rep := newReport(chk)
	var jobs []benchJob
	setup, err := timeSetup(func() error {
		var err error
		if jobs, err = genJobs(o.seed); err != nil {
			return err
		}
		n, err := startNode(ctx)
		if err != nil {
			return err
		}
		defer n.stop()
		// A first small job warms the whole stack.
		st, err := client.New(n.url).Run(ctx, serve.JobSpec{Circuit: "ex5p", Scale: serveScale, Algo: "rt"}, servePoll)
		if err == nil && st.State != serve.StateDone {
			err = fmt.Errorf("warm-up job ended %s: %s", st.State, st.Error)
		}
		return err
	})
	if err != nil {
		return nil, err
	}

	var passes []servePass
	var node *benchNode
	// onePass runs the job list against a node started before the pass
	// clock (see measureServe); the node is stopped after it.
	onePass := func(t *Tracer, i int) error {
		outs := runJobs(ctx, node.url, jobs, t, i)
		var sp servePass
		sp.outs = outs
		if t != nil {
			v, err := fetchVars(ctx, node.url)
			if !chk.checkErr(err, "debug vars") {
				return nil
			}
			sp.vars = v
		}
		passes = append(passes, sp)
		return nil
	}
	measureServe := func(budget time.Duration, t *Tracer) (passStats, error) {
		ps := passStats{units: newUnits()}
		start := time.Now()
		var longest time.Duration
		for i := 0; i == 0 || time.Since(start)+longest <= budget; i++ {
			var err error
			if node, err = startNode(ctx); err != nil {
				return ps, err
			}
			p0 := time.Now()
			one, err := measure(0, 1, func(int, *units) error { return onePass(t, i) })
			longest = max(longest, time.Since(p0))
			node.stop()
			if err != nil {
				return ps, err
			}
			ps.wall = append(ps.wall, one.wall...)
			ps.cpu = append(ps.cpu, one.cpu...)
			ps.allocMB = append(ps.allocMB, one.allocMB...)
			ps.rssMB = append(ps.rssMB, one.rssMB...)
		}
		return ps, nil
	}

	if !o.trace {
		ps, err := measureServe(time.Duration(o.seconds*float64(time.Second)), nil)
		if err != nil {
			return nil, err
		}
		checkPasses(chk, jobs, passes)
		fillProcessMetrics(rep, setup, ps)
		rep.setCPU(mean(ps.cpu))
		rep.setExtra("wall_s", jobWait(passes), "s")
		serveExtras(rep, jobs, passes)
		return rep, nil
	}

	ub, tb := splitBudget(o)
	ups, err := measureServe(ub, nil)
	if err != nil {
		return nil, err
	}
	untracedPasses := len(passes)
	t := newTracer()
	tps, err := measureServe(tb, t)
	if err != nil {
		return nil, err
	}
	// Every traced pass must reproduce the untraced first pass's results:
	// the composition cross-check of serve_mixed.
	checkPasses(chk, jobs, passes)
	// netlist.Read on the inline netlists, timed in this process.
	for _, j := range jobs {
		if j.kind != kindInline {
			continue
		}
		err := t.Time(0, "netlist", "netlist.read", func(int) error {
			_, err := netlist.Read(strings.NewReader(j.spec.Netlist))
			return err
		})
		chk.checkErr(err, "netlist.Read")
	}
	if err := writeTrace(o, t); err != nil {
		return nil, err
	}
	fillLayerDefaults(rep)
	traced := passes[untracedPasses:]
	n := float64(len(traced))
	var queue, runS, place, eng, route, local float64
	var races, losers, rejected, hits, subs float64
	for _, p := range traced {
		for i, out := range p.outs {
			st := out.st
			if st.Source == "cache" || st.Result == nil {
				continue
			}
			if jobs[i].repeatOf >= 0 && st.Source == "coalesced" {
				continue
			}
			queue += st.QueueSeconds
			runS += st.RunSeconds
			r := st.Result
			place += r.PlaceSeconds
			route += r.RouteSeconds
			if jobs[i].spec.Algo == "local" {
				local += r.EngineSeconds
			} else {
				eng += r.EngineSeconds
			}
		}
		races += float64(p.vars.Races)
		losers += float64(p.vars.RaceLosersCancelled)
		rejected += float64(p.vars.JobsRejectedFull)
		d := p.vars.Cluster.Dedup
		hits += float64(d.CacheHits + d.Coalesced)
		subs += float64(d.CacheHits + d.Coalesced + d.Executed)
	}
	rep.setLayer("serve.queue_s", queue/n, "s")
	rep.setLayer("serve.run_s", runS/n, "s")
	rep.setLayer("serve.place_s", place/n, "s")
	rep.setLayer("serve.engine_s", eng/n, "s")
	rep.setLayer("serve.route_s", route/n, "s")
	rep.setLayer("localrep.run_s", local/n, "s")
	rep.setLayer("serve.races", races/n, "count")
	rep.setLayer("serve.race_losers_cancelled", losers/n, "count")
	rep.setLayer("serve.rejected", rejected/n, "count")
	if subs > 0 {
		rep.setLayer("cluster.dedup_ratio", hits/subs, "ratio")
	}
	rep.setLayer("netlist.read_s", selfByName(t.Spans())["netlist.read"], "s")
	rep.setLayer("trace.overhead_s", median(tps.wall)-median(ups.wall), "s")
	rep.note("traced %d passes, untraced %d passes", len(tps.wall), len(ups.wall))
	return rep, nil
}

// jobWait is serve_mixed's printed wall_s: each job's median latency over the
// passes, summed over the job list and divided by the client count —
// the pass's wall time under a balanced closed loop, estimated job by
// job so a burst of outside load that slows one job of one pass moves
// it less than it moves that pass's makespan.
func jobWait(passes []servePass) float64 {
	perJob := map[int][]float64{}
	for _, p := range passes {
		for i, out := range p.outs {
			perJob[i] = append(perJob[i], out.latency.Seconds())
		}
	}
	wait := 0.0
	for _, v := range perJob {
		wait += median(v)
	}
	return wait / serveClients
}

// serveExtras reports the serve_mixed readouts: job latency median and
// tail (a failed or refused job counts as the slowest), and the probes'
// deadline overrun.
func serveExtras(rep *report, jobs []benchJob, passes []servePass) {
	var lats, overruns, probePre, probeRoute []float64
	byKind := map[string][]float64{}
	for _, p := range passes {
		for i, out := range p.outs {
			ms := float64(out.latency) / float64(time.Millisecond)
			if jobs[i].kind == kindProbe {
				if ov, ok := probeOverrunMS(jobs[i].spec, out.st); ok {
					overruns = append(overruns, ov)
				}
				if r := out.st.Result; r != nil {
					probePre = append(probePre, 1000*(r.PlaceSeconds+r.EngineSeconds))
					probeRoute = append(probeRoute, 1000*r.RouteSeconds)
				}
				continue
			}
			if out.err != nil || out.st.State != serve.StateDone {
				ms = math.Inf(1)
			}
			lats = append(lats, ms)
			byKind[jobs[i].kind] = append(byKind[jobs[i].kind], ms)
		}
	}
	rep.setExtra("job_p50_ms", median(lats), "ms")
	if p, v, ok := tailPercentile(lats); ok {
		rep.setExtra("job_tail_ms", v, "ms")
		rep.note("job_tail_ms is p%g of %d jobs", p, len(lats))
	} else {
		rep.note("job_tail_ms: %d jobs leave no percentile with %d beyond it", len(lats), minBeyond)
	}
	if len(overruns) > 0 {
		rep.setExtra("deadline_overrun_ms", median(overruns), "ms")
	}
	if len(probePre) > 0 {
		rep.note("probes: %d of %d ran to completion; median place+engine %.0f ms, route %.0f ms, deadline %d ms",
			len(probePre), len(overruns), median(probePre), median(probeRoute), probeTimeoutMS)
	}
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		rep.note("%s jobs: %d, median %.1f ms", k, len(byKind[k]), median(byKind[k]))
	}
}
