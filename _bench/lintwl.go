package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/analysis"
)

// benchDir is this benchmark's directory at the repository root; the
// module copy leaves it (and every dot directory) out.
const benchDir = "_bench"

// lintRun is one `make lint` invocation's observable outcome.
type lintRun struct {
	exit   int
	stdout string
	stderr string // with the per-run cache statistics line removed
	wall   float64
	cpu    float64 // user + system seconds of make and its children
	rssMB  float64 // largest resident set among the child processes
}

// runMakeLint runs `make lint` in dir and waits for it.
func runMakeLint(ctx context.Context, dir string) (lintRun, error) {
	var out, errb bytes.Buffer
	cmd := exec.CommandContext(ctx, "make", "lint")
	cmd.Dir = dir
	cmd.Stdout = &out
	cmd.Stderr = &errb
	t0 := time.Now()
	err := cmd.Run()
	r := lintRun{wall: time.Since(t0).Seconds(), stdout: out.String(), stderr: stripCacheLine(errb.String())}
	var ee *exec.ExitError
	if err != nil && !errors.As(err, &ee) {
		return r, fmt.Errorf("make lint: %w", err)
	}
	r.exit = cmd.ProcessState.ExitCode()
	r.cpu = (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return r, nil
}

// stripCacheLine drops replint's cache statistics line, which differs
// between a cold and a warm run by design.
func stripCacheLine(s string) string {
	var keep []string
	for _, l := range strings.SplitAfter(s, "\n") {
		if strings.HasPrefix(l, "replint: cache:") {
			continue
		}
		keep = append(keep, l)
	}
	return strings.Join(keep, "")
}

// checkLintOutput records that an edited-copy lint matches the set-up
// lint of the unedited copy: same exit status, same output bytes.
func checkLintOutput(chk *checker, want, got lintRun, what string) {
	chk.check(got.exit == want.exit, "%s: exit status %d, set-up lint had %d", what, got.exit, want.exit)
	chk.check(got.stdout == want.stdout && got.stderr == want.stderr, "%s: output differs from the set-up lint", what)
}

// copyModule copies the repository's module tree from src to dst,
// leaving out dot directories and the benchmark's own directory at the
// top level. It returns the copied files as sorted slash paths.
func copyModule(src, dst string) ([]string, error) {
	if err := os.RemoveAll(dst); err != nil {
		return nil, err
	}
	var files []string
	err := filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if rel != "." && !strings.Contains(rel, string(filepath.Separator)) &&
				(strings.HasPrefix(rel, ".") || rel == benchDir) {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		if err := copyFile(p, filepath.Join(dst, rel)); err != nil {
			return err
		}
		files = append(files, filepath.ToSlash(rel))
		return nil
	})
	sort.Strings(files)
	return files, err
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	info, err := in.Stat()
	if err != nil {
		return err
	}
	out, err := os.OpenFile(dst, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, info.Mode().Perm())
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// appendComment appends one comment line to a file: the one-file edit
// of a lint_edit pass. A trailing comment shifts no position, so the
// lint output must not change.
func appendComment(path string, pass int) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(f, "// replbench edit %d\n", pass); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedLint recomposes the analysis a lint performs from the analysis
// package's public functions, one rule at a time, without the fact
// cache: NewLoader + Expand + Load, BuildModule, then RunPackages per
// rule of analysis.All(). It returns the total and unsuppressed
// finding counts.
func tracedLint(t *Tracer, fid, dir string) (total, unsuppressed int, err error) {
	root := t.Begin(0, fid, "lint")
	defer t.End(root)
	var loader *analysis.Loader
	var paths []string
	err = t.Time(root, fid, "analysis.load", func(int) error {
		var err error
		if loader, err = analysis.NewLoader(dir); err != nil {
			return err
		}
		if paths, err = loader.Expand([]string{"./..."}); err != nil {
			return err
		}
		for _, p := range paths {
			if _, err := loader.Load(p); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	var mod *analysis.Module
	err = t.Time(root, fid, "analysis.build_module", func(int) error {
		var err error
		mod, err = analysis.BuildModule(loader)
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	for _, a := range analysis.All() {
		var res map[string][]analysis.Finding
		_ = t.Time(root, fid, "analysis.rule."+a.Name, func(int) error {
			res = mod.RunPackages(paths, []*analysis.Analyzer{a}, 0)
			return nil
		})
		for _, fs := range res {
			for _, f := range fs {
				total++
				if !f.Suppressed {
					unsuppressed++
				}
			}
		}
	}
	return total, unsuppressed, nil
}

// runLintEdit is the lint_edit workload: the replint gate after a
// one-file edit. Set-up copies the module and runs a first `make lint`
// (cold fact cache); each pass appends a comment line to one seeded
// non-test .go file and runs `make lint` again.
func runLintEdit(ctx context.Context, o options) (*report, error) {
	chk := &checker{}
	rep := newReport(chk)
	dir := filepath.Join(o.work, "lint-module")
	var want lintRun
	var files []string
	setup, err := timeSetup(func() error {
		var err error
		if files, err = copyModule(o.root, dir); err != nil {
			return fmt.Errorf("copy module: %w", err)
		}
		want, err = runMakeLint(ctx, dir)
		return err
	})
	if err != nil {
		return nil, err
	}
	targets, err := lintEditTargets(files, func(f string) ([]byte, error) {
		return os.ReadFile(filepath.Join(dir, filepath.FromSlash(f)))
	})
	if err != nil {
		return nil, err
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("no .go files to edit under %s", o.root)
	}
	edits := lintEdits(o.seed, targets, 10000)
	pass := 0
	nextEdit := func() (string, error) {
		f := edits[pass%len(edits)]
		err := appendComment(filepath.Join(dir, filepath.FromSlash(f)), pass)
		pass++
		return f, err
	}

	var runs []lintRun
	untraced := func(budget time.Duration, minPasses int) error {
		start := time.Now()
		for i := 0; i < minPasses || time.Since(start) < budget; i++ {
			f, err := nextEdit()
			if err != nil {
				return err
			}
			sampleSpeed(3)
			r, err := runMakeLint(ctx, dir)
			if err != nil {
				return err
			}
			checkLintOutput(chk, want, r, "lint after editing "+f)
			runs = append(runs, r)
		}
		return nil
	}

	if !o.trace {
		if err := untraced(time.Duration(o.seconds*float64(time.Second)), 3); err != nil {
			return nil, err
		}
		var wall, cpu, rss []float64
		for _, r := range runs {
			wall = append(wall, r.wall)
			cpu = append(cpu, r.cpu)
			rss = append(rss, r.rssMB)
		}
		rep.setSetup(setup)
		rep.setCPU(mean(cpu))
		rep.setExtra("wall_s", median(wall), "s")
		rep.setExtra("peak_rss_mb", median(rss), "MB")
		rep.note("samples %d passes; cpu_s p25 %.4f p75 %.4f; wall_s p25 %.4f p75 %.4f; exit status %d", len(runs),
			percentile(cpu, 25), percentile(cpu, 75), percentile(wall, 25), percentile(wall, 75), want.exit)
		return rep, nil
	}

	ub, tb := splitBudget(o)
	if err := untraced(ub, 1); err != nil {
		return nil, err
	}
	var uwall []float64
	for _, r := range runs {
		uwall = append(uwall, r.wall)
	}
	t := newTracer()
	var twall, findings []float64
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < tb; i++ {
		f, err := nextEdit()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		total, unsup, err := tracedLint(t, fmt.Sprintf("p%d/%s", i, f), dir)
		twall = append(twall, time.Since(t0).Seconds())
		if !chk.checkErr(err, "traced lint") {
			continue
		}
		// The recomposed analysis must agree with make lint's verdict.
		chk.check((unsup == 0) == (want.exit == 0), "traced lint: %d unsuppressed findings, make lint exit %d", unsup, want.exit)
		findings = append(findings, float64(total))
	}
	if err := writeTrace(o, t); err != nil {
		return nil, err
	}
	fillLayerDefaults(rep)
	setLayerPerPass(rep, selfByName(t.Spans()), float64(len(twall)))
	rep.setLayer("analysis.findings", median(findings), "count")
	rep.setLayer("trace.overhead_s", median(twall)-median(uwall), "s")
	rep.note("traced %d passes, untraced %d passes", len(twall), len(uwall))
	return rep, nil
}
