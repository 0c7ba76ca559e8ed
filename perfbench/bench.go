package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// more returns the timed phase's stop rule and the number of jobs it
// expects: exactly o.jobs jobs when set, otherwise until o.seconds have
// passed and the workload's minimum of injected jobs has completed. A
// timed phase ends on a whole cycle of the job set, so the per-job means
// of its deterministic counts repeat exactly for a seed.
func (o options) more() (func(i, injectedDone int) bool, int) {
	if o.jobs > 0 {
		return func(i, _ int) bool { return i < o.jobs }, o.jobs
	}
	start := time.Now()
	return func(i, injectedDone int) bool {
		return i%o.w.setSize != 0 || time.Since(start) < o.seconds || injectedDone < o.w.minInjected
	}, int(o.seconds.Seconds()*o.w.maxRate) + 1
}

func run(o options) (*report, error) {
	if o.out != "" {
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			return nil, err
		}
	}
	if o.trace {
		return runTraced(o)
	}
	return runUntraced(o)
}

// runUntraced sets up o.setups times, keeps the last rig, runs the timed
// phase on it and reports the end-to-end metrics.
func runUntraced(o options) (*report, error) {
	var (
		set    []job
		r      *rig
		setups []float64
	)
	for k := 0; k < o.setups; k++ {
		if r != nil {
			r.close()
			runtime.GC()
		}
		var d time.Duration
		var err error
		set, r, d, err = setUp(o.w, o.seed, connsFor(o.w), nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	rep := newReport(o)
	// Restart the kernel's peak-RSS mark so peak_rss_mb covers the timed
	// phase, not the set-ups' garbage.
	rssNote := "VmHWM of the timed phase"
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		rssNote = "VmHWM since process start"
	}
	more, expect := o.more()
	p, err := r.drive(set, expect, more)
	r.close()
	if err != nil {
		rep.fail(err.Error())
	}
	rep.endToEnd(p, setups, rssNote)
	return rep, nil
}

// runTraced runs the timed phase untraced, then re-runs exactly the same
// jobs on a fresh traced rig, checks that every deterministic count
// repeats, and reports the per-layer metrics of the traced run.
func runTraced(o options) (*report, error) {
	conns := connsFor(o.w)
	rep := newReport(o)

	set, r, _, err := setUp(o.w, o.seed, conns, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	more, expect := o.more()
	plain, err := r.drive(set, expect, more)
	r.close()
	if err != nil {
		rep.fail(err.Error())
		return rep, nil
	}
	runtime.GC()

	tr := &tracer{}
	set, r, _, err = setUp(o.w, o.seed, conns, tr)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	if err := writeAllocProfile(o, rep, ".allocs-base.pprof"); err != nil {
		r.close()
		return nil, err
	}
	stopProfile, err := startCPUProfile(o, rep)
	if err != nil {
		r.close()
		return nil, err
	}
	c0, rt0 := tr.snapshot(), readRuntime()
	n := plain.det.Jobs
	traced, err := r.drive(set, n, func(i, _ int) bool { return i < n })
	rt1 := readRuntime()
	stopProfile()
	// Closing the stream first lets every connection handler record its
	// last response frame before the counters are read.
	r.closeStream()
	c1 := tr.snapshot()
	r.srv.Close()
	if err != nil {
		rep.fail(err.Error())
		return rep, nil
	}
	if err := writeAllocProfile(o, rep, ".allocs.pprof"); err != nil {
		return nil, err
	}
	rp, err := replay(set, traced.geom)
	if err != nil {
		rep.fail(err.Error())
	}
	rep.checkTraced(plain, traced, c1.minus(c0))
	rep.perLayer(plain, traced, c1, c1.minus(c0), rt1.minus(rt0), rp)
	return rep, nil
}

// artifactPath names an artifact of this run in o.out.
func artifactPath(o options, suffix string) string {
	return filepath.Join(o.out, fmt.Sprintf("%s-seed%d-trace%d%s", o.w.name, o.seed, boolInt(o.trace), suffix))
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// startCPUProfile profiles the traced phase into the artifact directory.
func startCPUProfile(o options, rep *report) (stop func(), err error) {
	if o.out == "" {
		return func() {}, nil
	}
	path := artifactPath(o, ".cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	rep.Artifacts = append(rep.Artifacts, path)
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			rep.fail(fmt.Sprintf("cpu profile: %v", err))
		}
	}, nil
}

// writeAllocProfile writes the process's cumulative allocation profile;
// `go tool pprof -base` on the profiles written before and after the
// traced phase isolates that phase.
func writeAllocProfile(o options, rep *report, suffix string) error {
	if o.out == "" {
		return nil
	}
	path := artifactPath(o, suffix)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return fmt.Errorf("alloc profile: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("alloc profile: %w", err)
	}
	rep.Artifacts = append(rep.Artifacts, path)
	return nil
}
