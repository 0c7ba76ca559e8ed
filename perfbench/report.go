package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"time"
)

// metric is one named measurement. Note says what it was measured over.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Note  string  `json:"note,omitempty"`
}

// provenance identifies the machine and build a result came from.
type provenance struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func currentProvenance() provenance {
	p := provenance{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty {
			p.Commit += "+modified"
		}
	}
	return p
}

// report is one run's result. Metrics are the benchmark's metrics for
// the run's mode and make up the result line; Extra are printed and
// kept in the artifact only.
type report struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Trace      int            `json:"trace"`
	Provenance provenance     `json:"provenance"`
	Correct    bool           `json:"correct"`
	Problems   []string       `json:"problems,omitempty"`
	Attempted  int            `json:"attempted"`
	Failed     int            `json:"failed"`
	Counts     map[string]det `json:"counts,omitempty"`
	SetupS     []float64      `json:"setup_s_samples,omitempty"`
	Metrics    []metric       `json:"metrics"`
	Extra      []metric       `json:"extra,omitempty"`
	Artifacts  []string       `json:"artifacts,omitempty"`

	artifact string
}

func newReport(o options) *report {
	rep := &report{
		Workload:   o.w.name,
		Seed:       o.seed,
		Seconds:    o.seconds.Seconds(),
		Trace:      boolInt(o.trace),
		Provenance: currentProvenance(),
		Correct:    true,
		Counts:     make(map[string]det),
	}
	if o.out != "" {
		rep.artifact = artifactPath(o, ".json")
	}
	return rep
}

func (r *report) fail(problem string) {
	r.Correct = false
	r.Problems = append(r.Problems, problem)
}

func (r *report) add(name string, v float64, unit, note string) {
	r.Metrics = append(r.Metrics, metric{Name: name, Value: v, Unit: unit, Note: note})
}

func (r *report) extra(name string, v float64, unit, note string) {
	r.Extra = append(r.Extra, metric{Name: name, Value: v, Unit: unit, Note: note})
}

// percentileMs is the nearest-rank percentile of sorted samples in
// milliseconds, with a note giving the sample count and how many
// samples lie beyond it.
func percentileMs(sorted []time.Duration, p float64) (float64, string) {
	n := len(sorted)
	if n == 0 {
		return 0, "n=0"
	}
	rank := max(int(math.Ceil(p*float64(n))), 1)
	return float64(sorted[rank-1]) / float64(time.Millisecond), fmt.Sprintf("n=%d, %d beyond", n, n-rank)
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd fills the end-to-end metrics of an untraced phase.
func (r *report) endToEnd(p *phase, setups []float64, rssNote string) {
	d := p.det
	r.Counts["timed"] = d
	r.Attempted, r.Failed = d.Jobs, d.failed()
	r.SetupS = setups
	wall := p.wall.Seconds()
	if len(p.lat[0]) == 0 {
		r.fail("no verified honest jobs")
	}
	p50, n50 := percentileMs(p.lat[0], 0.50)
	p90, n90 := percentileMs(p.lat[0], 0.90)
	p99, n99 := percentileMs(p.lat[0], 0.99)
	rss, err := peakRSSMB()
	if err != nil {
		r.fail(err.Error())
	}
	honestVerified := d.Outcomes[0][verified]

	r.add("verified_per_s", float64(d.verified())/wall, "1/s",
		fmt.Sprintf("%d verified jobs in %.3f s", d.verified(), wall))
	r.add("keys_per_s", float64(p.keys)/wall, "1/s", fmt.Sprintf("%d verified keys", p.keys))
	r.add("latency_p50_ms", p50, "ms", n50+" honest")
	r.add("latency_p90_ms", p90, "ms", n90+" honest")
	r.add("vticks_per_job", ratio(float64(d.HonestVTicks), float64(honestVerified)), "vticks",
		fmt.Sprintf("n=%d honest verified", honestVerified))
	r.add("peak_rss_mb", rss, "MB", rssNote)
	r.add("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups", len(setups)))

	r.extra("latency_p99_ms", p99, "ms", n99+" honest")
	i50, in50 := percentileMs(p.lat[1], 0.50)
	i90, in90 := percentileMs(p.lat[1], 0.90)
	r.extra("injected_latency_p50_ms", i50, "ms", in50+" injected")
	r.extra("injected_latency_p90_ms", i90, "ms", in90+" injected")
	r.extra("failed_frac", ratio(float64(d.failed()), float64(d.Jobs)), "frac",
		fmt.Sprintf("%d of %d jobs", d.failed(), d.Jobs))
	r.extra("cpu_steal_frac", p.steal, "frac", "of the machine's CPU time, stolen by the hypervisor")
}

// checkTraced fails the run unless the traced phase reproduced every
// deterministic count of the untraced one. On a workload without
// injected jobs the transport's own traffic counters must also equal
// the per-job statistics the server returned.
func (r *report) checkTraced(plain, traced *phase, d counts) {
	a, b := plain.det, traced.det
	r.Counts["untraced"] = a
	r.Counts["traced"] = b
	r.Attempted, r.Failed = b.Jobs, b.failed()
	if a.comparable() != b.comparable() {
		r.fail(fmt.Sprintf("traced run did not reproduce the untraced counts: untraced %+v, traced %+v", a, b))
	}
	if b.Outcomes[1] == ([numOutcomes]int{}) &&
		(d[cMsgs] != b.Msgs || d[cWireBytes] != b.Bytes || d[cRuns] != b.Attempts) {
		r.fail(fmt.Sprintf("transport counted %d msgs, %d bytes, %d runs; jobs reported %d, %d, %d",
			d[cMsgs], d[cWireBytes], d[cRuns], b.Msgs, b.Bytes, b.Attempts))
	}
}

// perLayer fills the per-layer metrics of a traced phase from the
// tracer's lifetime totals (all), their deltas over the phase (d), the
// runtime metric deltas and the replays.
func (r *report) perLayer(plain, traced *phase, all, d counts, rt rtSample, rp replayed) {
	jobs := float64(traced.det.Jobs)
	us := func(ns int64, per float64) float64 { return ratio(float64(ns), per) / 1e3 }
	perJob := func(v int64) float64 { return ratio(float64(v), jobs) }
	f := func(c counter) float64 { return float64(d[c]) }
	note := fmt.Sprintf("%d jobs", traced.det.Jobs)

	r.add("server.frame_read_us", us(d[cReadNs], f(cFramesRead)), "us", fmt.Sprintf("%d request frames", d[cFramesRead]))
	r.add("server.frame_write_us", us(d[cWriteNs], f(cFramesWritten)), "us", fmt.Sprintf("%d response frames", d[cFramesWritten]))
	r.add("server.submit_us", us(d[cSubmitNs], f(cSubmits)), "us", fmt.Sprintf("%d submits", d[cSubmits]))
	r.add("server.pool_build_us", us(all[cBuildNs], float64(all[cBuilds])), "us",
		fmt.Sprintf("%d builds, warm-up included", all[cBuilds]))
	r.add("server.pool_builds_per_job", perJob(traced.det.PoolBuilt), "count", note)
	r.add("server.pool_reset_us", us(d[cResetNs], f(cResets)), "us", fmt.Sprintf("%d resets", d[cResets]))
	r.add("server.pool_discards_per_job", perJob(traced.det.PoolDiscarded), "count", note)
	attributed := d[cBuildNs] + d[cResetNs] + d[cRunNs] + d[cSleepNs]
	r.add("server.unattributed_us", us(d[cSubmitNs]-attributed, jobs), "us", note)
	r.add("obs.job_setup_us", rp.obsSetupNs/1e3, "us", fmt.Sprintf("replayed for %d set jobs", rp.jobs))
	r.add("obs.job_setup_kb", rp.obsSetupKB, "KiB", fmt.Sprintf("replayed for %d set jobs", rp.jobs))
	r.add("recovery.attempts_per_job", perJob(d[cRuns]), "count", note)
	r.add("recovery.backoff_share", ratio(f(cSleepNs), f(cSubmitNs)), "frac",
		fmt.Sprintf("%d backoff sleeps over submit time", d[cSleeps]))
	r.add("node.run_us", us(d[cRunNs], f(cRuns)), "us", fmt.Sprintf("%d runs", d[cRuns]))
	r.add("blocksort.compute_us_per_job", us(d[cComputeNs], jobs), "us", note)
	r.add("simnet.send_us_per_job", us(d[cSendNs], jobs), "us", note)
	r.add("simnet.recv_us_per_job", us(d[cRecvNs], jobs), "us", note)
	r.add("simnet.msgs_per_job", perJob(d[cMsgs]), "count", note)
	r.add("simnet.wirebytes_per_job", perJob(d[cWireBytes]), "B", note)
	r.add("simnet.absences_per_job", perJob(d[cAbsences]), "count", note)
	r.add("simnet.absence_wait_share", ratio(f(cAbsenceNs), f(cRecvNs)), "frac", "of receive time")
	r.add("checker.verify_us", rp.verifyNs/1e3, "us", fmt.Sprintf("replayed for %d set jobs", rp.jobs))
	r.add("runtime.alloc_kb_per_job", rt[rtAllocBytes]/1024/jobs, "KiB", note)
	r.add("runtime.mallocs_per_job", rt[rtAllocObjects]/jobs, "count", note)
	r.add("runtime.gc_cpu_frac", ratio(rt[rtGCCPU], rt[rtTotalCPU]-rt[rtIdleCPU]), "frac", "of busy CPU")
	r.add("trace.overhead_frac", traced.wall.Seconds()/plain.wall.Seconds()-1, "frac",
		fmt.Sprintf("traced %.3f s vs untraced %.3f s for the same jobs", traced.wall.Seconds(), plain.wall.Seconds()))

	r.extra("recovery.backoff_ms_per_job", us(d[cSleepNs], jobs)/1e3, "ms", note)
	r.extra("simnet.absence_wait_ms_per_job", us(d[cAbsenceNs], jobs)/1e3, "ms", note)
	r.extra("cpu_steal_frac", traced.steal, "frac", "of the machine's CPU time, stolen by the hypervisor")
}

// write writes the artifact, then prints the report and, last, the
// result line.
func (r *report) write(w io.Writer) error {
	if r.artifact != "" {
		r.Artifacts = append(r.Artifacts, r.artifact)
		b, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(r.artifact, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	p := r.Provenance
	fmt.Fprintf(w, "perfbench: workload=%s seed=%d seconds=%g trace=%d\n", r.Workload, r.Seed, r.Seconds, r.Trace)
	fmt.Fprintf(w, "provenance: nproc=%d gomaxprocs=%d go=%s commit=%s\n", p.NProc, p.GOMAXPROCS, p.GoVersion, p.Commit)
	var names []string
	for name := range r.Counts {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		d := r.Counts[name]
		fmt.Fprintf(w, "jobs (%s): %d attempted, %d verified, %d failed;", name, d.Jobs, d.verified(), d.failed())
		for class, label := range []string{"honest", "injected"} {
			fmt.Fprintf(w, " %s", label)
			for o, n := range d.Outcomes[class] {
				fmt.Fprintf(w, " %s=%d", outcomeNames[o], n)
			}
			if class == 0 {
				fmt.Fprint(w, ";")
			}
		}
		fmt.Fprintf(w, "; vticks=%d msgs=%d bytes=%d attempts=%d; pool built=%d reused=%d discarded=%d\n",
			d.HonestVTicks, d.Msgs, d.Bytes, d.Attempts, d.PoolBuilt, d.PoolReused, d.PoolDiscarded)
	}
	for _, m := range append(slices.Clone(r.Metrics), r.Extra...) {
		fmt.Fprintf(w, "  %-32s %16.4f %-6s %s\n", m.Name, m.Value, m.Unit, m.Note)
	}
	for _, p := range r.Problems {
		fmt.Fprintln(w, "PROBLEM:", p)
	}
	for _, a := range r.Artifacts {
		fmt.Fprintln(w, "artifact:", a)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]value)}
	for _, m := range r.Metrics {
		line.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// cpuTimes reads the machine's cumulative steal and total CPU time from
// /proc/stat, in clock ticks. Steal is time the hypervisor ran something
// else on this machine's virtual CPUs; a run with much of it measured a
// slower machine.
func cpuTimes() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 {
		return 0, 0
	}
	for i, f := range fields[1:9] {
		v, _ := strconv.ParseInt(f, 10, 64) // a malformed field counts 0: the share is a diagnostic
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealShare returns the share of CPU time stolen since (steal, total).
func stealShare(steal, total int64) float64 {
	s, t := cpuTimes()
	return ratio(float64(s-steal), float64(t-total))
}

// rtSample holds the runtime/metrics values the per-layer metrics use.
type rtSample [5]float64

const (
	rtAllocBytes = iota
	rtAllocObjects
	rtGCCPU
	rtTotalCPU
	rtIdleCPU
)

var rtNames = [5]string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() (s rtSample) {
	samples := make([]metrics.Sample, len(rtNames))
	for i, name := range rtNames {
		samples[i].Name = name
	}
	metrics.Read(samples)
	for i, sm := range samples {
		switch sm.Value.Kind() {
		case metrics.KindUint64:
			s[i] = float64(sm.Value.Uint64())
		case metrics.KindFloat64:
			s[i] = sm.Value.Float64()
		}
	}
	return s
}

func (s rtSample) minus(o rtSample) (d rtSample) {
	for i := range s {
		d[i] = s[i] - o[i]
	}
	return d
}
