package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// tiny shrinks a workload to a few small jobs.
func tiny(w workload) (workload, int) {
	jobs := 24
	w.sizes = []int{16, 64}
	w.setSize = 20
	w.warmJobs = 8
	w.minInjected = 0
	if w.name == "large" {
		w.sizes = []int{4096, 8192}
		w.setSize = 4
		w.warmJobs = 2
		jobs = 4
	}
	return w, jobs
}

func runTiny(t *testing.T, w workload, trace bool) *report {
	t.Helper()
	w, jobs := tiny(w)
	rep, err := run(options{w: w, seed: 3, seconds: time.Second, trace: trace, setups: 1, jobs: jobs})
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if !rep.Correct {
		t.Fatalf("%s: run not correct: %v", w.name, rep.Problems)
	}
	return rep
}

// TestWorkloadsRepeatAtTinySize runs every workload traced twice: each
// run must reproduce its untraced counts, so the wrapped network leaves
// the pool's built, reused and discarded counts as a bare one does
// (with faults injected, its checkouts and discards), and both runs must
// agree on every deterministic count.
func TestWorkloadsRepeatAtTinySize(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			first := runTiny(t, w, true)
			second := runTiny(t, w, true)
			for _, rep := range []*report{first, second} {
				u, tr := rep.Counts["untraced"].comparable(), rep.Counts["traced"].comparable()
				if u.PoolBuilt != tr.PoolBuilt || u.PoolReused != tr.PoolReused || u.PoolDiscarded != tr.PoolDiscarded {
					t.Errorf("pool counts: untraced %+v, traced %+v", u, tr)
				}
				if u.Jobs == 0 || u.verified() == 0 {
					t.Errorf("no verified jobs: %+v", u)
				}
			}
			if first.Counts["traced"].comparable() != second.Counts["traced"].comparable() {
				t.Errorf("counts differ between runs:\n%+v\n%+v", first.Counts["traced"], second.Counts["traced"])
			}
			injected := first.Counts["traced"].Outcomes[1]
			if got := injected[verified] + injected[recoveryExhausted] + injected[faultDetected]; (w.injectEvery > 0) != (got > 0) {
				t.Errorf("injected jobs: %v", injected)
			}
		})
	}
}

// benchmarkJSON is the part of BENCHMARK.json the result line must match.
type benchmarkJSON struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// TestMetricsMatchBenchmarkJSON checks that each mode's result line
// carries exactly the metrics BENCHMARK.json names, with their units,
// and that the report-only metrics are printed too.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		trace bool
		want  []struct{ Name, Unit string }
		extra []string
	}{
		{false, spec.EndToEnd, []string{"latency_p99_ms", "injected_latency_p50_ms", "injected_latency_p90_ms", "failed_frac"}},
		{true, spec.PerLayer, []string{"recovery.backoff_ms_per_job", "simnet.absence_wait_ms_per_job"}},
	}
	for _, c := range cases {
		rep := runTiny(t, workloads[0], c.trace)
		var out bytes.Buffer
		if err := rep.write(&out); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("last line is not JSON: %v", err)
		}
		if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil {
			t.Fatalf("result line keys: %s", lines[len(lines)-1])
		}
		var metrics map[string]struct {
			Value float64
			Unit  string
		}
		if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(c.want) {
			t.Errorf("trace=%v: %d metrics, BENCHMARK.json names %d", c.trace, len(metrics), len(c.want))
		}
		for _, m := range c.want {
			got, ok := metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("trace=%v: metric %s: got %+v (present %v), want unit %s", c.trace, m.Name, got, ok, m.Unit)
			}
		}
		for _, name := range c.extra {
			if !strings.Contains(out.String(), "  "+name+" ") {
				t.Errorf("trace=%v: report lacks %s", c.trace, name)
			}
		}
	}
}
